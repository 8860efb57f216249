import hashlib
import inspect
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from fentropy import cli
from fentropy.divergence import FiniteMeasure
from fentropy.errors import UnsupportedPayloadForCsv
from fentropy.free_boundary import harmonic_measure, uniform_generator_measure
from fentropy.majorant import Majorant, WeightedFunction
from fentropy.sigma_walk import (GroupSpec, StochasticSequence, constant_sequence,
                                 poisson_transform_cylinder)


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "fentropy.cli", *args],
        capture_output=True, text=True, env=full_env,
    )


@pytest.fixture
def files(tmp_path):
    paths = {}

    def w(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
        return str(p)

    w("uniform2.json", uniform_generator_measure(2).to_json())
    w("asym.json", {"d": 2, "p": {"1": 0.4, "-1": 0.4, "2": 0.1, "-2": 0.1}})
    w("lamz.json", {"atoms": {"-1": 0.5, "1": 0.5}})
    w("rho.json", {"kind": "power", "q": 2})
    w("fn.json", {"space": {"atoms": {"a": 0.5, "b": 0.3, "c": 0.2}},
                  "values": {"a": 1, "b": -2, "c": 3}})
    w("sigma.json", constant_sequence(uniform_generator_measure(2)).to_json())
    w("sigmaz.json", StochasticSequence(
        GroupSpec("int"), [1], [[[{1: 0.5, -1: 0.5}]]]).to_json())
    paths["dir"] = str(tmp_path)
    return paths


class TestCanonicalJson:
    def test_sorted_keys_and_17_digits(self):
        doc = {"b": 1 / 3, "a": 2}
        s = cli.canonical_json(doc)
        assert s == '{"a":2,"b":0.33333333333333331}'

    def test_identical_bytes(self):
        doc = {"x": [0.1, 0.2], "y": {"k": math.pi}}
        assert cli.canonical_json(doc) == cli.canonical_json(doc)

    def test_infinity_encoding(self):
        assert cli.canonical_json({"h": math.inf}) == '{"h":"inf"}'

    @pytest.mark.parametrize("value, python", [
        (np.float64(0.1), 0.1),
        (np.float32(0.1), float(np.float32(0.1))),
        (np.int64(-7), -7),
        (np.array(2.5), 2.5),
        (np.array([0.1, np.inf, -np.inf, np.nan]), [0.1, math.inf, -math.inf, math.nan]),
        (np.array([[1 / 3, 2.0], [0.0, -1e-300]]), [[1 / 3, 2.0], [0.0, -1e-300]]),
    ])
    def test_numpy_values_encode_as_python(self, value, python):
        assert cli.canonical_json({"x": value}) == cli.canonical_json({"x": python})

    def test_numpy_array_bytes(self):
        doc = {"g": np.array([[0.5, 1.0], [np.float32(0.25), -3.0]]), "n": np.int64(3)}
        assert cli.canonical_json(doc) == '{"g":[[0.5,1],[0.25,-3]],"n":3}'

    def test_csv_curve(self):
        payload = {"curve": [{"a": 0.5, "h": 1.0}, {"a": 0.9, "h": 0.5},
                             {"a": 0.99, "h": 0.25}]}
        out = cli.emit_csv(payload)
        lines = out.strip().split("\n")
        assert lines[0] == "a,h"
        assert len(lines) == 4

    def test_csv_rejects_scalar_payload(self):
        with pytest.raises(UnsupportedPayloadForCsv):
            cli.emit_csv({"h": 1.0})


class TestCommandSurface:
    def test_every_core_operation_has_a_subcommand(self):
        # public operation families -> owning subcommand
        coverage = {
            "solve_q": "solve-q",
            "harmonic_measure": "harmonic",
            "cylinder_entropy": "entropy",
            "t_map": "tmap",
            "t_inverse": "tinv",
            "minimality_scan": "scan",
            "entropy_gradient_at_harmonic": "gradient",
            "validate_sigma": "validate-sigma",
            "exact_distribution": "walk-exact",
            "sample_trajectory": "walk-sample",
            "boundary_empirical": "walk-boundary",
            "check_harmonic": "harmonic-check",
            "abel_measure": "abel",
            "abel_identity_residual": "abel-identity",
            "folner_entropy_curve": "folner",
            "rho_norm": "rho-norm",
            "rho_abs_continuity": "rho-ac",
            "concave_envelope": "envelope",
            "vallee_poussin": "vp",
            "split_integrable": "split",
        }
        import fentropy

        for op in coverage:
            assert hasattr(fentropy, op) or hasattr(cli, "cmd_" + op)
        for sub in coverage.values():
            assert sub in cli.SUBCOMMANDS

    def test_full_subcommand_list_present(self):
        required = ["solve-q", "harmonic", "entropy", "tmap", "tinv", "scan",
                    "gradient", "walk-exact", "walk-sample", "walk-boundary",
                    "harmonic-check", "abel", "abel-identity", "folner",
                    "rho-norm", "rho-ac", "envelope", "vp", "split"]
        for sub in required:
            assert sub in cli.SUBCOMMANDS


class TestSchemaRoundTrips:
    def test_generator_measure(self):
        doc = {"d": 2, "p": {"1": 0.4, "-1": 0.4, "2": 0.1, "-2": 0.1}}
        from fentropy.free_boundary import GeneratorMeasure

        assert GeneratorMeasure.from_json(
            GeneratorMeasure.from_json(doc).to_json()).p[1] == 0.4

    def test_stochastic_sequence(self):
        doc = {"group": {"kind": "int"}, "ell": [1],
               "matrices": [[[[{"elem": "1", "mass": 0.5},
                               {"elem": "-1", "mass": 0.5}]]]],
               "beyond": "hold-last"}
        s = StochasticSequence.from_json(doc)
        assert StochasticSequence.from_json(s.to_json()).matrices == s.matrices

    def test_majorant_schemas(self):
        for doc in ({"kind": "power", "q": 2},
                    {"kind": "pwl", "points": [[0, 0], [0.5, 0.8], [1, 1]]}):
            rho = Majorant.from_json(doc)
            rho.validate()
            assert Majorant.from_json(rho.to_json()).eval(0.5) == pytest.approx(
                rho.eval(0.5))

    def test_weighted_function(self):
        doc = {"space": {"atoms": {"a": 0.5, "b": 0.5}},
               "values": {"a": 1.5, "b": -2.0}}
        wf = WeightedFunction.from_json(doc)
        assert WeightedFunction.from_json(wf.to_json()).values == wf.values

    def test_finite_measure(self):
        doc = {"atoms": {"x": 0.25, "y": 0.75}}
        m = FiniteMeasure.from_json(doc)
        assert FiniteMeasure.from_json(m.to_json()).atoms["x"] == 0.25


class TestEndToEnd:
    def test_entropy_uniform(self, files):
        r = run_cli("entropy", "--lambda", files["uniform2.json"], "--f", "kl")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["results"]["h"] == pytest.approx(0.5 * math.log(3), abs=1e-10)

    def test_tmap_uniform_is_uniform(self, files):
        r = run_cli("tmap", "--mu", files["uniform2.json"], "--f", "kl")
        p = json.loads(r.stdout)["results"]["p"]
        assert all(v == pytest.approx(0.25, abs=1e-12) for v in p.values())

    def test_scan_reports_theorem_flag(self, files):
        r = run_cli("scan", "--lambda", files["uniform2.json"], "--f", "kl",
                    "--depth", "2", "--samples", "100", "--seed", "42")
        res = json.loads(r.stdout)["results"]
        assert res["theorem_A_violated"] is False
        assert res["min_entropy"] >= res["reference_entropy"] - 1e-9
        assert "argmin_masses" in res

    def test_validation_exit_code(self, files):
        r = run_cli("solve-q", "--mu", os.path.join(files["dir"], "nope.json"))
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert err["error"] == "ParseError"

    def test_nan_weight_exit_code(self, files):
        mu = os.path.join(files["dir"], "nan.json")
        with open(mu, "w") as fh:
            fh.write('{"d": 2, "p": {"1": 0.4, "-1": 0.4, "2": NaN, "-2": NaN}}')
        r = run_cli("solve-q", "--mu", mu)
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == "NotProbability"

    @pytest.mark.parametrize("case", ["rho-norm", "split", "split-C", "walk-exact",
                                      "validate-sigma", "vp", "vp-M-inf", "vp-M-1e308"])
    def test_non_finite_input_exit_code(self, files, case):
        fn = os.path.join(files["dir"], "nan_fn.json")
        with open(fn, "w") as fh:
            fh.write('{"space": {"atoms": {"a": 0.5, "b": 0.5}}, "values": {"a": NaN, "b": 1}}')
        doc = constant_sequence(uniform_generator_measure(2)).to_json()
        doc["matrices"][0][0][0][0]["mass"] = float("nan")
        sigma = os.path.join(files["dir"], "nan_sigma.json")
        with open(sigma, "w") as fh:
            json.dump(doc, fh)
        args = {
            "rho-norm": ("rho-norm", "--function", fn, "--rho", files["rho.json"]),
            "split": ("split", "--function", fn, "--rho", files["rho.json"], "--C", "1"),
            "split-C": ("split", "--function", files["fn.json"], "--rho", files["rho.json"],
                        "--C", "nan"),
            "walk-exact": ("walk-exact", "--sigma", sigma, "--level", "2"),
            "validate-sigma": ("validate-sigma", "--sigma", sigma),
            "vp": ("vp", "--g", "pow:2", "--M", "nan"),
            # M/v overflows on the v-grid; the error must name M, not G
            "vp-M-inf": ("vp", "--g", "pow:2", "--M", "inf"),
            "vp-M-1e308": ("vp", "--g", "pow:2", "--M", "1e308"),
        }[case]
        r = run_cli(*args)
        assert r.returncode == 2, r.stdout
        assert "error" in json.loads(r.stderr)
        if case.startswith("vp-M-"):
            assert json.loads(r.stderr)["error"] == "ParseError"
            assert "RuntimeWarning" not in r.stderr

    @pytest.mark.parametrize("case", ["missing-letter", "extra-letter", "text", "zero",
                                      "negative", "one", "nan", "not-an-object"])
    def test_bad_harmonic_tail_q_exit_code(self, files, case):
        doc = harmonic_measure(uniform_generator_measure(2), 2).to_json()
        q = doc["q"]
        if case == "missing-letter":
            del q["-2"]
        elif case == "extra-letter":
            q["3"] = q["1"]
        elif case == "text":
            q["1"] = "a third"
        elif case in ("zero", "negative", "one"):
            q["1"] = q["-1"] = {"zero": 0.0, "negative": -0.5, "one": 1.0}[case]
        elif case == "nan":
            q["2"] = math.nan
        else:
            doc["q"] = [1 / 3] * 4
        nu = os.path.join(files["dir"], "nu.json")
        with open(nu, "w") as fh:
            json.dump(doc, fh)
        r = run_cli("entropy", "--lambda", files["uniform2.json"], "--f", "kl", "--nu", nu)
        assert r.returncode == 2, r.stderr
        assert json.loads(r.stderr)["error"] == "ParseError"
        assert "Warning" not in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("case", ["tinv-tol", "tinv-tol-inf", "solve-q-tol-nan",
                                      "solve-q-tol-inf", "harmonic-check", "folner", "abel",
                                      "abel-identity", "gradient", "entropy-power",
                                      "gradient-depth-0", "scan-seed", "walk-sample-seed",
                                      "walk-boundary-seed", "walk-boundary-trajectories",
                                      "walk-sample-zero-row", "harmonic-check-levels-text",
                                      "harmonic-check-levels-three",
                                      "harmonic-check-levels-reversed",
                                      "harmonic-check-levels-past-tables",
                                      "harmonic-check-levels-zero", "folner-a-values-text",
                                      "folner-a-values-empty", "folner-max-level-negative",
                                      "vp-pow-text", "vp-pow-nan",
                                      "vp-pow-inf", "scan-zero-fraction-nan",
                                      "scan-zero-fraction-2",
                                      "scan-uniform-tail-fraction-nan", "tinv-power-24",
                                      "entropy-power-24", "gradient-power-24",
                                      "scan-power-30", "tmap-power-1000",
                                      "tmap-power-minus-1000", "abel-a-nan", "abel-identity-a-nan",
                                      "folner-a-values-nan", "vp-M-nan", "split-C-nan"])
    def test_bad_parameter_exit_code(self, files, case):
        h = os.path.join(files["dir"], "nan_h.json")
        with open(h, "w") as fh:
            fh.write('{"default": 0.0, "levels": [{"0|0": NaN}, {}]}')
        zero_h = os.path.join(files["dir"], "zero_h.json")
        with open(zero_h, "w") as fh:
            fh.write('{"default": 0.0, "levels": [{"0|0": 0.0}]}')
        two_level_h = os.path.join(files["dir"], "two_level_h.json")
        with open(two_level_h, "w") as fh:
            json.dump(poisson_transform_cylinder(uniform_generator_measure(2), (1,), 1)
                      .to_json(GroupSpec("free", 2)), fh)
        zero_row = os.path.join(files["dir"], "zero_row.json")
        with open(zero_row, "w") as fh:
            json.dump(StochasticSequence(GroupSpec("int"), [1], [[[{1: 0.0}]]]).to_json(), fh)
        scan = ("scan", "--lambda", files["uniform2.json"], "--f", "kl", "--depth", "2",
                "--samples", "10", "--seed", "1")
        args = {
            "tinv-tol": ("tinv", "--lambda", files["uniform2.json"], "--f", "kl",
                         "--tol", "nan"),
            "tinv-tol-inf": ("tinv", "--lambda", files["uniform2.json"], "--f", "kl",
                             "--tol", "inf"),
            "solve-q-tol-nan": ("solve-q", "--mu", files["asym.json"], "--tol", "nan"),
            "solve-q-tol-inf": ("solve-q", "--mu", files["asym.json"], "--tol", "inf"),
            "harmonic-check": ("harmonic-check", "--sigma", files["sigmaz.json"],
                               "--h", h, "--levels", "1:1"),
            "folner": ("folner", "--lambda-z", files["lamz.json"], "--f", "kl",
                       "--a-values", "0.5", "--eps", "nan"),
            "abel": ("abel", "--sigma", files["sigmaz.json"], "--t", "-1", "--r", "0",
                     "--a", "0.5", "--eps", "nan"),
            "abel-identity": ("abel-identity", "--sigma", files["sigmaz.json"], "--t", "0",
                              "--a", "0.5", "--eps", "nan"),
            "gradient": ("gradient", "--lambda", files["uniform2.json"], "--f", "kl",
                         "--depth", "2", "--h-step", "nan"),
            "entropy-power": ("entropy", "--lambda", files["uniform2.json"],
                              "--f", "power:nan"),
            "gradient-depth-0": ("gradient", "--lambda", files["uniform2.json"], "--f", "kl",
                                 "--depth", "0"),
            "scan-seed": ("scan", "--lambda", files["uniform2.json"], "--f", "kl",
                          "--depth", "2", "--samples", "10", "--seed", "-1"),
            "walk-sample-seed": ("walk-sample", "--sigma", files["sigma.json"],
                                 "--steps", "3", "--seed", "-1"),
            "walk-boundary-seed": ("walk-boundary", "--mu", files["uniform2.json"],
                                   "--steps", "8", "--trajectories", "10", "--seed", "-1",
                                   "--depth", "1"),
            "walk-boundary-trajectories": ("walk-boundary", "--mu", files["uniform2.json"],
                                           "--steps", "8", "--trajectories", "-5",
                                           "--seed", "1", "--depth", "1"),
            "walk-sample-zero-row": ("walk-sample", "--sigma", zero_row,
                                     "--steps", "3", "--seed", "1"),
            "harmonic-check-levels-text": ("harmonic-check", "--sigma", files["sigmaz.json"],
                                           "--h", zero_h, "--levels", "abc"),
            "harmonic-check-levels-three": ("harmonic-check", "--sigma", files["sigmaz.json"],
                                            "--h", zero_h, "--levels", "1:2:3"),
            "harmonic-check-levels-reversed": ("harmonic-check", "--sigma",
                                               files["sigmaz.json"], "--h", zero_h,
                                               "--levels", "4:1"),
            "harmonic-check-levels-past-tables": ("harmonic-check", "--sigma",
                                                  files["sigma.json"], "--h", two_level_h,
                                                  "--levels", "5:9"),
            "harmonic-check-levels-zero": ("harmonic-check", "--sigma", files["sigma.json"],
                                           "--h", two_level_h, "--levels", "0:0"),
            "folner-a-values-text": ("folner", "--lambda-z", files["lamz.json"], "--f", "kl",
                                     "--a-values", "x"),
            "folner-a-values-empty": ("folner", "--lambda-z", files["lamz.json"], "--f", "kl",
                                      "--a-values", ","),
            "folner-max-level-negative": ("folner", "--lambda-z", files["lamz.json"],
                                          "--f", "kl", "--a-values", "0.5",
                                          "--max-level", "-1"),
            "vp-pow-text": ("vp", "--g", "pow:abc", "--M", "10"),
            "vp-pow-nan": ("vp", "--g", "pow:nan", "--M", "10"),
            "vp-pow-inf": ("vp", "--g", "pow:inf", "--M", "10"),
            "scan-zero-fraction-nan": scan + ("--zero-fraction", "nan"),
            "scan-zero-fraction-2": scan + ("--zero-fraction", "2"),
            "scan-uniform-tail-fraction-nan": scan + ("--uniform-tail-fraction", "nan"),
            "tinv-power-24": ("tinv", "--lambda", files["uniform2.json"], "--f", "power:24"),
            "entropy-power-24": ("entropy", "--lambda", files["uniform2.json"],
                                 "--f", "power:24"),
            "gradient-power-24": ("gradient", "--lambda", files["uniform2.json"],
                                  "--f", "power:24", "--depth", "2"),
            "scan-power-30": ("scan", "--lambda", files["uniform2.json"], "--f", "power:30",
                              "--depth", "2", "--samples", "10", "--seed", "1"),
            "tmap-power-1000": ("tmap", "--mu", files["uniform2.json"], "--f", "power:1000"),
            "tmap-power-minus-1000": ("tmap", "--mu", files["uniform2.json"],
                                      "--f", "power:-1000"),
            "abel-a-nan": ("abel", "--sigma", files["sigmaz.json"], "--t", "-1", "--r", "0",
                           "--a", "nan"),
            "abel-identity-a-nan": ("abel-identity", "--sigma", files["sigmaz.json"],
                                    "--t", "0", "--a", "nan"),
            "folner-a-values-nan": ("folner", "--lambda-z", files["lamz.json"], "--f", "kl",
                                    "--a-values", "nan"),
            "vp-M-nan": ("vp", "--g", "tlogt", "--M", "nan"),
            "split-C-nan": ("split", "--function", files["fn.json"], "--rho",
                            files["rho.json"], "--C", "nan"),
        }[case]
        r = run_cli(*args)
        assert r.returncode == 2, (r.returncode, r.stdout)
        assert "error" in json.loads(r.stderr)

    def test_scalar_subcommands_load_no_numpy(self, files):
        script = ("import json, sys\n"
                  "from fentropy import cli\n"
                  "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
                  "print(json.dumps([codes, 'numpy' in sys.modules]))\n")
        argvs = [["solve-q", "--mu", files["asym.json"]],
                 ["harmonic", "--mu", files["asym.json"], "--depth", "3"],
                 ["tmap", "--mu", files["asym.json"], "--f", "chi2"],
                 ["tinv", "--lambda", files["asym.json"], "--f", "kl"]]
        r = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert len(lines) == 5 and json.loads(lines[-1]) == [[0, 0, 0, 0], False]

    def test_gauge_subcommands_load_no_free_group_modules(self, files):
        script = ("import json, sys\n"
                  "from fentropy import cli\n"
                  "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
                  "loaded = [m for m in ('fentropy.free_boundary', 'fentropy.words')\n"
                  "          if m in sys.modules]\n"
                  "print(json.dumps([codes, loaded]))\n")
        subs = ["vp", "rho-norm", "rho-ac", "envelope", "split"]
        argvs = [list(_smoke_argv(files)[sub]) for sub in subs]
        r = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert len(lines) == len(subs) + 1 and json.loads(lines[-1]) == [[0] * len(subs), []]

    def test_parser_defaults_mirror_the_library(self):
        from fentropy.free_boundary import (Q_RESIDUAL_TOL, entropy_gradient_at_harmonic,
                                            minimality_scan, t_inverse)

        def parsed(*argv):
            return vars(cli.build_parser().parse_args(list(argv)))

        def library(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert parsed("solve-q", "--mu", "m.json")["tol"] == Q_RESIDUAL_TOL
        assert parsed("tinv", "--lambda", "l.json", "--f", "kl")["tol"] == library(t_inverse,
                                                                                   "tol")
        scan = parsed("scan", "--lambda", "l.json", "--f", "kl", "--depth", "2",
                      "--samples", "1", "--seed", "0")
        for name in ("zero_fraction", "uniform_tail_fraction"):
            assert scan[name] == library(minimality_scan, name)
        gradient = parsed("gradient", "--lambda", "l.json", "--f", "kl", "--depth", "2")
        assert gradient["h_step"] == library(entropy_gradient_at_harmonic, "h_step")

    def test_import_leaves_scipy_out(self):
        code = ("import sys, fentropy.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0 and r.stdout.strip() == "[]"

    def test_budget_exit_code(self, files):
        r = run_cli("abel", "--sigma", files["sigmaz.json"], "--t", "-1",
                    "--r", "0", "--a", "0.999999", "--eps", "1e-12")
        assert r.returncode == 3

    @pytest.mark.parametrize("sub", ["harmonic", "entropy", "scan", "gradient",
                                     "walk-boundary"])
    def test_depth_past_the_element_budget_exit_code(self, files, sub):
        """4 * 3^39 depth-40 cylinders of F_2 raise before any word is built."""
        mu, lam = ("--mu", files["uniform2.json"]), ("--lambda", files["uniform2.json"])
        args = {
            "harmonic": ("harmonic", *mu),
            "entropy": ("entropy", *lam, "--f", "kl"),
            "scan": ("scan", *lam, "--f", "kl", "--samples", "10", "--seed", "1"),
            "gradient": ("gradient", *lam, "--f", "kl"),
            "walk-boundary": ("walk-boundary", *mu, "--steps", "160", "--trajectories", "10",
                              "--seed", "1"),
        }[sub]
        r = run_cli(*args, "--depth", "40")
        assert r.returncode == 3, (r.returncode, r.stderr)
        assert json.loads(r.stderr)["error"] == "BudgetExceeded"

    @pytest.mark.parametrize("sub", ["walk-boundary", "walk-sample", "walk-sample-f2", "folner",
                                     "folner-22"])
    def test_arrays_past_the_budget_exit_code(self, files, sub):
        """A sampling block past the element budget, an F_2 trajectory whose words
        outgrow it, or Folner levels past their cap, raise before anything is
        allocated. The child runs under a 3 GiB
        address-space limit, so an allocation that slipped through fails there
        instead of taking the machine's memory."""
        args = {
            "walk-boundary": ("walk-boundary", "--mu", files["uniform2.json"],
                              "--steps", "1000000000", "--trajectories", "10", "--seed", "1",
                              "--depth", "1"),
            "walk-sample": ("walk-sample", "--sigma", files["sigmaz.json"],
                            "--steps", "100000000", "--seed", "1"),
            "walk-sample-f2": ("walk-sample", "--sigma", files["sigma.json"],
                               "--steps", "1000000", "--seed", "1"),
            "folner": ("folner", "--lambda-z", files["lamz.json"], "--f", "kl",
                       "--a-values", "0.99", "--max-level", "30"),
            "folner-22": ("folner", "--lambda-z", files["lamz.json"], "--f", "kl",
                          "--a-values", "0.99", "--max-level", "22"),
        }[sub]

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        r = subprocess.run([sys.executable, "-m", "fentropy.cli", *args], capture_output=True,
                           text=True, preexec_fn=limit, timeout=120,
                           env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        assert r.returncode == 3, (r.returncode, r.stderr)
        assert json.loads(r.stderr)["error"] == "BudgetExceeded"

    def test_int64_overflow_exit_code(self, files):
        sigma = os.path.join(files["dir"], "far.json")
        with open(sigma, "w") as fh:
            json.dump(StochasticSequence(GroupSpec("int"), [1], [[[{2**61: 1.0}]]]).to_json(), fh)
        r = run_cli("walk-exact", "--sigma", sigma, "--level", "3")
        assert r.returncode == 3
        assert json.loads(r.stderr)["error"] == "BudgetExceeded"

    def test_vp_huge_power(self):
        r = run_cli("vp", "--g", "pow:1e308", "--M", "10")
        assert r.returncode == 0, r.stderr
        res = json.loads(r.stdout)["results"]
        assert res["K"] == pytest.approx(1.0) and res["rho"]["kind"] == "power"

    def test_csv_folner(self, files):
        r = run_cli("--csv", "folner", "--lambda-z", files["lamz.json"],
                    "--f", "kl", "--a-values", "0.5,0.7,0.9",
                    "--max-level", "6")
        lines = r.stdout.strip().split("\n")
        assert len(lines) == 4 and lines[0].startswith("a,")

    def test_write_then_rename(self, files):
        out = os.path.join(files["dir"], "report.json")
        r = run_cli("solve-q", "--mu", files["uniform2.json"], "--out", out)
        assert r.returncode == 0 and r.stdout == ""
        assert os.path.exists(out) and not os.path.exists(out + ".tmp")
        json.loads(open(out).read())

    def test_byte_identical_reruns(self, files):
        """Two runs of one seeded scan print the same bytes."""
        args = ("scan", "--lambda", files["uniform2.json"], "--f", "kl",
                "--depth", "2", "--samples", "200", "--seed", "7")
        r1 = run_cli(*args)
        r2 = run_cli(*args)
        assert r1.stdout == r2.stdout and r1.returncode == 0

    def test_timing_flag_is_opt_in(self, files):
        r = run_cli("solve-q", "--mu", files["uniform2.json"])
        assert "wall_clock_seconds" not in json.loads(r.stdout)
        r2 = run_cli("--timing", "solve-q", "--mu", files["uniform2.json"])
        assert "wall_clock_seconds" in json.loads(r2.stdout)


class TestVpInProcess:
    """`vp` run in this process, so that a RuntimeWarning fails the test."""

    @pytest.mark.parametrize("g, M, results", [
        ("pow:1e308", "10", '{"K":1,"rho":{"kind":"power","q":1}}'),
        ("pow:2", "4", '{"K":2,"rho":{"kind":"power","q":2}}'),
        ("pow:3", "1.7",
         '{"K":1.1934831919272773,"rho":{"kind":"power","q":1.5000000000003533}}'),
    ])
    def test_power_reports(self, g, M, results):
        code, payload = cli.run(["vp", "--g", g, "--M", M])
        assert code == 0
        assert cli.canonical_json(json.loads(payload)["results"]) == results


def _smoke_argv(files):
    """One small valid invocation of every subcommand."""
    d = files["dir"]

    def w(name, doc):
        path = os.path.join(d, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    h = w("h.json", poisson_transform_cylinder(uniform_generator_measure(2), (1,), 1)
          .to_json(GroupSpec("free", 2)))
    m = w("m.json", {"atoms": {"a": 0.2, "b": 0.3, "c": 0.5}})
    nu = w("nu.json", {"atoms": {"a": 0.3, "b": 0.3, "c": 0.4}})
    samples = w("samples.json", [[0, 0], [0.25, 0.6], [0.5, 0.7], [1, 1]])
    mu, lam, sigma = files["asym.json"], files["uniform2.json"], files["sigma.json"]
    return {
        "solve-q": ("solve-q", "--mu", mu),
        "harmonic": ("harmonic", "--mu", mu, "--depth", "2"),
        "entropy": ("entropy", "--lambda", mu, "--f", "power:0.5", "--depth", "2"),
        "tmap": ("tmap", "--mu", mu, "--f", "chi2"),
        "tinv": ("tinv", "--lambda", mu, "--f", "kl"),
        "scan": ("scan", "--lambda", lam, "--f", "kl", "--depth", "2", "--samples", "50",
                 "--seed", "3"),
        "gradient": ("gradient", "--lambda", mu, "--f", "kl", "--depth", "2"),
        "validate-sigma": ("validate-sigma", "--sigma", sigma),
        "walk-exact": ("walk-exact", "--sigma", sigma, "--level", "3"),
        "walk-sample": ("walk-sample", "--sigma", sigma, "--steps", "5", "--seed", "1"),
        "walk-boundary": ("walk-boundary", "--mu", mu, "--steps", "20",
                          "--trajectories", "100", "--seed", "2", "--depth", "1"),
        "harmonic-check": ("harmonic-check", "--sigma", sigma, "--h", h, "--levels", "1:1"),
        "abel": ("abel", "--sigma", files["sigmaz.json"], "--t", "-1", "--r", "0",
                 "--a", "0.5"),
        "abel-identity": ("abel-identity", "--sigma", files["sigmaz.json"], "--t", "0",
                          "--a", "0.5"),
        "folner": ("folner", "--lambda-z", files["lamz.json"], "--f", "kl",
                   "--a-values", "0.5,0.9", "--max-level", "6"),
        "rho-norm": ("rho-norm", "--function", files["fn.json"], "--rho", files["rho.json"]),
        "rho-ac": ("rho-ac", "--m", m, "--nu", nu, "--rho", files["rho.json"]),
        "envelope": ("envelope", "--samples", samples),
        "vp": ("vp", "--g", "tlogt", "--M", "2"),
        "split": ("split", "--function", files["fn.json"], "--rho", files["rho.json"],
                  "--C", "1"),
    }


@pytest.mark.parametrize("sub", list(cli.SUBCOMMANDS))
def test_fresh_process_matches_in_process(files, sub):
    """Each subcommand in its own interpreter, which imports only what the
    handler imports: a missing handler-local import fails here."""
    argv = _smoke_argv(files)[sub]
    r = run_cli(*argv)
    assert r.returncode == 0, r.stderr
    code, payload = cli.run(list(argv))
    assert code == 0 and r.stdout == payload


# --- walk reports against recorded outputs ---------------------------------

def _z_sigma(ell, matrices, beyond="hold-last"):
    return {"group": {"kind": "int"}, "ell": ell, "beyond": beyond, "matrices": [
        [[[{"elem": str(x), "mass": m} for x, m in cell] for cell in row] for row in mat]
        for mat in matrices]}


def _f_sigma(d, masses):
    """The constant walk on F_d with one-letter steps of the given masses."""
    return {"group": {"kind": "free", "d": d}, "ell": [1], "beyond": "hold-last", "matrices": [
        [[[{"elem": str(j), "mass": m} for j, m in masses]]]]}


WALK_SIGMAS = {
    "coin": _z_sigma([1], [[[[(-1, 0.5), (1, 0.5)]]]]),
    # two sheets; the cell (1, 1) of the repeated matrix holds a zero mass
    "sheets": _z_sigma([2, 2], [
        [[[(-1, 0.1), (0, 0.15), (1, 0.05)], [(-1, 0.2), (0, 0.3), (2, 0.2)]]],
        [[[(-1, 0.25), (1, 0.25)], [(0, 0.3), (1, 0.2), (3, 0.0)]],
         [[(-2, 0.1), (0, 0.1), (1, 0.2)], [(-1, 0.35), (1, 0.25)]]]]),
    # its levels span 10^12 keys: the walk stays on sorted keys
    "wide": _z_sigma([1], [[[[(0, 0.5), (10**12, 0.5)]]]]),
    "up": _z_sigma([1], [[[[(2**61, 1.0)]]]]),
    "f2": _f_sigma(2, [(-2, 0.1), (-1, 0.3), (1, 0.4), (2, 0.2)]),
    "f3": _f_sigma(3, [(-3, 0.05), (-2, 0.15), (-1, 0.2), (1, 0.25), (2, 0.15), (3, 0.2)]),
    # matrices 1 and 2 repeat past the horizon in turn
    "cycle1": _z_sigma([1, 1, 1], [[[[(-1, 0.5), (1, 0.5)]]], [[[(0, 0.3), (2, 0.7)]]],
                                   [[[(-3, 0.6), (1, 0.4)]]]], beyond="cycle"),
    "cycle2": _z_sigma([2, 2, 2], [
        [[[(0, 0.5)], [(1, 0.5)]]],
        [[[(-1, 0.3), (1, 0.2)], [(2, 0.5)]], [[(0, 0.6)], [(-2, 0.2), (5, 0.2)]]],
        [[[(1, 0.7)], [(-1, 0.3)]], [[(3, 0.1), (-3, 0.4)], [(0, 0.5)]]]], beyond="cycle"),
}

# (sigma, argv without --sigma, exit code, stdout, stderr), as printed by the
# sorting-step implementation of the Z walks, and on F_d as printed before every
# sparse level went through one (sheet, key) reducer; the reports must keep
# these bytes
WALK_REPORTS = [
    ('coin', ['walk-exact', '--level', '6'], 0,
     ('{"command":"walk-exact","config":{"command":"walk-exact","level":6,"si'
      'gma":"sigma.json"},"results":{"entries":{"0|-1":0.2734375,"0|-3":0.164'
      '0625,"0|-5":0.0546875,"0|-7":0.0078125,"0|1":0.2734375,"0|3":0.1640625'
      ',"0|5":0.0546875,"0|7":0.0078125},"level":6,"total":1},"version":"0.1.'
      '0"}\n'),
     ''),
    ('sheets', ['walk-exact', '--level', '5'], 0,
     ('{"command":"walk-exact","config":{"command":"walk-exact","level":5,"si'
      'gma":"sigma.json"},"results":{"entries":{"0|-1":0.058527593750000009,"'
      '0|-2":0.049390953125000005,"0|-3":0.028597296875000004,"0|-4":0.020175'
      '046875000002,"0|-5":0.0082829843750000017,"0|-6":0.0034350937500000002'
      ',"0|-7":0.0014161249999999998,"0|0":0.067997718750000005,"0|1":0.06745'
      '396875000001,"0|10":0,"0|11":0,"0|2":0.054660250000000007,"0|3":0.0425'
      '41421875000006,"0|4":0.022922484375000003,"0|5":0.013556859375000001,"'
      '0|6":0.0036399531250000004,"0|7":0.0018452500000000005,"0|8":0,"0|9":0'
      ',"1|-1":0.082132500000000011,"1|-2":0.054472937500000006,"1|-3":0.0411'
      '47562500000005,"1|-4":0.018808468750000005,"1|-5":0.008686093749999998'
      '5,"1|-6":0.0032659374999999997,"1|0":0.085184187500000008,"1|1":0.0884'
      '17875000000007,"1|10":0,"1|11":0,"1|12":0,"1|2":0.070767812499999999,"'
      '1|3":0.05205459375000001,"1|4":0.029053843750000002,"1|5":0.0151585625'
      '00000002,"1|6":0.0045613125000000011,"1|7":0.0018453125000000006,"1|8"'
      ':0,"1|9":0},"level":5,"total":1},"version":"0.1.0"}\n'),
     ''),
    ('wide', ['walk-exact', '--level', '3'], 0,
     ('{"command":"walk-exact","config":{"command":"walk-exact","level":3,"si'
      'gma":"sigma.json"},"results":{"entries":{"0|0":0.0625,"0|1000000000000'
      '":0.25,"0|2000000000000":0.375,"0|3000000000000":0.25,"0|4000000000000'
      '":0.0625},"level":3,"total":1},"version":"0.1.0"}\n'),
     ''),
    ('up', ['walk-exact', '--level', '3'], 3,
     '',
     ('{"error":"BudgetExceeded","message":"a Z element leaves the int64 key '
      'range"}\n')),
    ('coin', ['abel', '--t', '0', '--r', '0', '--a', '0.5', '--eps', '0.01'], 0,
     ('{"command":"abel","config":{"K":0,"a":0.5,"command":"abel","eps":0.01,'
      '"r":0,"sigma":"sigma.json","t":0},"results":{"K":0,"N":7,"a":0.5,"entr'
      'ies":{"1|0|-1":0.25,"1|0|1":0.25,"2|0|-2":0.0625,"2|0|0":0.125,"2|0|2"'
      ':0.0625,"3|0|-1":0.046875,"3|0|-3":0.015625,"3|0|1":0.046875,"3|0|3":0'
      '.015625,"4|0|-2":0.015625,"4|0|-4":0.00390625,"4|0|0":0.0234375,"4|0|2'
      '":0.015625,"4|0|4":0.00390625,"5|0|-1":0.009765625,"5|0|-3":0.00488281'
      '25,"5|0|-5":0.0009765625,"5|0|1":0.009765625,"5|0|3":0.0048828125,"5|0'
      '|5":0.0009765625,"6|0|-2":0.003662109375,"6|0|-4":0.00146484375,"6|0|-'
      '6":0.000244140625,"6|0|0":0.0048828125,"6|0|2":0.003662109375,"6|0|4":'
      '0.00146484375,"6|0|6":0.000244140625,"7|0|-1":0.00213623046875,"7|0|-3'
      '":0.00128173828125,"7|0|-5":0.00042724609375,"7|0|-7":6.103515625e-05,'
      '"7|0|1":0.00213623046875,"7|0|3":0.00128173828125,"7|0|5":0.0004272460'
      '9375,"7|0|7":6.103515625e-05},"r":0,"stored_total":0.9921875,"t":0,"ta'
      'il_mass":0.0078125},"version":"0.1.0"}\n'),
     ''),
    ('sheets', ['abel', '--t', '0', '--r', '1', '--a', '0.3', '--eps', '0.01'], 0,
     ('{"command":"abel","config":{"K":0,"a":0.29999999999999999,"command":"a'
      'bel","eps":0.01,"r":1,"sigma":"sigma.json","t":0},"results":{"K":0,"N"'
      ':4,"a":0.29999999999999999,"entries":{"1|0|-2":0.069999999999999993,"1'
      '|0|0":0.069999999999999993,"1|0|1":0.13999999999999999,"1|1|-1":0.2449'
      '9999999999997,"1|1|1":0.17499999999999999,"2|0|-1":0.02310000000000000'
      '2,"2|0|-3":0.012599999999999998,"2|0|0":0.025199999999999997,"2|0|1":0'
      '.010500000000000001,"2|0|2":0.021000000000000001,"2|1|-1":0.0042000000'
      '000000006,"2|1|-2":0.032024999999999991,"2|1|0":0.043049999999999998,"'
      '2|1|1":0.016799999999999999,"2|1|2":0.021525000000000002,"2|1|3":0,"2|'
      '1|4":0,"3|0|-1":0.0044414999999999993,"3|0|-2":0.0049297500000000001,"'
      '3|0|-3":0.00012600000000000003,"3|0|-4":0.0019057499999999999,"3|0|0":'
      '0.0047092500000000008,"3|0|1":0.0065520000000000005,"3|0|2":0.00244125'
      '00000000003,"3|0|3":0.0028665000000000006,"3|0|4":0,"3|0|5":0,"3|1|-1"'
      ':0.0090011249999999987,"3|1|-2":0.0011970000000000001,"3|1|-3":0.00449'
      '66249999999989,"3|1|0":0.0057330000000000002,"3|1|1":0.007945874999999'
      '9998,"3|1|2":0.0037799999999999999,"3|1|3":0.0028743750000000002,"3|1|'
      '4":0,"3|1|5":0,"4|0|-1":0.0013031549999999996,"4|0|-2":0.0008202599999'
      '9999974,"4|0|-3":0.00091759499999999978,"4|0|-4":4.5360000000000006e-0'
      '5,"4|0|-5":0.00027782999999999991,"4|0|0":0.0016499699999999995,"4|0|1'
      '":0.0012048749999999998,"4|0|2":0.0012965399999999997,"4|0|3":0.000496'
      '12499999999993,"4|0|4":0.00038745000000000001,"4|0|5":0,"4|0|6":0,"4|1'
      '|-1":0.0013872599999999995,"4|1|-2":0.0017336024999999992,"4|1|-3":0.0'
      '0025136999999999995,"4|1|-4":0.00064366312499999976,"4|1|0":0.00219972'
      '37499999994,"4|1|1":0.0016991099999999998,"4|1|2":0.001510582499999999'
      '6,"4|1|3":0.00068795999999999994,"4|1|4":0.00038756812500000002,"4|1|5'
      '":0,"4|1|6":0,"4|1|7":0,"4|1|8":0},"r":1,"stored_total":0.991899999999'
      '99989,"t":0,"tail_mass":0.0080999999999999996},"version":"0.1.0"}\n'),
     ''),
    ('wide', ['abel', '--t', '-1', '--r', '0', '--a', '0.5', '--eps', '0.05'], 0,
     ('{"command":"abel","config":{"K":0,"a":0.5,"command":"abel","eps":0.050'
      '000000000000003,"r":0,"sigma":"sigma.json","t":-1},"results":{"K":0,"N'
      '":4,"a":0.5,"entries":{"0|0|0":0.25,"0|0|1000000000000":0.25,"1|0|0":0'
      '.0625,"1|0|1000000000000":0.125,"1|0|2000000000000":0.0625,"2|0|0":0.0'
      '15625,"2|0|1000000000000":0.046875,"2|0|2000000000000":0.046875,"2|0|3'
      '000000000000":0.015625,"3|0|0":0.00390625,"3|0|1000000000000":0.015625'
      ',"3|0|2000000000000":0.0234375,"3|0|3000000000000":0.015625,"3|0|40000'
      '00000000":0.00390625,"4|0|0":0.0009765625,"4|0|1000000000000":0.004882'
      '8125,"4|0|2000000000000":0.009765625,"4|0|3000000000000":0.009765625,"'
      '4|0|4000000000000":0.0048828125,"4|0|5000000000000":0.0009765625},"r":'
      '0,"stored_total":0.96875,"t":-1,"tail_mass":0.03125},"version":"0.1.0"'
      '}\n'),
     ''),
    ('coin', ['abel-identity', '--t', '1', '--a', '0.3'], 0,
     ('{"command":"abel-identity","config":{"K":0,"a":0.29999999999999999,"co'
      'mmand":"abel-identity","eps":1e-10,"sigma":"sigma.json","t":1},"result'
      's":{"max_residual":8.6736173798840355e-19},"version":"0.1.0"}\n'),
     ''),
    ('sheets', ['abel-identity', '--t', '1', '--a', '0.3'], 0,
     ('{"command":"abel-identity","config":{"K":0,"a":0.29999999999999999,"co'
      'mmand":"abel-identity","eps":1e-10,"sigma":"sigma.json","t":1},"result'
      's":{"max_residual":2.7755575615628914e-17},"version":"0.1.0"}\n'),
     ''),
    ('sheets', ['abel-identity', '--t', '2', '--a', '0.7', '--K', '1'], 0,
     ('{"command":"abel-identity","config":{"K":1,"a":0.69999999999999996,"co'
      'mmand":"abel-identity","eps":1e-10,"sigma":"sigma.json","t":2},"result'
      's":{"max_residual":1.3877787807814457e-17},"version":"0.1.0"}\n'),
     ''),
    ('wide', ['abel-identity', '--t', '0', '--a', '0.5'], 0,
     ('{"command":"abel-identity","config":{"K":0,"a":0.5,"command":"abel-ide'
      'ntity","eps":1e-10,"sigma":"sigma.json","t":0},"results":{"max_residua'
      'l":0},"version":"0.1.0"}\n'),
     ''),
    ('f2', ['walk-exact', '--level', '2'], 0,
     ('{"command":"walk-exact","config":{"command":"walk-exact","level":2,"sig'
      'ma":"sigma.json"},"results":{"entries":{"0|-1":0.13200000000000001,"0|-'
      '1,-1,-1":0.027,"0|-1,-1,-2":0.0089999999999999993,"0|-1,-1,2":0.0179999'
      '99999999999,"0|-1,-2,-1":0.0089999999999999993,"0|-1,-2,-2":0.003000000'
      '0000000001,"0|-1,-2,1":0.012,"0|-1,2,-1":0.017999999999999999,"0|-1,2,1'
      '":0.024,"0|-1,2,2":0.012,"0|-2":0.054000000000000006,"0|-2,-1,-1":0.008'
      '9999999999999993,"0|-2,-1,-2":0.0030000000000000001,"0|-2,-1,2":0.00600'
      '00000000000001,"0|-2,-2,-1":0.0030000000000000005,"0|-2,-2,-2":0.001000'
      '0000000000002,"0|-2,-2,1":0.004000000000000001,"0|-2,1,-2":0.0040000000'
      '00000001,"0|-2,1,1":0.016000000000000004,"0|-2,1,2":0.00800000000000000'
      '19,"0|1":0.17600000000000005,"0|1,-2,-1":0.012000000000000002,"0|1,-2,-'
      '2":0.004000000000000001,"0|1,-2,1":0.016000000000000004,"0|1,1,-2":0.01'
      '6000000000000004,"0|1,1,1":0.064000000000000015,"0|1,1,2":0.03200000000'
      '0000008,"0|1,2,-1":0.024000000000000004,"0|1,2,1":0.032000000000000008,'
      '"0|1,2,2":0.016000000000000004,"0|2":0.10800000000000001,"0|2,-1,-1":0.'
      '017999999999999999,"0|2,-1,-2":0.0060000000000000001,"0|2,-1,2":0.012,"'
      '0|2,1,-2":0.0080000000000000019,"0|2,1,1":0.032000000000000008,"0|2,1,2'
      '":0.016000000000000004,"0|2,2,-1":0.012000000000000002,"0|2,2,1":0.0160'
      '00000000000004,"0|2,2,2":0.0080000000000000019},"level":2,"total":1.000'
      '0000000000002},"version":"0.1.0"}\n'),
     ''),
    ('f3', ['walk-exact', '--level', '1'], 0,
     ('{"command":"walk-exact","config":{"command":"walk-exact","level":1,"sig'
      'ma":"sigma.json"},"results":{"entries":{"0|":0.16500000000000001,"0|-1,'
      '-1":0.040000000000000008,"0|-1,-2":0.029999999999999999,"0|-1,-3":0.010'
      '000000000000002,"0|-1,2":0.029999999999999999,"0|-1,3":0.04000000000000'
      '0008,"0|-2,-1":0.029999999999999999,"0|-2,-2":0.022499999999999999,"0|-'
      '2,-3":0.0074999999999999997,"0|-2,1":0.037499999999999999,"0|-2,3":0.02'
      '9999999999999999,"0|-3,-1":0.010000000000000002,"0|-3,-2":0.00749999999'
      '99999997,"0|-3,-3":0.0025000000000000005,"0|-3,1":0.012500000000000001,'
      '"0|-3,2":0.0074999999999999997,"0|1,-2":0.037499999999999999,"0|1,-3":0'
      '.012500000000000001,"0|1,1":0.0625,"0|1,2":0.037499999999999999,"0|1,3"'
      ':0.050000000000000003,"0|2,-1":0.029999999999999999,"0|2,-3":0.00749999'
      '99999999997,"0|2,1":0.037499999999999999,"0|2,2":0.022499999999999999,"'
      '0|2,3":0.029999999999999999,"0|3,-1":0.040000000000000008,"0|3,-2":0.02'
      '9999999999999999,"0|3,1":0.050000000000000003,"0|3,2":0.029999999999999'
      '999,"0|3,3":0.040000000000000008},"level":1,"total":1},"version":"0.1.0'
      '"}\n'),
     ''),
    ('f2', ['abel', '--t', '0', '--r', '0', '--a', '0.5', '--eps', '0.3'], 0,
     ('{"command":"abel","config":{"K":0,"a":0.5,"command":"abel","eps":0.2999'
      '9999999999999,"r":0,"sigma":"sigma.json","t":0},"results":{"K":0,"N":2,'
      '"a":0.5,"entries":{"1|0|-1":0.14999999999999999,"1|0|-2":0.050000000000'
      '000003,"1|0|1":0.20000000000000001,"1|0|2":0.10000000000000001,"2|0|":0'
      '.070000000000000007,"2|0|-1,-1":0.022499999999999999,"2|0|-1,-2":0.0074'
      '999999999999997,"2|0|-1,2":0.014999999999999999,"2|0|-2,-1":0.007499999'
      '9999999997,"2|0|-2,-2":0.0025000000000000005,"2|0|-2,1":0.0100000000000'
      '00002,"2|0|1,-2":0.010000000000000002,"2|0|1,1":0.040000000000000008,"2'
      '|0|1,2":0.020000000000000004,"2|0|2,-1":0.014999999999999999,"2|0|2,1":'
      '0.020000000000000004,"2|0|2,2":0.010000000000000002},"r":0,"stored_tota'
      'l":0.75,"t":0,"tail_mass":0.25},"version":"0.1.0"}\n'),
     ''),
    ('f2', ['abel-identity', '--t', '1', '--a', '0.3', '--eps', '1e-2'], 0,
     ('{"command":"abel-identity","config":{"K":0,"a":0.29999999999999999,"com'
      'mand":"abel-identity","eps":0.01,"sigma":"sigma.json","t":1},"results":'
      '{"max_residual":2.7755575615628914e-17},"version":"0.1.0"}\n'),
     ''),
    ('f2', ['abel-identity', '--t', '0', '--a', '0.5', '--K', '1', '--eps', '1e-3'], 0,
     ('{"command":"abel-identity","config":{"K":1,"a":0.5,"command":"abel-iden'
      'tity","eps":0.001,"sigma":"sigma.json","t":0},"results":{"max_residual"'
      ':1.7347234759768071e-18},"version":"0.1.0"}\n'),
     ''),
]


@pytest.mark.parametrize("name, argv, code, stdout, stderr", WALK_REPORTS,
                         ids=[f"{r[1][0]}-{r[0]}-{i}" for i, r in enumerate(WALK_REPORTS)])
def test_walk_reports_match_recorded(tmp_path, name, argv, code, stdout, stderr):
    # the report echoes the --sigma path, so the file is named relative to the run's cwd
    (tmp_path / "sigma.json").write_text(json.dumps(WALK_SIGMAS[name]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    r = subprocess.run([sys.executable, "-m", "fentropy.cli", argv[0], "--sigma", "sigma.json",
                        *argv[1:]], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert (r.returncode, r.stdout, r.stderr) == (code, stdout, stderr)


# (sigma, --steps, sha256 of the walk-sample report with --seed 7), as printed
# when sample_trajectory had a scalar loop of its own; the one-row draw of the
# shared level loop must print the same bytes
WALK_SAMPLE_REPORTS = [
    ('coin', 1, 'dd64aa1e36d06949462295feb10f88401d170db41091603e705247cc010d5e39'),
    ('coin', 12, '59f8bd590606ba324ecc1586788858123e84c097484391194577fd8fb68b1448'),
    ('coin', 200, 'e5c9e32e4ceb24fccc7c76d7956a2165aa43b782758fcebe21373912b1435f2f'),
    ('sheets', 1, 'af330af7cff6dab402277d7919ef15cbaa6448edcffcb164b3c76079d843fe20'),
    ('sheets', 12, 'd59b368ac7ecea9378e8227fd117e993a2e03d70ea520530b2c736e96c99eefc'),
    ('sheets', 200, '44265fd17a7927135a4db20c7cec0500c9a3a2e286efd3617bbb7b2d0e9fef86'),
    ('cycle1', 1, '07c751d926bbc1b0a97665c63078d96eaef9b7010e825313de0d7e9e899863c8'),
    ('cycle1', 12, 'e8caca27919ff084e2ae3a39613d65cd1290a7f6de7dc16dc53f8631a52c8f87'),
    ('cycle1', 200, 'ed4014ccea775bfd4193c762bcd21f595ae393a8c93ea149a9ab7f301302e546'),
    ('cycle2', 1, '451885839f6d4deea0e9892f3b56abe824f99e055d8e365e406d2ce2eea8ba48'),
    ('cycle2', 12, 'b1bd8b9665a68375cef3b48c91153739aea77379776060cae5d011dccc51fd6a'),
    ('cycle2', 200, '6967e58906240c64057ff2257940c421f5c3ef2e6ab60288727107fac20810c2'),
    ('f2', 1, 'ce31c77897117ffe1dfee2d46dad8a9645acbd7acdc09e76266d39bbec0e0f52'),
    ('f2', 12, '212ab89347f66e22b8aae008f0eb14e1ca8ea43d21eba9c68ea86422e1807d6d'),
    ('f2', 200, '7afe6743f2f24f0010c25de69719aa041e6f00996bc4c329d3e60e625924d978'),
    ('f3', 1, 'a6b3729d3017ddbb2690c99b81efd0b75449376d4b648ddc128bb081f5238988'),
    ('f3', 12, 'cbd0c8acc66a8b3b4ea3dccfa6c7c1de4e7b6ec072fbfee27cd27de7829d72e9'),
    ('f3', 200, '875d54ce7b5792d3748f97c56a9be513d4c12061817e9894b816e8fd1e31338e'),
]


@pytest.mark.parametrize("name, steps, digest", WALK_SAMPLE_REPORTS,
                         ids=[f"{r[0]}-{r[1]}" for r in WALK_SAMPLE_REPORTS])
def test_walk_sample_reports_match_recorded(tmp_path, monkeypatch, name, steps, digest):
    # the report echoes the --sigma path, so the file is named relative to the cwd
    (tmp_path / "sigma.json").write_text(json.dumps(WALK_SIGMAS[name]))
    monkeypatch.chdir(tmp_path)
    code, payload = cli.run(["walk-sample", "--sigma", "sigma.json", "--steps", str(steps),
                             "--seed", "7"])
    assert code == 0 and hashlib.sha256(payload.encode()).hexdigest() == digest



FOLNER_LAMBDAS = {"pair": {"atoms": {"-1": 0.5, "1": 0.5}},
                  "three": {"atoms": {"-2": 0.3, "1": 0.5, "3": 0.2}}}

# (lambda, --f, --a-values, --eps, --max-level, sha256 of the folner report), as
# printed when each a value built its own rho_0..rho_N; the a values below take
# different truncation levels, and --max-level caps some of them below eps's
FOLNER_REPORTS = [
    ('pair', 'kl', '0.2,0.5,0.8', '1e-3', '12',
     'e99a9783d80520b4ea95b759f70a155bc1852b495649945a1d15f95cdea5c917'),
    ('three', 'chi2', '0.6,0.1,0.95', '1e-4', '10',
     'c49f8f6d1868c21a6e87b5cb067dd717b37947e495532fce4b0128e830da1cc0'),
    ('three', 'kl', '0.9,0.3', '1e-6', '5',
     '33a9aef4c1eeedd12e1ae045540cd05995dff1a557757a32492c89799370d03d'),
    ('pair', 'chi2', '0.5', '1e-2', '0',
     '139c7cfd8bc3be7853ae8b5390815cb08d6d0f06f78c10f3154407b3e6518b76'),
    ('pair', 'power:1.5', '0.05,0.7,0.7', '1e-8', '14',
     '1a16e5afb963fff2faf046a39476a0a487f62579be7d5aaa766e137ed6a8e2fb'),
]


@pytest.mark.parametrize("lam, f, a_values, eps, max_level, digest", FOLNER_REPORTS,
                         ids=[f"{r[0]}-{r[1]}-{r[4]}" for r in FOLNER_REPORTS])
def test_folner_reports_match_recorded(tmp_path, monkeypatch, lam, f, a_values, eps, max_level,
                                       digest):
    # the report echoes the --lambda-z path, so the file is named relative to the cwd
    (tmp_path / "lambda.json").write_text(json.dumps(FOLNER_LAMBDAS[lam]))
    monkeypatch.chdir(tmp_path)
    code, payload = cli.run(["folner", "--lambda-z", "lambda.json", "--f", f, "--a-values",
                             a_values, "--eps", eps, "--max-level", max_level])
    assert code == 0 and hashlib.sha256(payload.encode()).hexdigest() == digest

# --- scan reports against recorded outputs ---------------------------------

SCAN_LAMBDAS = {
    "uniform2": {"d": 2, "p": {"1": 0.25, "-1": 0.25, "2": 0.25, "-2": 0.25}},
    "asym2": {"d": 2, "p": {"1": 0.4, "-1": 0.4, "2": 0.1, "-2": 0.1}},
    "asym3": {"d": 3, "p": {"1": 0.25, "-1": 0.25, "2": 0.15, "-2": 0.15, "3": 0.1, "-3": 0.1}},
}

# (lambda, argv after --lambda, exit code, stdout, stderr), as printed when
# every sample's entropy was summed exactly; the screened scan must print the
# same bytes. They hold infinite samples (KL, chi2, power:-1), a scan whose
# samples are all infinite (KL, zero_fraction 1) and a two-block scan.
SCAN_REPORTS = [
    ('asym2', ['--f', 'kl', '--depth', '3', '--samples', '300', '--seed', '5'], 0,
     ('{"command":"scan","config":{"command":"scan","depth":3,"f":"kl","lambda"'
      ':"lambda.json","samples":300,"seed":5,"uniform_tail_fraction":0.10000000'
      '000000001,"zero_fraction":0.050000000000000003},"results":{"argmin_masse'
      's":{"-1,-1,-1":0.027267370981633121,"-1,-1,-2":0.037224144671581361,"-1,'
      '-1,2":0.021675723581380979,"-1,-2,-1":0.040139304026071077,"-1,-2,-2":0.'
      '019761798718229688,"-1,-2,1":0.030365824081188458,"-1,2,-1":0.0294237836'
      '37358016,"-1,2,1":0.021906685349131951,"-1,2,2":0.025826153488008586,"-2'
      ',-1,-1":0.02209285808070122,"-2,-1,-2":0.035158896673506877,"-2,-1,2":0.'
      '039166231546576107,"-2,-2,-1":0.028498188637883615,"-2,-2,-2":0.01932859'
      '3201417246,"-2,-2,1":0.024832563361845479,"-2,1,-2":0.029485901419640817'
      ',"-2,1,1":0.0083165372136594883,"-2,1,2":0.042546454899319325,"1,-2,-1":'
      '0.037261512886182874,"1,-2,-2":0.051063957102847495,"1,-2,1":0.035579756'
      '978224214,"1,1,-2":0.02403053751475941,"1,1,1":0.031470664720163771,"1,1'
      ',2":0.025159841501949894,"1,2,-1":0.024710527714712688,"1,2,1":0.0347524'
      '73794666762,"1,2,2":0.018526093417966787,"2,-1,-1":0.017732326884643167,'
      '"2,-1,-2":0.034171415563409115,"2,-1,2":0.026779769201270065,"2,1,-2":0.'
      '026876177937493258,"2,1,1":0.017407898610642833,"2,1,2":0.03802506205495'
      '4734,"2,2,-1":0.022734381873867629,"2,2,1":0.01011209374102294,"2,2,2":0'
      '.020588494932088957},"argmin_tail":"uniform","infinite_entropy_samples":'
      '37,"min_entropy":0.59168606334858087,"reference_entropy":0.3902684068579'
      '7703,"samples":300,"theorem_A_violated":false},"version":"0.1.0"}\n'),
     ''),
    ('asym3', ['--f', 'chi2', '--depth', '2', '--samples', '500', '--seed', '11',
               '--zero-fraction', '0.5'], 0,
     ('{"command":"scan","config":{"command":"scan","depth":2,"f":"chi2","lambd'
      'a":"lambda.json","samples":500,"seed":11,"uniform_tail_fraction":0.10000'
      '000000000001,"zero_fraction":0.5},"results":{"argmin_masses":{"-1,-1":0.'
      '039382815741976405,"-1,-2":0.035643699480733267,"-1,-3":0.02229512561617'
      '2449,"-1,2":0.046394434053171646,"-1,3":0.030960930930806107,"-2,-1":0.0'
      '46080588429160331,"-2,-2":0.030599940309799078,"-2,-3":0.039230878013460'
      '833,"-2,1":0.028348501109480749,"-2,3":0.030977281837163695,"-3,-1":0.04'
      '09514083203327,"-3,-2":0.020123792031333961,"-3,-3":0.035196787439081154'
      ',"-3,1":0.043014023669963999,"-3,2":0.04132853353615823,"1,-2":0.0316989'
      '56835061923,"1,-3":0.037847549054639329,"1,1":0.028146576144667323,"1,2"'
      ':0.028896474751526617,"1,3":0.028512923581505704,"2,-1":0.02968149157327'
      '2129,"2,-3":0.031294823860553024,"2,1":0.028358608927647376,"2,2":0.0283'
      '76716678655888,"2,3":0.027739906459124868,"3,-1":0.023962849099512341,"3'
      ',-2":0.029044793116887724,"3,1":0.04087697080389311,"3,2":0.040540340538'
      '685195,"3,3":0.03449227805557277},"argmin_tail":"harmonic","infinite_ent'
      'ropy_samples":259,"min_entropy":3.7005946017577198,"reference_entropy":3'
      '.0122211458221417,"samples":500,"theorem_A_violated":false},"version":"0'
      '.1.0"}\n'),
     ''),
    ('uniform2', ['--f', 'power:0.5', '--depth', '3', '--samples', '2000', '--seed', '3',
                  '--zero-fraction', '1'], 0,
     ('{"command":"scan","config":{"command":"scan","depth":3,"f":"power:0.5","'
      'lambda":"lambda.json","samples":2000,"seed":3,"uniform_tail_fraction":0.'
      '10000000000000001,"zero_fraction":1},"results":{"argmin_masses":{"-1,-1,'
      '-1":0,"-1,-1,-2":0.026519797147369552,"-1,-1,2":0.027943724914091084,"-1'
      ',-2,-1":0.023344406368924969,"-1,-2,-2":0.021616182840625608,"-1,-2,1":0'
      '.024398324932187226,"-1,2,-1":0.026184495526444727,"-1,2,1":0.0423050371'
      '7885159,"-1,2,2":0.015289801123376684,"-2,-1,-1":0.030047835163625559,"-'
      '2,-1,-2":0.007736317211409301,"-2,-1,2":0.0368944728156902,"-2,-2,-1":0.'
      '030226861075885517,"-2,-2,-2":0.015627980472490824,"-2,-2,1":0.034370875'
      '456365031,"-2,1,-2":0.020843884068612189,"-2,1,1":0.060127012075785462,"'
      '-2,1,2":0.029750390078194605,"1,-2,-1":0.025490561084150664,"1,-2,-2":0.'
      '022300557968397926,"1,-2,1":0.035332407336458441,"1,1,-2":0.034855401753'
      '177279,"1,1,1":0.026900977703440035,"1,1,2":0.030891768838934009,"1,2,-1'
      '":0.023724681842310125,"1,2,1":0.033061264081231091,"1,2,2":0.0195339069'
      '24148688,"2,-1,-1":0.019448800343563912,"2,-1,-2":0.030473778107106362,"'
      '2,-1,2":0.023408568864451324,"2,1,-2":0.027811738756271315,"2,1,1":0.047'
      '189744907354406,"2,1,2":0.043425271825131818,"2,2,-1":0.0256280334929717'
      '9,"2,2,1":0.031246269846149491,"2,2,2":0.02604886787482099},"argmin_tail'
      '":"harmonic","infinite_entropy_samples":0,"min_entropy":0.67314374887338'
      '779,"reference_entropy":0.53589838486224539,"samples":2000,"theorem_A_vi'
      'olated":false},"version":"0.1.0"}\n'),
     ''),
    ('asym2', ['--f', 'power:-1', '--depth', '2', '--samples', '400', '--seed', '7',
               '--zero-fraction', '0.3', '--uniform-tail-fraction', '1'], 0,
     ('{"command":"scan","config":{"command":"scan","depth":2,"f":"power:-1","l'
      'ambda":"lambda.json","samples":400,"seed":7,"uniform_tail_fraction":1,"z'
      'ero_fraction":0.29999999999999999},"results":{"argmin_masses":{"-1,-1":0'
      '.10972368471810552,"-1,-2":0.10453224857418993,"-1,2":0.0847810337792809'
      '23,"-2,-1":0.045182050315894416,"-2,-2":0.076983603817075613,"-2,1":0.08'
      '2384601182401915,"1,-2":0.072441833498779348,"1,1":0.11573485561220503,"'
      '1,2":0.10157645205361408,"2,-1":0.053727431647735559,"2,1":0.07568874751'
      '705186,"2,2":0.077243457283665939},"argmin_tail":"uniform","infinite_ent'
      'ropy_samples":160,"min_entropy":0.62103264643780254,"reference_entropy":'
      '0.51565542249488672,"samples":400,"theorem_A_violated":false},"version":'
      '"0.1.0"}\n'),
     ''),
    ('uniform2', ['--f', 'kl', '--depth', '3', '--samples', '2000', '--seed', '4',
                  '--zero-fraction', '1'], 0,
     ('{"command":"scan","config":{"command":"scan","depth":3,"f":"kl","lambda"'
      ':"lambda.json","samples":2000,"seed":4,"uniform_tail_fraction":0.1000000'
      '0000000001,"zero_fraction":1},"results":{"argmin_masses":{},"argmin_tail'
      '":null,"infinite_entropy_samples":2000,"min_entropy":"inf","reference_en'
      'tropy":0.54930614433405456,"samples":2000,"theorem_A_violated":false},"v'
      'ersion":"0.1.0"}\n'),
     ''),
    ('asym2', ['--f', 'chi2', '--depth', '4', '--samples', '4097', '--seed', '2',
               '--uniform-tail-fraction', '0'], 0,
     ('{"command":"scan","config":{"command":"scan","depth":4,"f":"chi2","lambd'
      'a":"lambda.json","samples":4097,"seed":2,"uniform_tail_fraction":0,"zero'
      '_fraction":0.050000000000000003},"results":{"argmin_masses":{"-1,-1,-1,-'
      '1":0.010467335220269066,"-1,-1,-1,-2":0.0094683913752506635,"-1,-1,-1,2"'
      ':0.010239054824588468,"-1,-1,-2,-1":0.015003638597801384,"-1,-1,-2,-2":0'
      '.010952982870698954,"-1,-1,-2,1":0.0071880322526744044,"-1,-1,2,-1":0.01'
      '4038273394325007,"-1,-1,2,1":0.0077162873250681786,"-1,-1,2,2":0.0055025'
      '070880587506,"-1,-2,-1,-1":0.006763168136395918,"-1,-2,-1,-2":0.01273447'
      '4892269084,"-1,-2,-1,2":0.013249684749676041,"-1,-2,-2,-1":0.01189992591'
      '633946,"-1,-2,-2,-2":0.0061907164912165758,"-1,-2,-2,1":0.01120799586324'
      '3364,"-1,-2,1,-2":0.012071030442697315,"-1,-2,1,1":0.0093892611840975145'
      ',"-1,-2,1,2":0.0088895065148632841,"-1,2,-1,-1":0.0042874533827221076,"-'
      '1,2,-1,-2":0.0097039711857230832,"-1,2,-1,2":0.015662008352866311,"-1,2,'
      '1,-2":0.012249265804381262,"-1,2,1,1":0.011271586761681157,"-1,2,1,2":0.'
      '0067880072734301834,"-1,2,2,-1":0.007891183336912376,"-1,2,2,1":0.013563'
      '76535488258,"-1,2,2,2":0.0083055698229573694,"-2,-1,-1,-1":0.00972795738'
      '92776472,"-2,-1,-1,-2":0.0062372855640076622,"-2,-1,-1,2":0.006466851696'
      '0459006,"-2,-1,-2,-1":0.010645167149792426,"-2,-1,-2,-2":0.0081529835162'
      '71476,"-2,-1,-2,1":0.0084460185118309002,"-2,-1,2,-1":0.0117812759971712'
      '13,"-2,-1,2,1":0.009431479430785393,"-2,-1,2,2":0.0082005966119056729,"-'
      '2,-2,-1,-1":0.0065603394138723948,"-2,-2,-1,-2":0.0085830697003119218,"-'
      '2,-2,-1,2":0.012304695831473067,"-2,-2,-2,-1":0.0083545905430514027,"-2,'
      '-2,-2,-2":0.010497581862971556,"-2,-2,-2,1":0.011119081021917651,"-2,-2,'
      '1,-2":0.0071378316649698785,"-2,-2,1,1":0.011792358482118279,"-2,-2,1,2"'
      ':0.0077197990282938979,"-2,1,-2,-1":0.009381247944953694,"-2,1,-2,-2":0.'
      '0082892881513783739,"-2,1,-2,1":0.0077621370087609994,"-2,1,1,-2":0.0099'
      '444346279997983,"-2,1,1,1":0.007719281394011142,"-2,1,1,2":0.00289696311'
      '16303146,"-2,1,2,-1":0.010458733313110497,"-2,1,2,1":0.01086377058781203'
      '2,"-2,1,2,2":0.010969934824502514,"1,-2,-1,-1":0.010032994133909501,"1,-'
      '2,-1,-2":0.010894490641751142,"1,-2,-1,2":0.0097296922551675692,"1,-2,-2'
      ',-1":0.008870640300995632,"1,-2,-2,-2":0.0074509533540181106,"1,-2,-2,1"'
      ':0.0076351967521308085,"1,-2,1,-2":0.0096317080934952351,"1,-2,1,1":0.01'
      '3952827471623025,"1,-2,1,2":0.0076581376035549566,"1,1,-2,-1":0.00918284'
      '44954334138,"1,1,-2,-2":0.0098617838563122232,"1,1,-2,1":0.0112973594923'
      '9718,"1,1,1,-2":0.014865780187157489,"1,1,1,1":0.007175578607899951,"1,1'
      ',1,2":0.018504636970477269,"1,1,2,-1":0.0089720148088517082,"1,1,2,1":0.'
      '010600402240813392,"1,1,2,2":0.0063636448959733726,"1,2,-1,-1":0.0108494'
      '45351000301,"1,2,-1,-2":0.010020172927006169,"1,2,-1,2":0.00668892835531'
      '1716,"1,2,1,-2":0.0091084903987464199,"1,2,1,1":0.0066019284350047162,"1'
      ',2,1,2":0.0061866563434555101,"1,2,2,-1":0.014111721890465386,"1,2,2,1":'
      '0.010038686654189537,"1,2,2,2":0.0090819294589140533,"2,-1,-1,-1":0.0029'
      '369533239774594,"2,-1,-1,-2":0.0069041787499280515,"2,-1,-1,2":0.0113850'
      '23339639914,"2,-1,-2,-1":0.0075691971583549738,"2,-1,-2,-2":0.0087501286'
      '247165955,"2,-1,-2,1":0.0082845221476098071,"2,-1,2,-1":0.00947146749458'
      '42528,"2,-1,2,1":0.010914803376886467,"2,-1,2,2":0.0078373287558535613,"'
      '2,1,-2,-1":0.010090018495998039,"2,1,-2,-2":0.0082425076715460597,"2,1,-'
      '2,1":0.0058427494691693227,"2,1,1,-2":0.006641455087466273,"2,1,1,1":0.0'
      '068564842223932032,"2,1,1,2":0.0066244311736980872,"2,1,2,-1":0.00850998'
      '44891838809,"2,1,2,1":0.01246681070408842,"2,1,2,2":0.007964625802613105'
      '7,"2,2,-1,-1":0.010058162112342726,"2,2,-1,-2":0.010032948969632104,"2,2'
      ',-1,2":0.0060493161018278655,"2,2,1,-2":0.0056123321166899158,"2,2,1,1":'
      '0.0046929867701187506,"2,2,1,2":0.011815896208550817,"2,2,2,-1":0.010968'
      '271689269992,"2,2,2,1":0.0059063307552343312,"2,2,2,2":0.008062606417252'
      '6855},"argmin_tail":"harmonic","infinite_entropy_samples":633,"min_entro'
      'py":1.78248683236813,"reference_entropy":1.0313108449897748,"samples":40'
      '97,"theorem_A_violated":false},"version":"0.1.0"}\n'),
     ''),
]


@pytest.mark.parametrize("name, argv, code, stdout, stderr", SCAN_REPORTS,
                         ids=[f"{r[0]}-{r[1][1]}-{i}" for i, r in enumerate(SCAN_REPORTS)])
def test_scan_reports_match_recorded(tmp_path, name, argv, code, stdout, stderr):
    # the report echoes the --lambda path, so the file is named relative to the run's cwd
    (tmp_path / "lambda.json").write_text(json.dumps(SCAN_LAMBDAS[name]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    r = subprocess.run([sys.executable, "-m", "fentropy.cli", "scan", "--lambda", "lambda.json",
                        *argv], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert (r.returncode, r.stdout, r.stderr) == (code, stdout, stderr)


# --- entropy --nu reports against recorded outputs ---------------------------

# JSON measures whose totals are not 1: the first (1 + 4e-4, under a harmonic
# tail whose rounded q does not solve the first-passage system) is within
# cylinder_entropy's tolerance, the second (0.5) is refused
ENTROPY_NUS = {
    "near-one": {"d": 2, "depth": 2, "tail": "harmonic",
                 "q": {"1": 0.53265, "-1": 0.53265, "2": 0.17989, "-2": 0.17989},
                 "masses": {"-2,-2": 0.0275, "-2,-1": 0.0625, "-2,1": 0.0625, "-1,-2": 0.0812,
                            "-1,-1": 0.1853, "-1,2": 0.0812, "1,-2": 0.0812, "1,1": 0.1853,
                            "1,2": 0.0812, "2,-1": 0.0625, "2,1": 0.0625, "2,2": 0.0275}},
    "half": {"d": 2, "depth": 1, "tail": "uniform",
             "masses": {"-2": 0.125, "-1": 0.125, "1": 0.125, "2": 0.125}},
}

ENTROPY_REPORTS = [
    ('near-one', 'kl', 0,
     ('{"command":"entropy","config":{"command":"entropy","depth":2,"f":"kl","l'
      'ambda":"lambda.json","nu":"nu.json"},"results":{"depth":2,"h":0.3921171'
      '9878895562},"version":"0.1.0"}\n'),
     ''),
    ('near-one', 'chi2', 0,
     ('{"command":"entropy","config":{"command":"entropy","depth":2,"f":"chi2",'
      '"lambda":"lambda.json","nu":"nu.json"},"results":{"depth":2,"h":1.07590'
      '25962257396},"version":"0.1.0"}\n'),
     ''),
    ('half', 'kl', 2, '',
     '{"error":"NotProbability","message":"cylinder total 0.5 is not near 1"}\n'),
]


@pytest.mark.parametrize("name, spec, code, stdout, stderr", ENTROPY_REPORTS,
                         ids=[f"{r[0]}-{r[1]}" for r in ENTROPY_REPORTS])
def test_entropy_nu_reports_match_recorded(tmp_path, name, spec, code, stdout, stderr):
    # the report echoes the --lambda and --nu paths, so the files are named relative to the cwd
    (tmp_path / "lambda.json").write_text(json.dumps(SCAN_LAMBDAS["asym2"]))
    (tmp_path / "nu.json").write_text(json.dumps(ENTROPY_NUS[name]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    r = subprocess.run([sys.executable, "-m", "fentropy.cli", "entropy", "--lambda", "lambda.json",
                        "--f", spec, "--nu", "nu.json"], capture_output=True, text=True,
                       cwd=tmp_path, env=env)
    assert (r.returncode, r.stdout, r.stderr) == (code, stdout, stderr)
