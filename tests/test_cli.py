import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fentropy import cli
from fentropy.divergence import FiniteMeasure
from fentropy.errors import UnsupportedPayloadForCsv
from fentropy.free_boundary import uniform_generator_measure
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
                                      "folner-a-values-empty", "vp-pow-text", "vp-pow-nan",
                                      "vp-pow-inf", "scan-zero-fraction-nan",
                                      "scan-zero-fraction-2",
                                      "scan-uniform-tail-fraction-nan"])
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
            "vp-pow-text": ("vp", "--g", "pow:abc", "--M", "10"),
            "vp-pow-nan": ("vp", "--g", "pow:nan", "--M", "10"),
            "vp-pow-inf": ("vp", "--g", "pow:inf", "--M", "10"),
            "scan-zero-fraction-nan": scan + ("--zero-fraction", "nan"),
            "scan-zero-fraction-2": scan + ("--zero-fraction", "2"),
            "scan-uniform-tail-fraction-nan": scan + ("--uniform-tail-fraction", "nan"),
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

    def test_import_leaves_scipy_out(self):
        code = ("import sys, fentropy.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0 and r.stdout.strip() == "[]"

    def test_budget_exit_code(self, files):
        r = run_cli("abel", "--sigma", files["sigmaz.json"], "--t", "-1",
                    "--r", "0", "--a", "0.999999", "--eps", "1e-12")
        assert r.returncode == 3

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
        args = ("scan", "--lambda", files["uniform2.json"], "--f", "kl",
                "--depth", "2", "--samples", "200", "--seed", "7")
        r1 = run_cli(*args, env={"FE_THREADS": "1"})
        r8 = run_cli(*args, env={"FE_THREADS": "8"})
        assert r1.stdout == r8.stdout and r1.returncode == 0

    def test_timing_flag_is_opt_in(self, files):
        r = run_cli("solve-q", "--mu", files["uniform2.json"])
        assert "wall_clock_seconds" not in json.loads(r.stdout)
        r2 = run_cli("--timing", "solve-q", "--mu", files["uniform2.json"])
        assert "wall_clock_seconds" in json.loads(r2.stdout)


class TestVpInProcess:
    """`vp` run in this process, so that a RuntimeWarning fails the test."""

    @pytest.mark.parametrize("g, M, results", [
        ("pow:1e308", "10", '{"K":1,"rho":{"kind":"power","q":1}}'),
        ("pow:2", "4", '{"K":1.9999999999999432,"rho":{"kind":"power","q":2}}'),
        ("pow:3", "1.7",
         '{"K":1.193483191927271,"rho":{"kind":"power","q":1.5000000000000819}}'),
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
