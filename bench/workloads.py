"""The four benchmark workloads: seeded inputs, jobs and their oracles.

A job draws its inputs from numpy's generator seeded with
``[seed, workload id, job index]``, calls the library through module
attributes (so the tracing wrappers see every call), and checks each result
against an oracle. A failed oracle raises ``CheckFailed``.

Jobs run in a fixed cycle of kinds. The runner only stops at the end of a
cycle, so every run holds the same mix of kinds whatever its length; the
cycles are laid out so that no class boundary of the cost distribution sits
at the median or at the workload's tail percentile.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np

from fentropy import divergence as dv
from fentropy import free_boundary as fb
from fentropy import majorant as mj
from fentropy import sigma_walk as sw

FS = (dv.generator_from_string("kl"), dv.generator_from_string("chi2"),
      dv.generator_from_string("power:0.5"))


class CheckFailed(Exception):
    pass


def check(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def random_generator_measure(rng, d, floor=0.1):
    """Symmetric measure on the 2d generators; each pair carries >= floor."""
    w = floor + (1.0 - floor * d) * rng.dirichlet(np.full(d, 2.0))
    p = {}
    for j in range(1, d + 1):
        p[j] = p[-j] = float(w[j - 1]) / 2.0
    total = math.fsum(p.values())
    return fb.GeneratorMeasure(d, {j: x / total for j, x in p.items()})


def stiff_generator_measure(eps):
    """F_2 measure with smallest weight eps: a near-degenerate q-system."""
    return fb.GeneratorMeasure(2, {1: (1 - eps) / 2, -1: (1 - eps) / 2,
                                   2: eps / 2, -2: eps / 2})


Z = sw.GroupSpec("int")
COIN = sw.StochasticSequence(Z, [1], [[[{1: 0.5, -1: 0.5}]]])


def two_sheet_sequence(rng):
    """Two sheets on Z with steps -1/0/+1; the second matrix repeats."""
    def cell(scale):
        w = rng.dirichlet(np.ones(3))
        return {s: float(x) * scale for s, x in zip((-1, 0, 1), w)}

    m0w = rng.dirichlet(np.ones(2))
    m0 = [[cell(float(m0w[j])) for j in range(2)]]
    m1 = []
    for _ in range(2):
        w = rng.dirichlet(np.ones(2))
        m1.append([cell(float(w[j])) for j in range(2)])
    return sw.StochasticSequence(Z, [2, 2], [m0, m1], beyond="hold-last")


def weighted_function(rng, k, scale):
    w = rng.dirichlet(np.ones(k))
    vals = rng.normal(0.0, scale, k)
    space = dv.FiniteMeasure({str(i): float(w[i]) for i in range(k)})
    return mj.WeightedFunction(space, {str(i): float(vals[i]) for i in range(k)})


def random_measure(rng, k):
    w = rng.dirichlet(np.ones(k))
    return dv.FiniteMeasure({str(i): float(w[i]) for i in range(k)})


def within_stderr(freq, expected, n, sigmas=5.0):
    return abs(freq - expected) <= sigmas * math.sqrt(expected * (1.0 - expected) / n)


class Workload:
    name = ""
    ident = 0
    cycle: tuple = ()
    tail_pct = 90

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index):
        return np.random.default_rng([self.seed, self.ident, index])

    def shared_rng(self):
        return np.random.default_rng([self.seed, self.ident])

    def setup(self):
        """Inputs shared by every job; part of the measured set-up."""

    def run(self, index):
        kind = self.cycle[index % len(self.cycle)]
        getattr(self, "job_" + kind.replace("-", "_"))(self.rng(index), index)


# --- boundary -----------------------------------------------------------------

class Boundary(Workload):
    """The entropy-minimality pipeline on F_2 (mostly) and F_3."""

    name = "boundary"
    ident = 1
    tail_pct = 90
    # (rank, cylinder depth): 9 x F2/3, 9 x F2/4, 5 x F2/5 (heavy), 1 x F3/3,
    # so the class boundaries fall at 0.375, 0.75 and 0.958 of the jobs. f is
    # FS[index % 3]; the depth-5 jobs sit at KL positions, so the class that
    # holds p90 is one kind of job rather than three of different cost.
    LAYOUT = ((2, 3), (2, 3), (2, 4), (2, 5), (2, 4), (2, 3), (2, 4), (2, 3),
              (2, 4), (2, 5), (3, 3), (2, 3), (2, 5), (2, 4), (2, 4), (2, 3),
              (2, 3), (2, 4), (2, 5), (2, 4), (2, 3), (2, 5), (2, 3), (2, 4))
    cycle = tuple(f"F{d}-depth{n}" for d, n in LAYOUT)
    SCAN_DEPTH = 3
    SCAN_SAMPLES = 300
    H_STEP = 1e-7

    def run(self, index):
        d, depth = self.LAYOUT[index % len(self.LAYOUT)]
        self.pipeline(self.rng(index), d, depth, FS[index % len(FS)])

    def pipeline(self, rng, d, depth, f):
        lam = random_generator_measure(rng, d)
        mu = fb.t_inverse(lam, f)
        back = fb.t_map(mu, f)
        check(max(abs(back.p[j] - lam.p[j]) for j in lam.p) < 1e-8, "T-map back residual")
        qv = fb.solve_q(mu)
        check(max(abs(r) for r in qv.residuals(mu).values()) < 1e-12, "q residual")
        check(abs(math.fsum(qv.v.values()) - 1.0) < 1e-10, "sum v")
        nu = fb.harmonic_measure(mu, depth)
        h = fb.cylinder_entropy(lam, nu, f)
        closed = fb.closed_form_harmonic_entropy(lam, mu, f)
        check(abs(h - closed) < 1e-10, f"cylinder entropy {h!r} vs closed form {closed!r}")
        rep = fb.minimality_scan(lam, f, self.SCAN_DEPTH, self.SCAN_SAMPLES,
                                 int(rng.integers(2**31)))
        check(rep["theorem_A_violated"] is False, "scan found entropy below nu_mu")
        check(rep["min_entropy"] >= rep["reference_entropy"] - 1e-9, "scan minimum")
        # F_3 cylinders at depth 3 are too light for a 1e-7 step, so F_3 uses depth 2
        grad = fb.entropy_gradient_at_harmonic(lam, f, 3 if d == 2 else 2,
                                               h_step=self.H_STEP)
        check(float(np.max(np.abs(grad))) < 1e-6, "gradient at nu_mu")


# --- walks --------------------------------------------------------------------

class Walks(Workload):
    """Exact and sampled sigma-stochastic walks, Abel measures, Folner curve."""

    name = "walks"
    ident = 2
    tail_pct = 90
    # 23 kinds of 15-150 ms and one of ~0.4 s (abel-sheets): the heavy class is
    # 1/24 of the jobs, so its boundary sits at 0.958, clear of p90.
    _LIGHT = ("exact-sheets", "boundary-f2", "abel-coin", "endpoints", "exact-f2",
              "poisson", "folner", "exact-f3", "boundary-f3", "endpoints", "poisson")
    cycle = _LIGHT + ("abel-sheets",) + _LIGHT + ("exact-sheets",)
    ABEL_POINTS = ((0, 0.5), (1, 0.3), (2, 0.7))

    def _exact(self, s, level):
        dist = sw.exact_distribution(s, level)
        check(abs(dist.total - 1.0) <= 1e-12, f"exact total {dist.total!r}")
        check(min(dist.entries.values()) >= 0.0, "negative mass")

    def job_exact_sheets(self, rng, index):
        self._exact(two_sheet_sequence(rng), 40)

    def job_exact_f2(self, rng, index):
        self._exact(sw.constant_sequence(random_generator_measure(rng, 2)), 6)

    def job_exact_f3(self, rng, index):
        self._exact(sw.constant_sequence(random_generator_measure(rng, 3)), 5)

    def _abel(self, s):
        for t, a in self.ABEL_POINTS:
            r = sw.abel_identity_residual(s, t, a, 0, 1e-10)
            check(r < 1e-12, f"Abel identity residual {r!r} at t={t}, a={a}")

    def job_abel_coin(self, rng, index):
        self._abel(COIN)

    def job_abel_sheets(self, rng, index):
        self._abel(two_sheet_sequence(rng))

    def job_endpoints(self, rng, index):
        n, steps = 5000, 3
        counts = sw.sample_endpoints(COIN, steps, n, int(rng.integers(2**31)))
        exact = sw.exact_distribution(COIN, steps)
        check(sum(counts.values()) == n, "endpoint count")
        check(set(counts) <= set(exact.entries), "endpoint outside the support")
        for key, m in exact.entries.items():
            check(within_stderr(counts.get(key, 0) / n, m, n), f"endpoint cell {key}")

    def _boundary(self, rng, d):
        mu = random_generator_measure(rng, d)
        rep = sw.boundary_empirical(mu, 60, 2000, int(rng.integers(2**31)), 2)
        for key, cell in rep["table"].items():
            check(within_stderr(cell["freq"], cell["expected"], rep["trajectories"]),
                  f"boundary cell {key}")

    def job_boundary_f2(self, rng, index):
        self._boundary(rng, 2)

    def job_boundary_f3(self, rng, index):
        self._boundary(rng, 3)

    def job_poisson(self, rng, index):
        mu = random_generator_measure(rng, 2)
        first = int(rng.choice([-2, -1, 1, 2]))
        w = (first,) if index % 2 else (first, int(rng.choice(
            [x for x in (-2, -1, 1, 2) if x != -first])))
        s = sw.constant_sequence(mu)
        h = sw.poisson_transform_cylinder(mu, w, 2)
        r_harm = sw.check_harmonic(s, h, range(1, 3))
        r_mart = sw.martingale_check(s, h, 1)
        check(r_harm < 1e-12 and r_mart < 1e-12,
              f"harmonicity {r_harm!r}, martingale {r_mart!r}")

    def job_folner(self, rng, index):
        p = float(rng.uniform(0.2, 0.8))
        lam = dv.FiniteMeasure({-1: p, 1: 1.0 - p})
        curve = sw.folner_entropy_curve(lam, FS[0], [0.5, 0.9, 0.99], 1e-6,
                                        max_level=12)["curve"]
        hs = [row["h"] for row in curve]
        check(hs[0] >= hs[1] >= hs[2] > 0.0, f"Folner curve not decreasing: {hs}")


# --- gauges -------------------------------------------------------------------

GROWTH = {
    "t2": lambda t: t * t,
    "t3": lambda t: t**3,
    "tlog": lambda t: t * math.log1p(t),
}


def _dominates(out, ys, grid, tol=1e-9):
    return bool(np.all(out.eval_array(grid) >= ys - tol))


class Gauges(Workload):
    """Concave gauges: Vallee Poussin, split certificates, envelopes, closure."""

    name = "gauges"
    ident = 3
    tail_pct = 95
    # costs: mfm ~5 ms (x3), combine-max ~8, vp-t2/vp-t3/mix/compose 20-30,
    # vp-tlog ~45, split 50-70 (x3); p50 falls inside the 20-30 ms group and
    # p95 inside the split group.
    cycle = ("vp-t2", "split", "mfm", "combine-max", "vp-t3", "split", "mfm",
             "combine-compose", "vp-tlog", "split", "mfm", "combine-mix")
    GRID = np.linspace(0.0, 1.0, 257)

    def _vp(self, rng, g):
        G = GROWTH[g]
        f = weighted_function(rng, 12, 2.0)
        w = np.array([f.space.atoms[k] for k in sorted(f.values)])
        v = np.array([f.values[k] for k in sorted(f.values)])
        M = float(np.sum(w * np.array([G(abs(x)) for x in v])))
        rho, K = mj.vallee_poussin(G, M)
        # shrinking |f| keeps E[G(|f|)] <= M because each G is increasing
        for shrink in (np.ones(12), *(rng.uniform(0.0, 1.0, (3, 12)))):
            fk = mj.WeightedFunction(f.space, {k: float(x * c) for k, x, c in
                                               zip(sorted(f.values), v, shrink)})
            norm = mj.rho_norm(fk, rho, "exact")
            check(norm <= K * (1 + 1e-9), f"rho norm {norm!r} above K = {K!r}")

    def job_vp_t2(self, rng, index):
        self._vp(rng, "t2")

    def job_vp_t3(self, rng, index):
        self._vp(rng, "t3")

    def job_vp_tlog(self, rng, index):
        self._vp(rng, "tlog")

    def job_split(self, rng, index):
        f = weighted_function(rng, 12, 2.0)
        rho = mj.power_majorant(float(rng.choice([2.0, 3.0])))
        C = float(rng.uniform(0.5, 3.0))
        bad = mj.split_integrable(f, rho, C)
        rest = mj.WeightedFunction(f.space, {k: (0.0 if k in bad else x)
                                             for k, x in f.values.items()})
        norm = mj.rho_norm(rest, rho, "exact")
        check(norm <= C * (1 + 1e-9), f"post-split norm {norm!r} above C = {C!r}")
        if bad:
            int_b = math.fsum(abs(f.values[k]) * f.space.mass(k) for k in bad)
            nu_b = math.fsum(f.space.mass(k) for k in bad)
            check(int_b > C * rho.eval(min(nu_b, 1.0)) - 1e-9, "split set is not bad")

    def job_mfm(self, rng, index):
        m, nu = random_measure(rng, 10), random_measure(rng, 10)
        rho = mj.majorant_for_measure(m, nu)
        rho.validate()
        check(mj.rho_abs_continuity(m, nu, rho), "m is not rho-continuous w.r.t. nu")

    def _pwl(self, rng):
        return mj.majorant_for_measure(random_measure(rng, 8), random_measure(rng, 8))

    def job_combine_max(self, rng, index):
        a, b = self._pwl(rng), mj.power_majorant(float(rng.uniform(1.5, 4.0)))
        out = mj.combine("max", [a, b])
        ys = np.maximum(a.eval_array(self.GRID), b.eval_array(self.GRID))
        check(_dominates(out, ys, self.GRID), "max does not dominate its inputs")

    def job_combine_compose(self, rng, index):
        a, b = self._pwl(rng), mj.power_majorant(float(rng.uniform(1.5, 4.0)))
        out = mj.combine("compose", [a, b])
        ys = a.eval_array(b.eval_array(self.GRID))
        check(_dominates(out, ys, self.GRID), "compose does not dominate rho(eta)")

    def job_combine_mix(self, rng, index):
        a, b = self._pwl(rng), mj.power_majorant(float(rng.uniform(1.5, 4.0)))
        wa = float(rng.uniform(0.1, 0.9))
        out = mj.combine("mix", [a, b], weights=[wa, 1.0 - wa])
        ys = wa * a.eval_array(self.GRID) + (1.0 - wa) * b.eval_array(self.GRID)
        # the chordal interpolant of a concave function lies below it
        check(bool(np.all(out.eval_array(self.GRID) <= ys + 1e-12)), "mix above the mixture")
        check(abs(out.eval(1.0) - 1.0) < 1e-12, "mix(1) != 1")


# --- cli ----------------------------------------------------------------------

_TIMING_FIELD = re.compile(rb',"wall_clock_seconds":[^,}]*\}\n$')


def exhaustive_rho_norm(f_doc, rho_doc):
    """sup_A int_A |f| / rho(nu(A)) over all non-empty subsets, independently."""
    atoms = f_doc["space"]["atoms"]
    keys = [k for k in sorted(atoms) if atoms[k] > 0]
    w = np.array([atoms[k] for k in keys])
    a = np.abs(np.array([f_doc["values"][k] for k in keys]))
    n = len(keys)
    masks = ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    nu_a = np.minimum(masks @ w, 1.0)
    if rho_doc["kind"] == "power":
        denom = nu_a ** (1.0 / rho_doc["q"])
    else:
        ts, ys = zip(*sorted(rho_doc["points"]))
        denom = np.interp(nu_a, ts, ys)
    return float(np.max((masks @ (a * w)) / denom))


class Cli(Workload):
    """One fresh `python -m fentropy.cli` process per job."""

    name = "cli"
    ident = 4
    tail_pct = 60
    cycle = ("solve-q", "tinv", "walk-exact", "vp", "solve-q-stiff4", "entropy",
             "abel-identity", "rho-norm", "scan", "tmap", "walk-boundary",
             "solve-q-stiff6", "folner", "split")

    def __init__(self, seed, workdir, src, timing=False):
        super().__init__(seed, workdir)
        self.src = src
        self.timing = timing
        self.first_stdout = {}
        self.records = []  # (kind, wall_s, handler_s or None, report bytes)
        self.max_child_rss_kb = 0

    def _write(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def setup(self):
        rng = self.shared_rng()
        lam = random_generator_measure(rng, 2)
        mu = random_generator_measure(rng, 2)
        fn = weighted_function(rng, 12, 2.0)
        p_z = float(rng.uniform(0.2, 0.8))
        self.inputs = {
            "lam": lam, "mu": mu, "fn": fn,
            "M": math.fsum(fn.space.mass(k) * x * x for k, x in fn.values.items()),
            "C": float(rng.uniform(0.5, 3.0)),
            "rho": {"kind": "power", "q": float(rng.choice([2.0, 3.0]))},
        }
        paths = {
            "lam": self._write("lam.json", lam.to_json()),
            "mu": self._write("mu.json", mu.to_json()),
            "stiff4": self._write("stiff4.json", stiff_generator_measure(1e-4).to_json()),
            "stiff6": self._write("stiff6.json", stiff_generator_measure(1e-6).to_json()),
            "sigma": self._write("sigma.json", two_sheet_sequence(rng).to_json()),
            "lamz": self._write("lamz.json", {"atoms": {"-1": p_z, "1": 1.0 - p_z}}),
            "fn": self._write("fn.json", fn.to_json()),
            "rho": self._write("rho.json", self.inputs["rho"]),
        }
        s1, s2 = (str(int(x)) for x in rng.integers(2**31, size=2))
        self.argv = {
            "solve-q": ["solve-q", "--mu", paths["mu"]],
            "solve-q-stiff4": ["solve-q", "--mu", paths["stiff4"]],
            "solve-q-stiff6": ["solve-q", "--mu", paths["stiff6"]],
            "tinv": ["tinv", "--lambda", paths["lam"], "--f", "kl"],
            "tmap": ["tmap", "--mu", paths["mu"], "--f", "chi2"],
            "entropy": ["entropy", "--lambda", paths["lam"], "--f", "power:0.5",
                        "--depth", "3"],
            "scan": ["scan", "--lambda", paths["lam"], "--f", "kl", "--depth", "3",
                     "--samples", "2000", "--seed", s1],
            "walk-exact": ["walk-exact", "--sigma", paths["sigma"], "--level", "40"],
            "walk-boundary": ["walk-boundary", "--mu", paths["mu"], "--steps", "60",
                              "--trajectories", "2000", "--seed", s2, "--depth", "2"],
            "abel-identity": ["abel-identity", "--sigma", paths["sigma"], "--t", "1",
                              "--a", "0.3"],
            "folner": ["folner", "--lambda-z", paths["lamz"], "--f", "kl",
                       "--a-values", "0.5,0.9,0.99", "--max-level", "12"],
            "vp": ["vp", "--g", "pow:2", "--M", repr(self.inputs["M"])],
            "rho-norm": ["rho-norm", "--function", paths["fn"], "--rho", paths["rho"]],
            "split": ["split", "--function", paths["fn"], "--rho", paths["rho"],
                      "--C", repr(self.inputs["C"])],
        }
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def _invoke(self, argv):
        """Run one CLI process; returns (exit code, stdout, stderr, wall seconds)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fentropy.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=self.workdir)
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
        finally:
            proc.stdout.close()
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, err, wall

    def run(self, index):
        kind = self.cycle[index % len(self.cycle)]
        argv = self.argv[kind] + (["--timing"] if self.timing else [])
        code, out, err, wall = self._invoke(argv)
        check(code == 0, f"{kind} exited with {code}: {err[-300:]!r}")
        handler = None
        if self.timing:
            handler = json.loads(out)["wall_clock_seconds"]
            out = _TIMING_FIELD.sub(b"}\n", out)
        first = self.first_stdout.setdefault(kind, out)
        check(out == first, f"{kind} report differs from its first run")
        self.records.append((kind, wall, handler, len(out)))
        self.verify(kind, json.loads(out)["results"])

    def verify(self, kind, res):
        inp = self.inputs
        if kind.startswith("solve-q"):
            check(res["max_residual"] < 1e-12, "q residual")
            check(abs(res["v_sum"] - 1.0) < 1e-10, "sum v")
        elif kind == "tinv":
            mu = fb.GeneratorMeasure.from_json(res)
            back = fb.t_map(mu, FS[0])
            check(max(abs(back.p[j] - inp["lam"].p[j]) for j in back.p) < 1e-8,
                  "T-map back residual")
        elif kind == "tmap":
            lam = fb.GeneratorMeasure.from_json(res)
            mu = fb.t_inverse(lam, FS[1])
            check(max(abs(mu.p[j] - inp["mu"].p[j]) for j in mu.p) < 1e-8,
                  "T-inverse of the T-map output")
        elif kind == "entropy":
            mu = fb.t_inverse(inp["lam"], FS[2])
            closed = fb.closed_form_harmonic_entropy(inp["lam"], mu, FS[2])
            check(abs(res["h"] - closed) < 1e-10, "cylinder entropy vs closed form")
        elif kind == "scan":
            check(res["theorem_A_violated"] is False, "scan found entropy below nu_mu")
            check(res["min_entropy"] >= res["reference_entropy"] - 1e-9, "scan minimum")
        elif kind == "walk-exact":
            check(abs(res["total"] - 1.0) <= 1e-12, "exact total")
        elif kind == "walk-boundary":
            for key, cell in res["table"].items():
                check(within_stderr(cell["freq"], cell["expected"], res["trajectories"]),
                      f"boundary cell {key}")
        elif kind == "abel-identity":
            check(res["max_residual"] < 1e-12, "Abel identity residual")
        elif kind == "folner":
            hs = [row["h"] for row in res["curve"]]
            check(hs[0] >= hs[1] >= hs[2] > 0.0, "Folner curve not decreasing")
        elif kind == "vp":
            norm = exhaustive_rho_norm(inp["fn"].to_json(), res["rho"])
            check(norm <= res["K"] * (1 + 1e-9), "rho norm above K")
        elif kind == "rho-norm":
            exact = exhaustive_rho_norm(inp["fn"].to_json(), inp["rho"])
            check(abs(res["norm"] - exact) <= 1e-12 * max(1.0, exact), "rho norm")
        elif kind == "split":
            fdoc = inp["fn"].to_json()
            bad = set(res["bad_set"])
            rest = dict(fdoc, values={k: (0.0 if k in bad else x)
                                      for k, x in fdoc["values"].items()})
            C = inp["C"]
            check(res["post_split_norm"] <= C * (1 + 1e-9), "post-split norm above C")
            check(exhaustive_rho_norm(rest, inp["rho"]) <= C * (1 + 1e-9),
                  "post-split norm above C (exhaustive)")
            if bad:
                atoms, vals = fdoc["space"]["atoms"], fdoc["values"]
                int_b = math.fsum(abs(vals[k]) * atoms[k] for k in bad)
                nu_b = min(math.fsum(atoms[k] for k in bad), 1.0)
                check(int_b > C * nu_b ** (1.0 / inp["rho"]["q"]) - 1e-9,
                      "split set is not bad")
        else:
            raise CheckFailed(f"no oracle for {kind}")


WORKLOADS = {w.name: w for w in (Boundary, Walks, Gauges, Cli)}
