"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "criterion N ... PASS" line on success (visible with
pytest -s); with plain pytest -v the per-test PASSED/FAILED line serves the
same purpose.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from fentropy.divergence import CHI2, KL, FiniteMeasure
from fentropy.free_boundary import (
    GeneratorMeasure,
    closed_form_harmonic_entropy,
    cylinder_entropy,
    entropy_gradient_at_harmonic,
    harmonic_measure,
    minimality_scan,
    solve_q,
    stationarity_residual,
    t_map,
    uniform_generator_measure,
)
from fentropy.majorant import (
    WeightedFunction,
    power_majorant,
    rho_norm,
    split_integrable,
    vallee_poussin,
)
from fentropy.sigma_walk import (
    GroupSpec,
    StochasticSequence,
    abel_identity_residual,
    abel_measure,
    boundary_empirical,
    check_harmonic,
    constant_sequence,
    exact_distribution,
    folner_entropy_curve,
    martingale_check,
    poisson_transform_cylinder,
    sample_endpoints,
)
from fentropy.words import letter_order

MU2 = uniform_generator_measure(2)
Z = GroupSpec("int")


def _passed(n, label):
    print(f"criterion {n:2d} ({label}): PASS")


def random_generator_measure(rng, d):
    w = rng.dirichlet(np.ones(d))
    p = {}
    for j in range(1, d + 1):
        p[j] = p[-j] = float(w[j - 1]) / 2.0
    return GeneratorMeasure(d, p)


def coin_sequence():
    return StochasticSequence(Z, [1], [[[{1: 0.5, -1: 0.5}]]])


def two_sheet_sequence(seed=0):
    rng = np.random.default_rng(seed)

    def cellgen():
        w = rng.dirichlet(np.ones(3))
        return {s: float(x) for s, x in zip((-1, 0, 1), w)}

    m0_weights = rng.dirichlet(np.ones(2))
    m0 = [[{k: v * m0_weights[j] for k, v in cellgen().items()}
           for j in range(2)]]
    m1 = []
    for i in range(2):
        w = rng.dirichlet(np.ones(2))
        m1.append([{k: v * w[j] for k, v in cellgen().items()}
                   for j in range(2)])
    return StochasticSequence(Z, [2, 2], [m0, m1], beyond="hold-last")


def test_01_first_passage_system():
    t0 = time.monotonic()
    for d in range(2, 6):
        qv = solve_q(uniform_generator_measure(d))
        for j in letter_order(d):
            assert abs(qv.q[j] - 1.0 / (2 * d - 1)) < 1e-12
    rng = np.random.default_rng(101)
    for i in range(100):
        d = 2 + (i % 2)
        mu = random_generator_measure(rng, d)
        qv = solve_q(mu)
        for j in letter_order(d):
            rhs = mu.p[j] + qv.q[j] * math.fsum(
                mu.p[i2] * qv.q[-i2] for i2 in letter_order(d) if i2 != j
            )
            assert abs(qv.q[j] - rhs) < 1e-12
        assert abs(math.fsum(qv.v[j] for j in letter_order(d)) - 1.0) < 1e-10
    assert time.monotonic() - t0 < 1.0
    _passed(1, "first-passage system")


def test_02_stationarity_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for i in range(20):
        mu = random_generator_measure(rng, 2 + (i % 2))
        nu = harmonic_measure(mu, 5)
        for depth in range(1, 5):
            assert stationarity_residual(mu, nu, depth) < 1e-12
    assert time.monotonic() - t0 < 10.0
    _passed(2, "stationarity of the exit law")


def test_03_entropy_closed_form():
    rng = np.random.default_rng(303)
    for _ in range(10):
        mu = random_generator_measure(rng, 2)
        lam = random_generator_measure(rng, 2)
        nu = harmonic_measure(mu, 3)
        h = cylinder_entropy(lam, nu, KL)
        assert abs(h - closed_form_harmonic_entropy(lam, mu, KL)) < 1e-10
    h_unif = cylinder_entropy(MU2, harmonic_measure(MU2, 2), KL)
    assert abs(h_unif - 0.5 * math.log(3.0)) < 1e-10
    _passed(3, "entropy closed form")


def test_04_minimality_desk_check():
    t0 = time.monotonic()
    lams = [
        MU2,
        GeneratorMeasure(2, {1: 0.4, -1: 0.4, 2: 0.1, -2: 0.1}),
        GeneratorMeasure(2, {1: 0.3, -1: 0.3, 2: 0.2, -2: 0.2}),
    ]
    for lam in lams:
        for f in (KL, CHI2):
            rep = minimality_scan(lam, f, depth=3, samples=10_000, seed=42)
            assert rep["min_entropy"] >= rep["reference_entropy"] - 1e-9
            assert rep["theorem_A_violated"] is False
            grad = entropy_gradient_at_harmonic(lam, f, depth=3, h_step=1e-6)
            assert np.max(np.abs(grad)) < 1e-6
    assert time.monotonic() - t0 < 120.0
    _passed(4, "entropy minimality scan and gradient")


def test_05_t_map_bijectivity():
    from fentropy.free_boundary import t_inverse

    rng = np.random.default_rng(505)
    for f in (KL, CHI2):
        worst = 0.0
        for _ in range(100):
            mu = random_generator_measure(rng, 2)
            back = t_inverse(t_map(mu, f), f)
            worst = max(worst, max(abs(back.p[j] - mu.p[j])
                                   for j in letter_order(2)))
        assert worst < 1e-8
    lam_u = t_map(MU2, KL)
    assert all(lam_u.p[j] == 0.25 for j in letter_order(2))
    _passed(5, "T-map round trips")


def test_06_walk_exactness_and_monte_carlo():
    s = two_sheet_sequence()
    for n in range(6):
        prev = exact_distribution(s, n)
        nxt = exact_distribution(s, n + 1)
        mat = s.matrix(n + 1)
        manual = {}
        for (i, g), m in prev.entries.items():
            for j, cell in enumerate(mat[i]):
                for x, w in cell.items():
                    key = (j, g + x)
                    manual[key] = manual.get(key, 0.0) + m * w
        for key in set(manual) | set(nxt.entries):
            assert abs(nxt.entries.get(key, 0.0) - manual.get(key, 0.0)) < 1e-14

    coin = coin_sequence()
    for n in range(21):
        dist = exact_distribution(coin, n)
        steps = n + 1
        for (j, g), m in dist.entries.items():
            k = (steps + g) // 2
            assert m == math.comb(steps, k) / 2.0**steps

    n_traj = 100_000
    exact = exact_distribution(coin, 3)
    counts = sample_endpoints(coin, 3, n_traj, 60_000)
    counts2 = sample_endpoints(coin, 3, n_traj, 60_000)
    assert counts == counts2  # seed-deterministic
    stat = 0.0
    for (j, g), m in exact.entries.items():
        exp = m * n_traj
        stat += (counts.get((j, g), 0) - exp) ** 2 / exp
    assert stat < chi2_dist.ppf(0.999, len(exact.entries) - 1)
    _passed(6, "walk exactness and Monte Carlo")


def test_07_harmonicity_and_martingale():
    s = constant_sequence(MU2)
    h = poisson_transform_cylinder(MU2, (1,), levels=6)
    assert check_harmonic(s, h, range(0, 5)) < 1e-12
    for n in range(1, 5):
        r_mart = martingale_check(s, h, n)
        r_harm = check_harmonic(s, h, range(n + 1, n + 2))
        assert abs(r_mart - r_harm) < 1e-14
    _passed(7, "Poisson transform harmonicity")


def test_08_abel_identity():
    seqs = [coin_sequence(), two_sheet_sequence(1), two_sheet_sequence(2)]
    for s in seqs:
        for t, a in ((0, 0.5), (1, 0.3), (2, 0.7)):
            assert abel_identity_residual(s, t, a, 0, 1e-10) < 1e-12
    ab = abel_measure(coin_sequence(), -1, 0, 0.5, 0, 1e-8)
    level = {}
    for (n, j, g), m in ab.entries.items():
        level[n] = level.get(n, 0.0) + m
    for n, m in level.items():
        assert m == pytest.approx(0.5 * 0.5**n, abs=1e-14)
    assert ab.tail_mass == 0.5 ** (ab.N + 1)
    _passed(8, "Abel convolution identity")


def test_09_folner_entropy_decay():
    t0 = time.monotonic()
    lam = FiniteMeasure({-1: 0.5, 1: 0.5})
    curve = folner_entropy_curve(lam, KL, [0.5, 0.9, 0.99], 1e-6,
                                 max_level=18)["curve"]
    hs = [row["h"] for row in curve]
    assert hs[0] >= hs[1] >= hs[2] > 0
    assert hs[2] < 0.1 * hs[0]
    assert time.monotonic() - t0 < 60.0
    _passed(9, "Folner almost-invariance")


def test_10_boundary_monte_carlo():
    n_traj = 100_000
    for depth in (1, 2):
        rep = boundary_empirical(MU2, steps=60, trajectories=n_traj,
                                 seed=77, depth=depth)
        assert rep["discards"] < 0.01 * n_traj
        for cell in rep["table"].values():
            assert abs(cell["freq"] - cell["expected"]) < 4 * cell["stderr"]
    _passed(10, "boundary Monte Carlo")


def test_11_majorant_suite():
    rho2, K = vallee_poussin(lambda t: t * t, 1.0)
    assert abs(K - 1.0) < 1e-10
    assert rho2.kind == "power" and abs(rho2.q - 2.0) < 1e-10
    for v in np.linspace(0.001, 1.0, 100):
        assert abs(rho2.eval(v) - math.sqrt(v)) < 1e-10

    k = 12
    masks = np.array([[(b >> i) & 1 for i in range(k)]
                      for b in range(1, 2**k)], dtype=float)

    def exhaustive_norm_vec(w, absv, rho):
        nu_a = masks @ w
        int_a = masks @ (absv * w)
        ok = nu_a > 0
        return float(np.max(int_a[ok] / rho.eval_array(nu_a[ok])))

    rng = np.random.default_rng(1111)
    for _ in range(1000):
        w = rng.dirichlet(np.ones(k))
        vals = rng.normal(0.0, 2.0, k)
        M = float(np.sum(w * vals**2))
        rho, K = vallee_poussin(lambda t: t * t, max(M, 1e-12))
        assert exhaustive_norm_vec(w, np.abs(vals), rho) <= K * (1 + 1e-9)

    rho = power_majorant(2.0)
    for _ in range(50):
        w = rng.dirichlet(np.ones(k))
        vals = rng.normal(0.0, 5.0, k)
        nu = FiniteMeasure({str(i): float(w[i]) for i in range(k)})
        f = WeightedFunction(nu, {str(i): float(vals[i]) for i in range(k)})
        C = float(rng.uniform(0.5, 3.0))
        B = split_integrable(f, rho, C)
        keep = np.array([0.0 if str(i) in B else abs(vals[i]) for i in range(k)])
        assert exhaustive_norm_vec(w, keep, rho) <= C * (1 + 1e-9)
        if B:
            int_b = sum(abs(f.values[x]) * nu.mass(x) for x in B)
            nu_b = sum(nu.mass(x) for x in B)
            assert int_b > C * rho.eval(nu_b) - 1e-9

    for _ in range(1000):
        w = rng.dirichlet(np.ones(8))
        vals = np.abs(rng.normal(0.0, 2.0, 8))
        phi = rng.random(8)
        nu = FiniteMeasure({str(i): float(w[i]) for i in range(8)})
        f = WeightedFunction(nu, {str(i): float(vals[i]) for i in range(8)})
        lhs = float(np.sum(vals * phi * w))
        assert lhs <= rho_norm(f, rho) * rho.eval(float(np.sum(phi * w))) + 1e-10
    _passed(11, "majorant suite")


def test_12_byte_identical_reruns(tmp_path):
    """Two runs of each seeded command print the same bytes."""
    mu_path = tmp_path / "uniform2.json"
    mu_path.write_text(json.dumps(MU2.to_json()))
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps(constant_sequence(MU2).to_json()))
    commands = [
        ["scan", "--lambda", str(mu_path), "--f", "kl", "--depth", "2",
         "--samples", "300", "--seed", "11"],
        ["walk-sample", "--sigma", str(sigma_path), "--steps", "12",
         "--seed", "11"],
        ["walk-boundary", "--mu", str(mu_path), "--steps", "40",
         "--trajectories", "2000", "--seed", "11", "--depth", "1"],
    ]
    for cmd in commands:
        outs = []
        for _ in range(2):
            r = subprocess.run([sys.executable, "-m", "fentropy.cli", *cmd],
                               capture_output=True)
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert outs[0] == outs[1]
    _passed(12, "byte-identical reruns")
