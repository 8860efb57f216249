import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fentropy import free_boundary
from fentropy.divergence import CHI2, INF, KL, ConvexGenerator, generator_from_string
from fentropy.errors import (
    DepthMismatch,
    FentropyError,
    GeneratorOverflow,
    MassBelowFloor,
    NoConvergence,
    NotProbability,
    ParseError,
    RankTooSmall,
    StepTooLarge,
)
from fentropy.free_boundary import (
    ENTROPY_CELLS,
    SAMPLE_BLOCK,
    CylinderMeasure,
    EntropyEngine,
    GeneratorMeasure,
    QVector,
    TailRule,
    _brent,
    _gather_maps,
    _scan_block,
    _solve_q_memo,
    _t_inverse_memo,
    closed_form_harmonic_entropy,
    cylinder_entropy,
    entropy_gradient_at_harmonic,
    harmonic_measure,
    minimality_scan,
    pushforward,
    rn_generator,
    solve_q,
    stationarity_residual,
    t_inverse,
    t_map,
    translate_mass,
    uniform_generator_measure,
)
from fentropy.words import (ReducedWord, encode_word, enumerate_words, letter_order,
                            letter_positions, word_array, word_index)
from oracles import (convolve, exhaustive_scan, gradient_of_masses, marginal, refine, refine_to,
                     stationarity_residual as oracle_stationarity_residual)

SRC = str(Path(__file__).resolve().parents[1] / "src")
ASYM = GeneratorMeasure(2, {1: 0.4, -1: 0.4, 2: 0.1, -2: 0.1})
ASYM3 = GeneratorMeasure(3, {1: 0.25, -1: 0.25, 2: 0.15, -2: 0.15, 3: 0.1, -3: 0.1})


def random_measure(rng, d=2):
    x = rng.dirichlet(np.ones(d))
    return GeneratorMeasure(d, {j: x[abs(j) - 1] / 2.0 for j in letter_order(d)})


class TestSolveQ:
    def test_uniform_f2(self):
        qv = solve_q(uniform_generator_measure(2))
        for j in letter_order(2):
            assert qv.q[j] == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert qv.v[j] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_uniform_fd(self, d):
        qv = solve_q(uniform_generator_measure(d))
        for j in letter_order(d):
            assert qv.q[j] == pytest.approx(1.0 / (2 * d - 1), abs=1e-12)

    def test_asymmetric_example(self):
        qv = solve_q(ASYM)
        assert qv.q[1] == pytest.approx(0.5325, abs=1e-3)
        assert qv.q[2] == pytest.approx(0.1797, abs=1e-3)
        assert math.fsum(qv.v.values()) == pytest.approx(1.0, abs=1e-10)

    def test_residuals_and_vsum_random(self):
        rng = np.random.default_rng(7)
        for d in (2, 3):
            for _ in range(30):
                mu = random_measure(rng, d)
                qv = solve_q(mu)
                assert max(abs(r) for r in qv.residuals(mu).values()) < 1e-12
                assert abs(math.fsum(qv.v.values()) - 1.0) < 1e-10
                for j in letter_order(d):
                    assert qv.q[j] == qv.q[-j]

    def test_rank_one_rejected(self):
        with pytest.raises(RankTooSmall):
            GeneratorMeasure(1, {1: 0.5, -1: 0.5})

    def test_asymmetric_weights_rejected(self):
        with pytest.raises(NotProbability):
            GeneratorMeasure(2, {1: 0.5, -1: 0.3, 2: 0.1, -2: 0.1})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(NotProbability):
            GeneratorMeasure(2, {1: 0.5, -1: 0.5, 2: bad, -2: bad})

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # an infinite tol would switch off the residual and v-sum certificates
        with pytest.raises(ParseError, match="tol"):
            solve_q(ASYM, tol=tol)
        with pytest.raises(ParseError, match="tol"):
            t_inverse(ASYM, KL, tol=tol)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_stiff_measure(self, eps):
        # p_2 = eps/2 puts the interior root within sqrt(2 eps) of the spurious root S = 1
        mu = GeneratorMeasure(2, {1: (1 - eps) / 2, -1: (1 - eps) / 2,
                                  2: eps / 2, -2: eps / 2})
        qv = solve_q(mu)
        assert max(abs(r) for r in qv.residuals(mu).values()) < 1e-12
        assert abs(math.fsum(qv.v.values()) - 1.0) < 1e-10
        for j in letter_order(2):
            assert qv.q[j] == qv.q[-j]
        assert stationarity_residual(mu, harmonic_measure(mu, 3), 2) < 1e-12

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_stiff_measure_matches_decimal_root(self, eps):
        mu = GeneratorMeasure(2, {1: (1 - eps) / 2, -1: (1 - eps) / 2,
                                  2: eps / 2, -2: eps / 2})
        qv = solve_q(mu)
        exact = decimal_q([mu.p[1], mu.p[2]])
        for j in (1, 2):
            assert abs(Decimal(qv.q[j]) - exact[j - 1]) < Decimal("1e-15")


def decimal_q(p):
    """q of the symmetric first-passage system with weights p, to 60 digits.

    Bisects p_j q_j^2 + u q_j - p_j = 0, u = 1 - 2 sum_k p_k q_k, for u on
    (1e-14, 1) in decimal arithmetic, with the root u = 0 divided out.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        P = [Decimal(x) for x in p]
        e = 1 - 2 * sum(P)

        def q_of(u):
            return [2 * pk / (u + (u * u + 4 * pk * pk).sqrt()) for pk in P]

        def h(u):
            return (u - e - 2 * sum(pk * (1 - qk) for pk, qk in zip(P, q_of(u)))) / u

        lo, hi = Decimal("1e-14"), Decimal(1)
        assert h(lo) < 0 < h(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            if h(mid) < 0:
                lo = mid
            else:
                hi = mid
        return q_of((lo + hi) / 2)


class TestBrent:
    @staticmethod
    def brent(fn, lo, hi):
        return _brent(fn, lo, hi, fn(lo), fn(hi), xtol=1e-16)

    def test_known_root_within_two_ulp(self):
        root = math.sqrt(2.0)
        for lo, hi in ((1.0, 2.0), (0.0, 10.0), (1.4, 1.5)):
            x = self.brent(lambda t: t * t - 2.0, lo, hi)
            assert abs(x - root) <= 2 * math.ulp(root)

    def test_unbracketed_interval_raises(self):
        with pytest.raises(NoConvergence):
            self.brent(lambda t: t * t + 1.0, -1.0, 1.0)
        with pytest.raises(NoConvergence):
            self.brent(lambda t: t - 2.0, 0.0, 1.0)


class TestHarmonicMeasure:
    def test_uniform_depth1(self):
        nu = harmonic_measure(uniform_generator_measure(2), 1)
        for j in letter_order(2):
            assert nu.mass((j,)) == pytest.approx(0.25, abs=1e-12)

    def test_uniform_depth2(self):
        nu = harmonic_measure(uniform_generator_measure(2), 2)
        assert nu.mass((1, 2)) == pytest.approx(1.0 / 12.0, abs=1e-12)
        # consistency: the one-letter extensions of a_1 sum to its mass
        ext = math.fsum(nu.mass((1, j)) for j in letter_order(2) if j != -1)
        assert ext == pytest.approx(0.25, abs=1e-12)

    def test_asymmetric_depth1(self):
        qv = solve_q(ASYM)
        nu = harmonic_measure(ASYM, 1)
        assert nu.mass((1,)) == pytest.approx(qv.v[1], abs=1e-14)
        assert nu.total == pytest.approx(1.0, abs=1e-12)

    def test_marginal_consistency(self):
        nu = harmonic_measure(ASYM, 3)
        marg = marginal(nu, 2)
        direct = harmonic_measure(ASYM, 2)
        for w in direct.masses:
            assert marg.mass(w) == pytest.approx(direct.mass(w), abs=1e-14)

    def test_refine_inverts_marginal(self):
        nu = harmonic_measure(ASYM, 2)
        again = marginal(refine(nu), 2)
        for w in nu.masses:
            assert again.mass(w) == pytest.approx(nu.mass(w), abs=1e-14)

    def test_stationarity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            mu = random_measure(rng)
            nu = harmonic_measure(mu, 4)
            for depth in (1, 2, 3):
                assert stationarity_residual(mu, nu, depth) < 1e-12


class TestStationarityResidual:
    @pytest.mark.parametrize("d,depth", [(2, 2), (2, 3), (2, 4), (2, 5),
                                         (3, 2), (3, 3), (3, 4), (3, 5)])
    def test_matches_dict_oracle(self, d, depth):
        rng = np.random.default_rng(90 + 10 * d + depth)
        words = enumerate_words(d, depth)
        mu = random_measure(rng, d)
        nus = [harmonic_measure(mu, depth)]
        for tail in (TailRule("harmonic", solve_q(mu)), TailRule("uniform")):
            for zeroed in (False, True):
                x = rng.dirichlet(np.ones(len(words)))
                if zeroed:
                    x[rng.choice(len(words), size=max(1, len(words) // 4), replace=False)] = 0.0
                nus.append(CylinderMeasure(d, depth, dict(zip(words, x.tolist())), tail))
        for nu in nus:
            for m in range(1, depth):
                got = stationarity_residual(mu, nu, m)
                assert abs(got - oracle_stationarity_residual(mu, nu, m)) <= 1e-15, m

    def test_non_stationary_measure_fails(self):
        nu = harmonic_measure(ASYM, 3)
        for m in (1, 2):
            assert stationarity_residual(uniform_generator_measure(2), nu, m) > 1e-3

    @pytest.mark.parametrize("mu,m", [(ASYM3, 1), (ASYM, 0), (ASYM, 3), (ASYM, -1)])
    def test_bad_rank_or_depth_rejected(self, mu, m):
        with pytest.raises(DepthMismatch):
            stationarity_residual(mu, harmonic_measure(ASYM, 3), m)


class TestPushforward:
    def test_identity_is_marginalization(self):
        nu = harmonic_measure(uniform_generator_measure(2), 2)
        out = pushforward(ReducedWord((), 2), nu, 2)
        for w in nu.masses:
            assert out.mass(w) == pytest.approx(nu.mass(w), abs=1e-15)

    def test_translate_onto_complement(self):
        # (a_1 nu)(C_{a_1}) = nu(everything but C_{a_{-1}}) = 3/4
        nu = harmonic_measure(uniform_generator_measure(2), 2)
        out = pushforward(ReducedWord((1,), 2), nu, 1)
        assert out.mass((1,)) == pytest.approx(0.75, abs=1e-12)

    def test_translate_scales_far_cylinder(self):
        nu = harmonic_measure(uniform_generator_measure(2), 2)
        out = pushforward(ReducedWord((1,), 2), nu, 1)
        assert out.mass((2,)) == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(9)
        mu = random_measure(rng)
        nu = harmonic_measure(mu, 3)
        out = pushforward(ReducedWord((1, 2), 2), nu, 1)
        assert out.total == pytest.approx(nu.total, abs=1e-14)

    def test_depth_mismatch(self):
        nu = harmonic_measure(uniform_generator_measure(2), 2)
        with pytest.raises(DepthMismatch):
            pushforward(ReducedWord((1,), 2), nu, 2)


class TestRnGenerator:
    def test_uniform_values(self):
        qv = solve_q(uniform_generator_measure(2))
        assert rn_generator(qv, 1, (1,)) == pytest.approx(3.0, abs=1e-12)
        assert rn_generator(qv, 1, (2,)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_integral_is_one(self):
        qv = solve_q(ASYM)
        for j in letter_order(2):
            total = qv.v[j] / qv.q[j] + (1.0 - qv.v[j]) * qv.q[j]
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_pushforward_ratios(self):
        mu = ASYM
        qv = solve_q(mu)
        nu = harmonic_measure(mu, 3)
        for j in (1, -2):
            out = pushforward(ReducedWord((j,), 2), nu, 2)
            for w in harmonic_measure(mu, 2).masses:
                base = harmonic_measure(mu, 2).mass(w)
                assert out.mass(w) / base == pytest.approx(
                    rn_generator(qv, j, w), abs=1e-12
                )

    def test_cocycle_identity(self):
        # R(gh; x) = R(h; g^{-1} x) * R(g; x) on cylinders deep enough that
        # both sides are locally constant: check via pushforward mass ratios
        mu = ASYM
        g = ReducedWord((1,), 2)
        h = ReducedWord((2,), 2)
        gh = ReducedWord((1, 2), 2)
        nu4 = harmonic_measure(mu, 4)
        nu2 = harmonic_measure(mu, 2)
        lhs = pushforward(gh, nu4, 2)
        h_nu = pushforward(h, harmonic_measure(mu, 3), 2)
        for w in enumerate_words(2, 2):
            base = nu2.mass(w)
            r_gh = lhs.mass(w) / base
            # R(g; x) at x in C_w, R(h; g^{-1}x) at g^{-1}x in C_{reduce(g^{-1}w)}
            qv = solve_q(mu)
            r_g = rn_generator(qv, 1, w)
            from fentropy.words import reduce_letters

            u = reduce_letters((-1,) + w, 2)
            r_h = h_nu.mass(u[:2]) / nu2.mass(u[:2]) if len(u) >= 2 else None
            if r_h is None:
                continue
            assert r_gh == pytest.approx(r_h * r_g, abs=1e-12)


def translated_prefix_mass(words, x, g, w):
    """(g nu)(C_w) from nu's masses x on the rows of words = word_array(d, |w| + |g|).

    Row u maps to the reduced word g[:r-c] + u[c:], where c counts the
    letters of u that cancel the end of g; the masses of the rows whose
    image starts with w are summed with math.fsum.
    """
    r, n = len(g), len(w)
    g = np.array(g, dtype=np.int64)
    c = np.cumprod(words[:, :r] == -g[::-1], axis=1).sum(axis=1)[:, None]
    i = np.arange(n)
    # letter i of the image is g[i] for i < r - c, else u[i + 2c - r]
    tail = np.take_along_axis(words, np.maximum(i + 2 * c - r, 0), axis=1)
    prefix = np.where(i < r - c, np.concatenate([g, np.zeros(n, dtype=np.int64)])[:n], tail)
    return math.fsum(x[(prefix == w).all(axis=1)].tolist())


class TestTranslateMass:
    @pytest.mark.parametrize("mu", [ASYM, ASYM3], ids=["F2", "F3"])
    def test_matches_pushforward(self, mu):
        qv = solve_q(mu)
        kinds = set()
        for w in ((1,), (2, -1), (1, 1, 2)):
            for r in range(4):
                nu = harmonic_measure(mu, len(w) + r)
                words = word_array(mu.d, len(w) + r)
                x = np.array([nu.mass(u) for u in map(tuple, words.tolist())])
                for g in enumerate_words(mu.d, r):
                    oracle = translated_prefix_mass(words, x, g, w)
                    if r <= 2:
                        assert oracle == pushforward(ReducedWord(g, mu.d), nu, len(w)).mass(w)
                    assert abs(translate_mass(qv, g, w) - oracle) <= 1e-14, (g, w)
                    # g^-1 cancels the common prefix of g and w
                    c = next((k for k in range(len(w)) if g[k:k + 1] != w[k:k + 1]), len(w))
                    kinds.add("none" if c == 0 else "partial" if c < len(w) else "full")
        assert kinds == {"none", "partial", "full"}

    def test_empty_word_rejected(self):
        with pytest.raises(DepthMismatch):
            translate_mass(solve_q(ASYM), (1,), ())


def cylinder_entropy_outcomes(count: int, seed: int) -> list:
    """Outcomes of `count` seeded cylinder_entropy calls: a value's float hex, or an
    exception's type and message.

    The inputs cover F_2 and F_3 at depth 1-4, six generators, and three tails:
    a solved harmonic one, the uniform one, and a harmonic one whose q (each
    q_j off by up to 0.3%, as a rounded JSON q would be) does not solve the
    first-passage system. The masses are nu_mu's or a Dirichlet row, some
    zeroed, scaled to a total of 1, 1 + 4e-4, 1 - 9e-4, 1.002 or 0.5.
    """
    specs = ["kl", "chi2", "power:0.5", "power:2", "power:-1", "power:3"]
    totals = [1.0, 1.0 + 4e-4, 1.0 - 9e-4, 1.002, 0.5]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d, depth = int(rng.integers(2, 4)), int(rng.integers(1, 5))
        f = generator_from_string(specs[int(rng.integers(len(specs)))])
        lam, mu = random_measure(rng, d), random_measure(rng, d)
        kind = int(rng.integers(3))
        if kind == 0:
            tail = TailRule("harmonic", solve_q(mu))
        elif kind == 1:
            tail = TailRule("uniform")
        else:
            off = rng.uniform(-3e-3, 3e-3, d)
            q = {j: qj * (1.0 + off[abs(j) - 1]) for j, qj in solve_q(mu).q.items()}
            tail = TailRule("harmonic", QVector(d, q))
        words = enumerate_words(d, depth)
        if rng.random() < 0.5:
            x = np.array(list(harmonic_measure(mu, depth).masses.values()))
        else:
            x = rng.dirichlet(np.ones(len(words)))
        zeroed = rng.random(len(x)) < rng.choice([0.0, 0.1, 0.4])
        zeroed[int(rng.integers(len(x)))] = False
        x[zeroed] = 0.0
        x = x / x.sum() * totals[int(rng.integers(len(totals)))]
        nu = CylinderMeasure(d, depth, dict(zip(words, x.tolist())), tail)
        try:
            out.append(cylinder_entropy(lam, nu, f).hex())
        except FentropyError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


# sha256 of the newline-joined cylinder_entropy_outcomes(1500, 24), as printed
# when the totals were checked inside EntropyEngine's rows
CYLINDER_ENTROPY_DIGEST = "06ec5d35f240d2560b7bb4031ee52a302c003ff5d1e7356ee02cc78aa24929b0"


class TestCylinderEntropy:
    def test_outcomes_match_recorded(self):
        outcomes = cylinder_entropy_outcomes(1500, 24)
        assert INF.hex() in outcomes
        for what in ("cylinder", "translated cylinder"):
            assert any(o.startswith(f"NotProbability: {what} total") for o in outcomes)
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == CYLINDER_ENTROPY_DIGEST

    def test_uniform_f2_kl(self):
        lam = uniform_generator_measure(2)
        nu = harmonic_measure(lam, 2)
        assert cylinder_entropy(lam, nu, KL) == pytest.approx(
            0.5 * math.log(3.0), abs=1e-10
        )

    def test_matches_closed_form_generic(self):
        rng = np.random.default_rng(10)
        for f in (KL, CHI2):
            for _ in range(10):
                mu = random_measure(rng)
                lam = random_measure(rng)
                nu = harmonic_measure(mu, 2)
                assert cylinder_entropy(lam, nu, f) == pytest.approx(
                    closed_form_harmonic_entropy(lam, mu, f), abs=1e-10
                )

    @pytest.mark.parametrize("spec", ["kl", "chi2", "power:0.5"])
    def test_depth_7_matches_closed_form(self, spec):
        f = generator_from_string(spec)
        lam = GeneratorMeasure(2, {1: 0.15, -1: 0.15, 2: 0.35, -2: 0.35})
        nu = harmonic_measure(ASYM, 7)
        assert cylinder_entropy(lam, nu, f) == pytest.approx(
            closed_form_harmonic_entropy(lam, ASYM, f), abs=1e-10
        )

    def test_float32_weights_weigh_float64_terms(self):
        p = {1: 0.375, -1: 0.375, 2: 0.125, -2: 0.125}
        lam = GeneratorMeasure(2, p)
        lam32 = GeneratorMeasure(2, {j: np.float32(w) for j, w in p.items()})
        nu = harmonic_measure(ASYM, 3)
        for f in (KL, CHI2):
            assert cylinder_entropy(lam32, nu, f) == cylinder_entropy(lam, nu, f)

    def test_refuses_a_measure_far_from_one(self):
        lam = uniform_generator_measure(2)
        words = enumerate_words(2, 2)
        nu = CylinderMeasure(2, 2, {w: 0.5 / len(words) for w in words}, TailRule("uniform"))
        with pytest.raises(NotProbability, match=r"^cylinder total 0\.5 is not near 1$"):
            cylinder_entropy(lam, nu, KL)

    def test_zero_mass_cylinder_infinite_kl(self):
        qv = solve_q(uniform_generator_measure(2))
        masses = {w: 0.0 for w in enumerate_words(2, 1)}
        masses[(1,)] = 1.0
        nu = CylinderMeasure(2, 1, masses, TailRule("harmonic", qv))
        assert cylinder_entropy(uniform_generator_measure(2), nu, KL) == INF

    def test_depth_invariance(self):
        lam = uniform_generator_measure(2)
        nu = harmonic_measure(lam, 2)
        h2 = cylinder_entropy(lam, nu, KL)
        h4 = cylinder_entropy(lam, refine_to(nu, 4), KL)
        assert h4 == pytest.approx(h2, abs=1e-10)

    def test_uniform_fd_closed_form(self):
        for d in (2, 3, 4):
            lam = uniform_generator_measure(d)
            nu = harmonic_measure(lam, 1)
            expected = ((d - 1) / d) * math.log(2 * d - 1)
            assert cylinder_entropy(lam, nu, KL) == pytest.approx(expected, abs=1e-10)

    def test_convolve_matches_stationarity(self):
        mu = ASYM
        nu = harmonic_measure(mu, 3)
        conv = convolve(mu, nu, 2)
        for w in enumerate_words(2, 2):
            assert conv.mass(w) == pytest.approx(marginal(nu, 2).mass(w), abs=1e-12)


class TestTMap:
    def test_uniform_to_uniform(self):
        lam = t_map(uniform_generator_measure(2), KL)
        for j in letter_order(2):
            assert lam.p[j] == pytest.approx(0.25, abs=1e-14)

    def test_kl_closed_form(self):
        # for f = KL the denominator simplifies to 1/q - q - 2 ln q
        qv = solve_q(ASYM)
        lam = t_map(ASYM, KL)
        phi = {j: 1.0 / qv.q[j] - qv.q[j] - 2.0 * math.log(qv.q[j])
               for j in (1, 2)}
        ratio = lam.p[1] / lam.p[2]
        assert ratio == pytest.approx(phi[2] / phi[1], rel=1e-12)

    def test_ordering(self):
        qv = solve_q(ASYM)
        lam = t_map(ASYM, KL)
        phi = {j: 1.0 / qv.q[j] - qv.q[j] - 2.0 * math.log(qv.q[j])
               for j in (1, 2)}
        assert (lam.p[1] < lam.p[2]) == (phi[1] > phi[2])

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for f in (KL, CHI2):
            worst = 0.0
            for _ in range(100):
                mu = random_measure(rng)
                mu2 = t_inverse(t_map(mu, f), f)
                worst = max(worst, max(abs(mu.p[j] - mu2.p[j])
                                       for j in letter_order(2)))
            assert worst < 1e-8

    @pytest.mark.parametrize("alpha", [24.0, 30.0, -30.0])
    def test_t_inverse_overflow_is_typed(self, alpha):
        # Psi_f(1e-14) needs (1e14)^(alpha - 1) or 1e-14^alpha, past the float range
        f = ConvexGenerator("power", alpha)
        with pytest.raises(GeneratorOverflow, match=f"alpha = {alpha!r}"):
            t_inverse(uniform_generator_measure(2), f)
        # the T map itself stays finite at this q
        assert t_map(uniform_generator_measure(2), ConvexGenerator("power", 400.0)).p[1] == 0.25

    def test_t_inverse_uniform(self):
        mu = t_inverse(uniform_generator_measure(2), KL)
        for j in letter_order(2):
            assert mu.p[j] == pytest.approx(0.25, abs=1e-10)

    def test_t_inverse_recovers_asymmetric(self):
        lam = t_map(ASYM, KL)
        mu = t_inverse(lam, KL)
        assert mu.p[1] == pytest.approx(0.4, abs=1e-8)
        assert mu.p[2] == pytest.approx(0.1, abs=1e-8)

    def test_perturbation_sign_pattern(self):
        base = t_map(uniform_generator_measure(2), KL)
        eps = 1e-3
        lam = GeneratorMeasure(2, {1: 0.25 + eps, -1: 0.25 + eps,
                                   2: 0.25 - eps, -2: 0.25 - eps})
        mu = t_inverse(lam, KL)
        assert mu.p[1] > 0.25 > mu.p[2]
        assert base.p[1] == pytest.approx(0.25, abs=1e-12)


class TestMinimalityScan:
    def test_scan_reference_is_floor(self):
        lam = uniform_generator_measure(2)
        rep = minimality_scan(lam, KL, 2, 300, 5)
        assert rep["min_entropy"] >= rep["reference_entropy"] - 1e-9
        assert rep["theorem_A_violated"] is False
        assert rep["samples"] == 300

    def test_harmonic_masses_attain_reference(self):
        lam = uniform_generator_measure(2)
        mu = t_inverse(lam, KL)
        qv = solve_q(mu)
        engine = EntropyEngine(lam, KL, 2, TailRule("harmonic", qv))
        x = engine.mass_vector(harmonic_measure(mu, 2))
        nu = harmonic_measure(mu, 2)
        assert engine.entropy(x) == pytest.approx(
            cylinder_entropy(lam, nu, KL), abs=1e-12
        )

    def test_zeroed_samples_report_infinite(self):
        lam = uniform_generator_measure(2)
        rep = minimality_scan(lam, KL, 2, 400, 3, zero_fraction=0.5)
        assert rep["infinite_entropy_samples"] > 0

    @pytest.mark.parametrize("spec", ["kl", "chi2", "power:0.5", "power:2", "power:-1"])
    def test_engine_matches_cylinder_entropy(self, spec):
        # zeroed cylinders (infinite for some f) and uniform tails, where the
        # engine's matrices and the dict path must agree
        f = generator_from_string(spec)
        rng = np.random.default_rng(31)
        for k in range(12):
            mu, lam = random_measure(rng), random_measure(rng)
            nu = harmonic_measure(mu, 2)
            words = sorted(nu.masses)
            x = rng.dirichlet(np.ones(len(words)))
            if k % 2 == 0:
                x[rng.choice(len(words), size=1 + k % 3, replace=False)] = 0.0
                x /= x.sum()
            tail = TailRule("uniform") if k % 3 == 0 else nu.tail
            meas = CylinderMeasure(2, 2, {w: float(m) for w, m in zip(words, x)}, tail)
            engine = EntropyEngine(lam, f, 2, tail)
            h_engine = engine.entropy(engine.mass_vector(meas))
            h_dict = cylinder_entropy(lam, meas, f)
            if h_dict == INF:
                assert h_engine == INF
            else:
                assert h_engine == pytest.approx(h_dict, rel=1e-12)

    @pytest.mark.parametrize("d,depth", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (4, 2)])
    def test_gather_maps_match_dict_oracle(self, d, depth):
        # refinement and every translate against refine() and pushforward()
        rng = np.random.default_rng(70 + 10 * d + depth)
        lam, mu = random_measure(rng, d), random_measure(rng, d)
        words = enumerate_words(d, depth)
        words1 = enumerate_words(d, depth + 1)
        for tail in (TailRule("harmonic", solve_q(mu)), TailRule("uniform")):
            for zeroed in (False, True):
                x = rng.dirichlet(np.ones(len(words)))
                if zeroed:
                    x[rng.choice(len(words), size=max(1, len(words) // 4), replace=False)] = 0.0
                nu = CylinderMeasure(d, depth, {w: float(m) for w, m in zip(words, x)}, tail)
                engine = EntropyEngine(lam, KL, depth, tail)
                x = engine.mass_vector(nu)
                nu1 = refine(nu)
                np.testing.assert_allclose(
                    engine.refined(x), [nu1.mass(w) for w in words1], rtol=1e-14, atol=0)
                nu2 = refine(nu1)
                for j in letter_order(d):
                    oracle = pushforward(ReducedWord((j,), d), nu2, depth + 1)
                    np.testing.assert_allclose(
                        engine.translated(x, j), [oracle.mass(w) for w in words1],
                        rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                   2 * SAMPLE_BLOCK + 3])
    def test_scan_is_a_prefix_of_a_longer_scan(self, n):
        lam = uniform_generator_measure(2)
        fewer = minimality_scan(lam, KL, 2, n, 9)
        more = minimality_scan(lam, KL, 2, n + 1, 9)
        assert more["min_entropy"] <= fewer["min_entropy"] < INF
        assert more["infinite_entropy_samples"] - fewer["infinite_entropy_samples"] in (0, 1)
        assert fewer["infinite_entropy_samples"] > 0
        if more["min_entropy"] == fewer["min_entropy"]:
            # the first minimal sample is still the argmin
            assert more["argmin_masses"] == fewer["argmin_masses"]
            assert more["argmin_tail"] == fewer["argmin_tail"]

    @pytest.mark.parametrize("rows", [1, 100, SAMPLE_BLOCK - 1])
    def test_block_samples_do_not_depend_on_rows_used(self, rows):
        # with half the samples zeroed, a zeroing permutation drawn after the
        # Dirichlet rows would move with the number of rows
        x, uniform_tail = _scan_block(np.random.default_rng([3, 0]), rows + 1, 12, 0.5, 0.5)
        y, uniform_tail_y = _scan_block(np.random.default_rng([3, 0]), rows, 12, 0.5, 0.5)
        assert x[:rows].tobytes() == y.tobytes()
        assert (uniform_tail[:rows] == uniform_tail_y).all()
        assert np.allclose(x.sum(axis=1), 1.0)
        if rows > 1:
            assert 0 < np.count_nonzero((x == 0.0).any(axis=1)) < rows

    def test_scan_with_every_sample_infinite(self):
        # KL is infinite on every measure with a zero cylinder, and
        # zero_fraction = 1 zeroes at least one cylinder of every sample
        rep = minimality_scan(uniform_generator_measure(2), KL, 2, 50, 4, zero_fraction=1.0)
        assert rep["infinite_entropy_samples"] == 50
        assert rep["min_entropy"] == INF
        assert rep["argmin_masses"] == {}
        assert rep["argmin_tail"] is None
        assert rep["theorem_A_violated"] is False

    def test_byte_identical_reruns(self):
        """Two scans with the same inputs and seed give equal reports."""
        lam = uniform_generator_measure(2)
        r1 = minimality_scan(lam, KL, 2, 200, 17)
        r2 = minimality_scan(lam, KL, 2, 200, 17)
        assert r1 == r2

    # (d, depth) x zero_fraction x uniform_tail_fraction x samples, cycled per f
    SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4)]
    FRACTIONS = [(0.05, 0.1), (0.5, 0.0), (1.0, 1.0), (0.05, 1.0), (0.5, 0.1), (1.0, 0.0),
                 (0.05, 0.0), (1.0, 0.1), (0.5, 1.0)]
    SAMPLES = [1, 2000, 7, 300, 50]

    @pytest.mark.parametrize("spec", ["kl", "chi2", "power:0.5", "power:2", "power:-1"])
    def test_scan_matches_exhaustive_scan(self, spec):
        # the screen must leave every report as the exact entropy of every
        # sample gives it: the minimum, the first sample attaining it, its
        # tail and the infinite count
        f = generator_from_string(spec)
        rng = np.random.default_rng(sum(map(ord, spec)))
        for k, (d, depth) in enumerate(self.SHAPES):
            zero_fraction, uniform_tail_fraction = self.FRACTIONS[k % len(self.FRACTIONS)]
            samples = self.SAMPLES[k % len(self.SAMPLES)]
            if d == 3 and depth == 4:
                samples = min(samples, 300)
            lam = uniform_generator_measure(d) if k % 3 == 0 else random_measure(rng, d)
            args = (lam, f, depth, samples, 100 + k, zero_fraction, uniform_tail_fraction)
            assert minimality_scan(*args) == exhaustive_scan(*args), args

    def test_two_block_scan_matches_exhaustive_scan(self):
        args = (ASYM, KL, 3, SAMPLE_BLOCK + 1, 8, 0.5, 0.1)
        rep = minimality_scan(*args)
        assert rep == exhaustive_scan(*args)
        assert 0 < rep["infinite_entropy_samples"] < rep["samples"]

    def test_rows_the_screen_cannot_bound_take_the_exact_path(self):
        # power:22 overflows a term of one sample: the screen leaves it open
        # (low = -inf) and entropy() sums it to inf, which the count must include
        lam, f = uniform_generator_measure(2), ConvexGenerator("power", 22.0)
        engine = EntropyEngine(lam, f, 3, TailRule("uniform"))
        x = _scan_block(np.random.default_rng([3, 0]), 2000, len(engine.words_n), 0.0, 1.0)[0]
        low, high = engine._screen(x)
        open_rows = low == -INF
        assert open_rows.sum() == 1 and (high[open_rows] == INF).all()
        assert (engine.entropy(x[open_rows]) == INF).all()
        args = (lam, f, 3, 2000, 3, 0.0, 1.0)
        rep = minimality_scan(*args)
        assert rep == exhaustive_scan(*args)
        assert rep["infinite_entropy_samples"] == (low == INF).sum() + 1

    def test_screen_sends_few_rows_to_entropy(self, monkeypatch):
        # the exact path is the costly one; a screen that let most rows
        # through would keep every report and lose only the speed
        rows = []
        entropy = EntropyEngine.entropy

        def counted(engine, x):
            rows.append(1 if x.ndim == 1 else len(x))
            return entropy(engine, x)

        monkeypatch.setattr(EntropyEngine, "entropy", counted)
        rep = minimality_scan(uniform_generator_measure(2), KL, 3, 2000, 21)
        assert 0 < rep["infinite_entropy_samples"] < 2000 and rep["min_entropy"] < INF
        assert sum(rows) <= 8

    def test_all_infinite_scan_matches_exhaustive_scan(self):
        # zero_fraction 1 on the uniform measure: every KL sample ties at inf
        args = (uniform_generator_measure(2), KL, 3, 2000, 4, 1.0)
        rep = minimality_scan(*args)
        assert rep == exhaustive_scan(*args)
        assert rep["infinite_entropy_samples"] == 2000 and rep["argmin_tail"] is None

    def test_first_of_tied_samples_wins(self, monkeypatch):
        # under the uniform lambda and the uniform tail, the images of one
        # mass vector under the signed letter permutations of F_2 have equal
        # entropy bit for bit; planted in a zero_fraction 1 block, the first
        # of them must be the argmin
        lam, f, depth = uniform_generator_measure(2), generator_from_string("power:0.5"), 2
        engine = EntropyEngine(lam, f, depth, TailRule("uniform"))
        words = engine.words_n
        block = _scan_block(np.random.default_rng([6, 0]), 200, len(words), 1.0, 1.0)[0]
        own = int(np.argmin(engine.entropy(block)))  # the base row stays in the block too
        base = block[own]
        images = []
        for perm in ({1: 1, 2: 2}, {1: 2, 2: 1}, {1: -1, 2: 2}, {1: -2, 2: -1}):
            image = np.empty_like(base)
            image[word_index(np.sign(words) * np.vectorize(perm.get)(np.abs(words)), 2)] = base
            images.append(image)
        assert len({im.tobytes() for im in images}) == 4
        assert len({engine.entropy(im) for im in images}) == 1
        at = [30, 31, 90, 150]
        assert at[0] < own and own not in at

        def planted(rng, rows, m, zero_fraction, uniform_tail_fraction):
            x, uniform_tail = _scan_block(rng, rows, m, zero_fraction, uniform_tail_fraction)
            x[at] = images[::-1]
            return x, uniform_tail

        monkeypatch.setattr(free_boundary, "_scan_block", planted)
        args = (lam, f, depth, 200, 6, 1.0, 1.0)
        rep = minimality_scan(*args)
        assert rep == exhaustive_scan(*args)
        first = images[-1]
        assert rep["argmin_masses"] == {encode_word(w): float(v)
                                        for w, v in zip(words.tolist(), first)}


class TestGradient:
    def test_vanishes_at_harmonic(self):
        lam = uniform_generator_measure(2)
        g = entropy_gradient_at_harmonic(lam, KL, 2)
        assert np.abs(g).max() < 1e-6

    def test_nonzero_away_from_harmonic(self):
        lam = uniform_generator_measure(2)
        mu = t_inverse(lam, KL)
        qv = solve_q(mu)
        engine = EntropyEngine(lam, KL, 2, TailRule("harmonic", qv))
        rng = np.random.default_rng(6)
        x = rng.dirichlet(np.ones(len(engine.words_n)))
        g = gradient_of_masses(engine, x, min(1e-5, x.min() / 20))
        assert np.abs(g).max() > 1e-3

    def test_step_too_large(self):
        lam = uniform_generator_measure(2)
        with pytest.raises(StepTooLarge):
            entropy_gradient_at_harmonic(lam, KL, 2, h_step=0.5)

    @pytest.mark.parametrize("d, depth", [(2, n) for n in range(1, 6)]
                             + [(3, n) for n in range(1, 5)])
    def test_constant_at_harmonic(self, d, depth):
        # nu_mu minimises the entropy on the simplex, so there the gradient is
        # the constant Lagrange multiplier of sum x = 1 (KKT)
        for lam in (uniform_generator_measure(d), {2: ASYM, 3: ASYM3}[d]):
            for spec in ("kl", "chi2", "power:0.5", "power:2", "power:-1"):
                f = generator_from_string(spec)
                mu = t_inverse(lam, f)
                engine = EntropyEngine(lam, f, depth, TailRule("harmonic", solve_q(mu)))
                g = engine.gradient(engine.mass_vector(harmonic_measure(mu, depth)))
                assert g.max() - g.min() <= 1e-12, (spec, lam)
                assert (entropy_gradient_at_harmonic(lam, f, depth, h_step=1e-9).tolist()
                        == (g[:-1] - g[1:]).tolist())

    @pytest.mark.parametrize("spec", ["kl", "chi2", "power:0.5", "power:2", "power:-1"])
    def test_central_differences_converge_to_it(self, spec):
        # the central differences err by O(h^2): halving h cuts the gap ~4x
        f = generator_from_string(spec)
        rng = np.random.default_rng(12)
        lam, mu = random_measure(rng, 3), random_measure(rng, 3)
        for tail in (TailRule("harmonic", solve_q(mu)), TailRule("uniform")):
            engine = EntropyEngine(lam, f, 2, tail)
            x = rng.dirichlet(np.ones(len(engine.words_n)))
            g = engine.gradient(x)
            gaps = [np.abs(gradient_of_masses(engine, x, h) - (g[:-1] - g[1:])).max()
                    for h in (x.min() / 8, x.min() / 16)]
            assert 3.5 < gaps[0] / gaps[1] < 4.5, gaps

    def test_at_harmonic_makes_no_entropy_call(self, monkeypatch):
        calls = []
        entropy = EntropyEngine.entropy

        def counted(engine, x):
            calls.append(x.shape)
            return entropy(engine, x)

        monkeypatch.setattr(EntropyEngine, "entropy", counted)
        for d, depth in ((2, 3), (3, 2)):
            g = entropy_gradient_at_harmonic(uniform_generator_measure(d), KL, depth)
            assert np.abs(g).max() < 1e-12
        assert calls == []
        # the counter does see the central differences' one block
        engine = EntropyEngine(ASYM, KL, 2, TailRule("uniform"))
        x = np.full(len(engine.words_n), 1.0 / len(engine.words_n))
        gradient_of_masses(engine, x, 1e-5)
        assert calls == [(2 * (len(x) - 1), len(x))]

    @pytest.mark.parametrize("mass", [0.0, 1e-16, 2e-15])
    def test_cells_at_the_mass_floor_raise(self, mass):
        # a depth-(n+1) cell <= ZERO_MASS is on the entropy's p = 0 or q = 0
        # branch, where the formula is not its derivative; the check comes
        # before any division (the suite turns a RuntimeWarning into an error)
        engine = EntropyEngine(ASYM, KL, 2, TailRule("harmonic", solve_q(ASYM)))
        x = np.full(len(engine.words_n), 1.0 / len(engine.words_n))
        x[3] = mass
        with pytest.raises(MassBelowFloor, match="depth-3 cell"):
            engine.gradient(x)
        x[3] = 1e-13
        assert np.isfinite(engine.gradient(x)).all()

    @staticmethod
    def reference_gradient(engine, x, h_step):
        """Per-coordinate central differences, one engine call per shifted vector."""
        grad = np.zeros(len(x) - 1)
        for i in range(len(x) - 1):
            if x[i] - h_step < 0 or x[i + 1] - h_step < 0:
                raise StepTooLarge(f"h_step {h_step} would push mass {i} negative")
            plus = x.copy()
            plus[i] += h_step
            plus[i + 1] -= h_step
            minus = x.copy()
            minus[i] -= h_step
            minus[i + 1] += h_step
            grad[i] = (engine.entropy(plus) - engine.entropy(minus)) / (2.0 * h_step)
        return grad

    @pytest.mark.parametrize("spec", ["kl", "chi2", "power:0.5", "power:2", "power:-1"])
    def test_block_gradient_matches_reference_loop(self, spec):
        f = generator_from_string(spec)
        rng = np.random.default_rng(12)
        lam, mu = random_measure(rng, 3), random_measure(rng, 3)
        for tail in (TailRule("harmonic", solve_q(mu)), TailRule("uniform")):
            engine = EntropyEngine(lam, f, 2, tail)
            x = rng.dirichlet(np.ones(len(engine.words_n)))
            for h_step in (x.min() / 20, 1e-7, x.min(), x.min() * 1.001, x[1] * 1.5):
                try:
                    expected = self.reference_gradient(engine, x, h_step)
                except StepTooLarge as exc:
                    with pytest.raises(StepTooLarge, match=re.escape(str(exc))):
                        gradient_of_masses(engine, x, h_step)
                    continue
                got = gradient_of_masses(engine, x, h_step)
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected.tolist()]


class TestEntropyBlocks:
    @pytest.mark.parametrize("spec", ["kl", "power:-1"])
    def test_rows_match_single_vector_calls(self, spec):
        f = generator_from_string(spec)
        rng = np.random.default_rng(41)
        lam, mu = random_measure(rng), random_measure(rng)
        for tail in (TailRule("harmonic", solve_q(mu)), TailRule("uniform")):
            engine = EntropyEngine(lam, f, 2, tail)
            m = len(engine.words_n)
            step = ENTROPY_CELLS // len(engine.refine_src)
            x = rng.dirichlet(np.ones(m), size=step + 3)
            zeroed = rng.random(len(x)) < 0.2
            x[zeroed, rng.integers(0, m, size=int(zeroed.sum()))] = 0.0
            x /= x.sum(axis=1, keepdims=True)
            got = engine.entropy(x)
            expected = [engine.entropy(row) for row in x]
            assert all(type(v) is float for v in expected)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]
            assert INF in expected and min(expected) < INF

    @pytest.mark.parametrize("spec", ["kl", "chi2", "power:0.5", "power:2", "power:-1"])
    def test_screen_holds_the_entropy(self, spec):
        # low <= entropy <= high on every row, over more than one gathered
        # slice; rows are inf in the screen exactly where they are inf
        f = generator_from_string(spec)
        rng = np.random.default_rng(43)
        lam, mu = random_measure(rng, 3), random_measure(rng, 3)
        for tail in (TailRule("harmonic", solve_q(mu)), TailRule("uniform")):
            engine = EntropyEngine(lam, f, 2, tail)
            m = len(engine.words_n)
            x = _scan_block(rng, ENTROPY_CELLS // len(engine.refine_src) + 50, m, 0.3, 0.0)[0]
            x[:5] = x[5]  # identical rows
            h = engine.entropy(x)
            low, high = engine._screen(x)
            assert ((low <= h) & (h <= high)).all()
            finite = h < INF
            assert (low[~finite] == INF).all() and (high[~finite] == INF).all()
            assert 0 < finite.sum() < len(h) or spec == "power:0.5"
            assert (high[finite] - low[finite] < 1e-11 * np.maximum(1.0, h[finite])).all()



class TestSerialization:
    def test_generator_measure_round_trip(self):
        doc = ASYM.to_json()
        assert GeneratorMeasure.from_json(doc).p == ASYM.p

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_cylinder_measure_rejects_bad_masses(self, bad):
        masses = {w: 0.25 for w in enumerate_words(2, 1)}
        masses[(1,)] = bad
        with pytest.raises(NotProbability):
            CylinderMeasure(2, 1, masses, TailRule("uniform"))

    def test_cylinder_measure_round_trip(self):
        nu = harmonic_measure(ASYM, 2)
        doc = nu.to_json()
        back = CylinderMeasure.from_json(doc)
        assert back.depth == 2 and back.d == 2
        for w in nu.masses:
            assert back.mass(w) == pytest.approx(nu.mass(w), abs=1e-15)
        assert back.tail.kind == "harmonic"


def reference_engine_arrays(lam, depth, tail):
    """Index and coefficient arrays built per engine, as EntropyEngine did before
    its index data was shared: the oracle for _gather_maps."""
    d = lam.d
    words_n = word_array(d, depth)
    words = word_array(d, depth + 1)
    m1 = len(words)
    c = tail.conditional_table(d)
    pos = letter_positions(words, d)
    out = {"words_n": words_n, "refine_src": np.arange(m1) // (2 * d - 1),
           "refine_matrix": c[pos[:, -2], pos[:, -1]]}
    for j in letter_order(d):
        own = words[:, 0] == j
        src = np.empty(m1, dtype=np.int64)
        coef = np.ones(m1)
        src[own] = word_index(words[own, 1:], d)
        other = ~own
        u = np.hstack([np.full((int(other.sum()), 1), -j), words[other]])
        pu = letter_positions(u, d)
        src[other] = word_index(u[:, :depth], d)
        coef[other] = c[pu[:, -3], pu[:, -2]] * c[pu[:, -2], pu[:, -1]]
        out[f"push_src[{j}]"] = src
        out[f"push_matrices[{j}]"] = coef
    return out


def engine_arrays(engine):
    out = {"words_n": engine.words_n, "refine_src": engine.refine_src,
           "refine_matrix": engine.refine_matrix}
    for j in letter_order(engine.lam.d):
        out[f"push_src[{j}]"] = engine.push_src[j]
        out[f"push_matrices[{j}]"] = engine.push_matrices[j]
    return out


def clear_caches():
    for memo in (_gather_maps, _solve_q_memo, _t_inverse_memo):
        memo.cache_clear()


class TestGatherMaps:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_engine_arrays_equal_per_engine_construction(self, d, depth):
        rng = np.random.default_rng(100 + 10 * d + depth)
        lam, mu = random_measure(rng, d), random_measure(rng, d)
        for tail in (TailRule("harmonic", solve_q(mu)), TailRule("uniform")):
            got = engine_arrays(EntropyEngine(lam, KL, depth, tail))
            expected = reference_engine_arrays(lam, depth, tail)
            assert list(got) == list(expected)
            for name, a in expected.items():
                assert got[name].dtype == a.dtype, name
                assert np.array_equal(got[name], a), name

    def test_engines_of_one_shape_share_index_arrays(self):
        rng = np.random.default_rng(5)
        a = EntropyEngine(random_measure(rng), KL, 3, TailRule("uniform"))
        b = EntropyEngine(random_measure(rng), CHI2, 3,
                          TailRule("harmonic", solve_q(random_measure(rng))))
        assert a.words_n is b.words_n and a.refine_src is b.refine_src
        assert a.push_src is not b.push_src
        for j in letter_order(2):
            assert a.push_src[j] is b.push_src[j]
            assert a.push_matrices[j] is not b.push_matrices[j]
        assert a.refine_matrix is not b.refine_matrix
        other = EntropyEngine(a.lam, KL, 2, TailRule("uniform"))
        assert other.refine_src is not a.refine_src

    def test_shared_arrays_are_read_only(self):
        engine = EntropyEngine(uniform_generator_measure(2), KL, 2, TailRule("uniform"))
        for a in [engine.words_n, engine.refine_src, *engine.push_src.values()]:
            with pytest.raises(ValueError):
                a[0] = 0
        engine.refine_matrix[0] = engine.refine_matrix[0]  # the engine's own arrays stay writable

    def test_cache_size_is_fixed(self):
        assert _gather_maps.cache_info().maxsize == 8


class TestSolverMemo:
    def test_repeat_returns_a_fresh_qvector(self):
        a = solve_q(ASYM)
        b = solve_q(ASYM)
        assert a == b and a is not b and a.q is not b.q
        a.q[1] = 0.9
        assert solve_q(ASYM) == b and b.q[1] != 0.9

    def test_repeat_returns_a_fresh_measure(self):
        a = t_inverse(ASYM, KL)
        b = t_inverse(ASYM, KL)
        assert a == b and a is not b and a.p is not b.p
        a.p[1] = 0.9
        assert t_inverse(ASYM, KL) == b and b.p[1] != 0.9

    def test_key_does_not_depend_on_dict_order(self):
        clear_caches()
        reordered = GeneratorMeasure(2, dict(reversed(list(ASYM.p.items()))))
        assert list(reordered.p) != list(ASYM.p)
        mu = t_inverse(ASYM, KL)
        qv = solve_q(ASYM)
        misses = (_t_inverse_memo.cache_info().misses, _solve_q_memo.cache_info().misses)
        assert t_inverse(reordered, KL) == mu and solve_q(reordered) == qv
        assert (_t_inverse_memo.cache_info().misses,
                _solve_q_memo.cache_info().misses) == misses

    def test_tol_is_part_of_the_key(self):
        # ASYM's T-map back-residual is ~1e-16: within 1e-10, not within 1e-17
        t_inverse(ASYM, KL)
        with pytest.raises(NoConvergence):
            t_inverse(ASYM, KL, tol=1e-17)
        solve_q(ASYM)
        misses = _solve_q_memo.cache_info().misses
        solve_q(ASYM, tol=1e-11)
        assert _solve_q_memo.cache_info().misses == misses + 1

    def test_failures_raise_on_every_call(self):
        eps = 1e-9
        stiff = GeneratorMeasure(2, {1: (1 - eps) / 2, -1: (1 - eps) / 2,
                                     2: eps / 2, -2: eps / 2})
        f = generator_from_string("power:0.5")
        messages = []
        for _ in range(3):
            with pytest.raises(NoConvergence) as exc:
                t_inverse(stiff, f)
            messages.append(str(exc.value))
        assert len(set(messages)) == 1
        for _ in range(2):
            with pytest.raises(NoConvergence):
                t_inverse(ASYM, KL, tol=1e-17)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_bad_tol_raises_after_a_cached_success(self, tol):
        t_inverse(ASYM, KL)
        solve_q(ASYM)
        with pytest.raises(ParseError, match="tol must be positive and finite"):
            t_inverse(ASYM, KL, tol=tol)
        with pytest.raises(ParseError, match="tol must be positive and finite"):
            solve_q(ASYM, tol=tol)

    def test_cache_sizes_are_fixed(self):
        assert _solve_q_memo.cache_info().maxsize == 32
        assert _t_inverse_memo.cache_info().maxsize == 32

    def test_weight_type_is_part_of_the_key(self):
        # float32 weights compute in float32 and miss the q certificate, so a
        # float32 measure must not be answered from an equal float measure's entry
        exact = {1: 0.375, -1: 0.375, 2: 0.125, -2: 0.125}
        solve_q(GeneratorMeasure(2, exact))
        with pytest.raises(NoConvergence):
            solve_q(GeneratorMeasure(2, {j: np.float32(w) for j, w in exact.items()}))

    def test_scalar_solvers_load_no_numpy(self):
        script = ("import sys\n"
                  "from fentropy.divergence import KL\n"
                  "from fentropy.free_boundary import GeneratorMeasure, solve_q, t_inverse, t_map\n"
                  "mu = GeneratorMeasure(2, {1: 0.4, -1: 0.4, 2: 0.1, -2: 0.1})\n"
                  "for _ in range(2):\n"
                  "    solve_q(mu)\n"
                  "    t_map(mu, KL)\n"
                  "    t_inverse(mu, KL)\n"
                  "print('numpy' in sys.modules)\n")
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": SRC})
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"


class TestWarmColdDeterminism:
    CASES = [(2, "kl", 3), (2, "power:0.5", 2), (3, "chi2", 2)]

    @staticmethod
    def outputs(d, spec, depth):
        rng = np.random.default_rng(60 + d)
        lam, f = random_measure(rng, d), generator_from_string(spec)
        rep = minimality_scan(lam, f, depth, 700, 13)
        grad = entropy_gradient_at_harmonic(lam, f, depth, h_step=1e-7)
        return rep, grad.tobytes()

    @staticmethod
    def fill_caches():
        # other lambdas and (d, depth) shapes, past every memo's size
        rng = np.random.default_rng(99)
        for k in range(40):
            d = 2 + k % 3
            lam = random_measure(rng, d)
            solve_q(t_inverse(lam, KL))
            EntropyEngine(lam, KL, 1 + k % 5, TailRule("uniform"))

    def test_cold_warm_and_evicted_runs_agree(self):
        clear_caches()
        cold = [self.outputs(*case) for case in self.CASES]
        warm = [self.outputs(*case) for case in self.CASES]
        self.fill_caches()
        evicted = [self.outputs(*case) for case in self.CASES]
        assert warm == cold and evicted == cold
