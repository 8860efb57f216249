import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fentropy.divergence import CHI2, INF, KL, ConvexGenerator, generator_from_string
from fentropy.errors import (
    DepthMismatch,
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
    TailRule,
    _brent,
    _scan_block,
    closed_form_harmonic_entropy,
    convolve,
    cylinder_entropy,
    entropy_gradient_at_harmonic,
    gradient_of_masses,
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
from fentropy.words import ReducedWord, enumerate_words, letter_order

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
        marg = nu.marginal(2)
        direct = harmonic_measure(ASYM, 2)
        for w in direct.masses:
            assert marg.mass(w) == pytest.approx(direct.mass(w), abs=1e-14)

    def test_refine_inverts_marginal(self):
        nu = harmonic_measure(ASYM, 2)
        again = nu.refine().marginal(2)
        for w in nu.masses:
            assert again.mass(w) == pytest.approx(nu.mass(w), abs=1e-14)

    def test_stationarity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            mu = random_measure(rng)
            nu = harmonic_measure(mu, 4)
            for depth in (1, 2, 3):
                assert stationarity_residual(mu, nu, depth) < 1e-12


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


class TestTranslateMass:
    @pytest.mark.parametrize("mu", [ASYM, ASYM3], ids=["F2", "F3"])
    def test_matches_pushforward(self, mu):
        qv = solve_q(mu)
        kinds = set()
        for w in ((1,), (2, -1), (1, 1, 2)):
            for r in range(4):
                nu = harmonic_measure(mu, len(w) + r)
                for g in enumerate_words(mu.d, r):
                    oracle = pushforward(ReducedWord(g, mu.d), nu, len(w)).mass(w)
                    assert abs(translate_mass(qv, g, w) - oracle) <= 1e-14, (g, w)
                    # g^-1 cancels the common prefix of g and w
                    c = next((k for k in range(len(w)) if g[k:k + 1] != w[k:k + 1]), len(w))
                    kinds.add("none" if c == 0 else "partial" if c < len(w) else "full")
        assert kinds == {"none", "partial", "full"}

    def test_empty_word_rejected(self):
        with pytest.raises(DepthMismatch):
            translate_mass(solve_q(ASYM), (1,), ())


class TestCylinderEntropy:
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
        h4 = cylinder_entropy(lam, nu.refine_to(4), KL)
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
            assert conv.mass(w) == pytest.approx(nu.marginal(2).mass(w), abs=1e-12)


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
                nu1 = nu.refine()
                np.testing.assert_allclose(
                    engine.refined(x), [nu1.mass(w) for w in words1], rtol=1e-14, atol=0)
                nu2 = nu1.refine()
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

    def test_determinism_across_worker_counts(self, monkeypatch):
        lam = uniform_generator_measure(2)
        monkeypatch.setenv("FE_THREADS", "1")
        r1 = minimality_scan(lam, KL, 2, 200, 17)
        monkeypatch.setenv("FE_THREADS", "8")
        r8 = minimality_scan(lam, KL, 2, 200, 17)
        assert r1 == r8


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
    @pytest.mark.parametrize("normalise", [False, True])
    def test_rows_match_single_vector_calls(self, spec, normalise):
        f = generator_from_string(spec)
        rng = np.random.default_rng(41)
        lam, mu = random_measure(rng), random_measure(rng)
        for tail in (TailRule("harmonic", solve_q(mu)), TailRule("uniform")):
            engine = EntropyEngine(lam, f, 2, tail, normalise=normalise)
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

    def test_block_refuses_a_row_far_from_one(self):
        lam = uniform_generator_measure(2)
        engine = EntropyEngine(lam, KL, 2, TailRule("uniform"), normalise=True)
        x = np.full((3, len(engine.words_n)), 1.0 / len(engine.words_n))
        x[1] *= 0.5
        with pytest.raises(NotProbability) as one:
            engine.entropy(x[1])
        with pytest.raises(NotProbability) as block:
            engine.entropy(x)
        assert str(block.value) == str(one.value)


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
