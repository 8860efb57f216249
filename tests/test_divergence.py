import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fentropy.divergence import (
    CHI2,
    INF,
    KL,
    PROB_TOL,
    ZERO_MASS,
    ConvexGenerator,
    FiniteMeasure,
    MeasureFamily,
    _divergence_terms,
    divergence_arrays,
    divergence_bounds,
    f_divergence,
    furstenberg_entropy,
    generator_from_string,
)
from fentropy.errors import AtomMismatch, MissingTranslate, NotProbability, ParseError


def P(*masses):
    return FiniteMeasure({i: m for i, m in enumerate(masses)})


class TestGenerators:
    def test_kl_values(self):
        assert KL.eval(1.0) == 0.0
        assert KL.at_zero == 0.0
        assert KL.at_infinity_slope == INF

    def test_chi2_values(self):
        assert CHI2.eval(1.0) == 0.0
        assert CHI2.eval(3.0) == 4.0
        assert CHI2.at_zero == 1.0
        assert CHI2.at_infinity_slope == INF

    def test_power_alpha_half(self):
        f = ConvexGenerator("power", 0.5)
        # (t^a - 1)/(a(a-1)) at t=4: (2-1)/(-0.25) = -4
        assert f.eval(4.0) == pytest.approx(-4.0)
        assert f.at_zero == pytest.approx(4.0)
        assert f.at_infinity_slope == 0.0

    def test_power_negative_alpha_blows_up_at_zero(self):
        f = ConvexGenerator("power", -1.0)
        assert f.at_zero == INF

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from(["kl", "chi2"]),
                     st.floats(allow_nan=False, allow_infinity=False)
                     .filter(lambda a: a not in (0.0, 1.0))))
    def test_slope_at_infinity_is_zero_or_infinite(self, kind):
        # divergence_arrays adds no term for escaped mass: f'(inf) p is 0 or inf
        f = ConvexGenerator(kind) if isinstance(kind, str) else ConvexGenerator("power", kind)
        assert f.at_infinity_slope in (0.0, INF)

    def test_deriv_matches_finite_differences(self):
        h = 1e-7
        for f in (KL, CHI2, ConvexGenerator("power", 0.5),
                  ConvexGenerator("power", 3.0)):
            for t in np.geomspace(0.01, 100.0, 40):
                fd = (f.eval(t + h) - f.eval(t - h)) / (2 * h)
                assert f.deriv(t) == pytest.approx(fd, rel=1e-6)

    def test_deriv_array_matches_deriv(self):
        t = np.geomspace(1e-3, 1e3, 41)
        for f in (KL, CHI2, ConvexGenerator("power", 0.5), ConvexGenerator("power", -1.0)):
            # numpy's log and power may differ from math's in the last bit
            assert f.deriv_array(t).tolist() == pytest.approx([f.deriv(v) for v in t.tolist()],
                                                              rel=1e-15, abs=1e-15)

    def test_parse_round_trip(self):
        for s in ("kl", "chi2", "power:0.5", "power:3"):
            f = generator_from_string(s)
            assert generator_from_string(f.spec_string) == f

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            generator_from_string("hellinger")
        with pytest.raises(ParseError):
            generator_from_string("power:1")


class TestFDivergence:
    def test_identity_is_zero(self):
        p = P(0.5, 0.5)
        assert f_divergence(p, p, KL) == 0.0

    def test_two_atom_kl(self):
        val = f_divergence(P(0.75, 0.25), P(0.5, 0.5), KL)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert val == pytest.approx(expected, abs=1e-15)
        assert val == pytest.approx(0.1308, abs=1e-4)

    def test_mass_escaping_to_null_set_is_infinite(self):
        # P charges an atom where Q vanishes and f'(inf) = inf
        val = f_divergence(P(0.5, 0.5, 0.0), P(0.5, 0.0, 0.5), KL)
        assert val == INF

    def test_escaped_mass_finite_slope(self):
        f = ConvexGenerator("power", 0.5)  # f'(inf) = 0
        val = f_divergence(P(0.5, 0.5, 0.0), P(0.5, 0.0, 0.5), f)
        assert math.isfinite(val)
        # f(0+) q = 4 * 0.5 on the p = 0 atom; the escaped atom adds 0
        assert val == 2.0

    def test_zero_p_atom_uses_f_at_zero(self):
        # chi2: f(0+) = 1 contributes q
        val = f_divergence(P(1.0, 0.0), P(0.5, 0.5), CHI2)
        assert val == pytest.approx((1.0 / 0.5 - 1) ** 2 * 0.5 + 1.0 * 0.5)

    def test_atom_mismatch(self):
        with pytest.raises(AtomMismatch):
            f_divergence(P(1.0), FiniteMeasure({"x": 1.0}), KL)

    def test_not_probability(self):
        with pytest.raises(NotProbability):
            f_divergence(P(0.5, 0.4), P(0.5, 0.5), KL)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_mass_rejected(self, bad):
        with pytest.raises(NotProbability):
            FiniteMeasure({"a": bad, "b": 1.0})

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for f in (KL, CHI2, ConvexGenerator("power", 0.5)):
            for _ in range(50):
                p = rng.dirichlet(np.ones(5))
                q = rng.dirichlet(np.ones(5))
                assert f_divergence(P(*p), P(*q), f) >= 0.0

    def test_data_processing(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            pi = {i: i % 3 for i in range(6)}
            full = f_divergence(P(*p), P(*q), KL)
            coarse = f_divergence(
                P(*p).pushforward(pi.get), P(*q).pushforward(pi.get), KL
            )
            assert coarse <= full + 1e-12

    def test_joint_convexity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p1, p2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            q1, q2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            t = rng.random()
            mix = f_divergence(P(*(t * p1 + (1 - t) * p2)),
                               P(*(t * q1 + (1 - t) * q2)), KL)
            sep = (t * f_divergence(P(*p1), P(*q1), KL)
                   + (1 - t) * f_divergence(P(*p2), P(*q2), KL))
            assert mix <= sep + 1e-12

    def test_product_invariance(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        nu = rng.dirichlet(np.ones(3))
        prod_p = FiniteMeasure({(i, k): p[i] * nu[k]
                                for i in range(4) for k in range(3)})
        prod_q = FiniteMeasure({(i, k): q[i] * nu[k]
                                for i in range(4) for k in range(3)})
        assert f_divergence(prod_p, prod_q, KL) == pytest.approx(
            f_divergence(P(*p), P(*q), KL), abs=1e-14
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
           st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
    def test_property_nonnegative_and_zero_iff_equal(self, ws, vs):
        n = min(len(ws), len(vs))
        p = np.array(ws[:n]) / sum(ws[:n])
        q = np.array(vs[:n]) / sum(vs[:n])
        d = f_divergence(P(*p), P(*q), CHI2)
        assert d >= 0.0
        assert f_divergence(P(*p), P(*p), CHI2) == 0.0


GENERATORS = [KL, CHI2, ConvexGenerator("power", 0.5), ConvexGenerator("power", 2.0),
              ConvexGenerator("power", -1.0)]


def scalar_divergence(p, q, f):
    """Per-atom oracle for divergence_arrays, one branch per Csiszar convention."""
    terms, escaped = [], []
    for pi, qi in zip(p, q):
        if qi <= ZERO_MASS:
            if pi > ZERO_MASS:
                escaped.append(pi)
        elif pi <= ZERO_MASS:
            if f.at_zero == INF:
                return INF
            terms.append(f.at_zero * qi)
        else:
            terms.append(f.eval(pi / qi) * qi)
    if escaped:
        if f.at_infinity_slope == INF:
            return INF
        terms.append(math.fsum(escaped) * f.at_infinity_slope)
    value = math.fsum(terms)
    return 0.0 if -PROB_TOL < value < 0.0 else value


@st.composite
def probability_vectors(draw, n):
    """A probability vector whose atoms may be exact zeros or below ZERO_MASS."""
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    kinds = draw(st.lists(st.sampled_from(["mass", "mass", "zero", "tiny"]),
                          min_size=n, max_size=n))
    if "mass" not in kinds:
        kinds[0] = "mass"
    kinds = np.array(kinds)
    w[kinds != "mass"] = 0.0
    w /= w.sum()
    w[kinds == "tiny"] = 3e-16
    return w


@st.composite
def probability_pairs(draw):
    n = draw(st.integers(1, 8))
    return draw(probability_vectors(n)), draw(probability_vectors(n))


class TestDivergenceArrays:
    @settings(max_examples=150, deadline=None)
    @given(probability_pairs(), st.sampled_from(GENERATORS))
    def test_matches_scalar_oracle(self, pq, f):
        p, q = pq
        got = divergence_arrays(p, q, f)
        expected = scalar_divergence(p.tolist(), q.tolist(), f)
        if expected == INF:
            assert got == INF
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(GENERATORS), st.booleans())
    def test_rows_match_one_dimensional_calls(self, data, f, shared_q):
        n = data.draw(st.integers(1, 8))
        rows = data.draw(st.integers(1, 5))
        p = np.array([data.draw(probability_vectors(n)) for _ in range(rows)])
        if shared_q:
            q = data.draw(probability_vectors(n))
            q_rows = [q] * rows
        else:
            q = np.array([data.draw(probability_vectors(n)) for _ in range(rows)])
            q_rows = list(q)
        got = divergence_arrays(p, q, f)
        assert got.shape == (rows,)
        expected = [divergence_arrays(p[r], q_rows[r], f) for r in range(rows)]
        assert all(type(v) is float for v in expected)
        assert [float(v).hex() for v in got] == [v.hex() for v in expected]

    @pytest.mark.parametrize("f", [KL, ConvexGenerator("power", -1.0)], ids=["kl", "power-1"])
    def test_infinite_rows_next_to_finite_ones(self, f):
        # row 0: mass escapes to a q = 0 atom (f'(inf) = inf for KL); row 1:
        # p = 0 < q (f(0+) = inf for power:-1); row 2 is finite for both
        q = np.array([0.0, 0.5, 0.5])
        p = np.array([[0.2, 0.4, 0.4], [0.0, 0.0, 1.0], [0.0, 0.3, 0.7]])
        got = divergence_arrays(p, q, f)
        assert [float(v).hex() for v in got] == [
            divergence_arrays(row, q, f).hex() for row in p]
        assert got[0 if f is KL else 1] == INF and got[2] < INF

    @settings(max_examples=150, deadline=None)
    @given(probability_pairs(), st.sampled_from(GENERATORS))
    def test_nonnegative_and_zero_on_the_diagonal(self, pq, f):
        p, q = pq
        assert divergence_arrays(p, q, f) >= 0.0
        assert divergence_arrays(p, p, f) == 0.0

    @pytest.mark.parametrize("f", [KL, CHI2, ConvexGenerator("power", 0.5)],
                             ids=["kl", "chi2", "power0.5"])
    def test_long_row_is_summed_without_a_list_of_its_terms(self, f):
        # one 2^20-atom row with exact zeros in p: the value is math.fsum of
        # the row's terms, and the call holds less than 3 rows' bytes at once
        # (a list of the row's floats alone takes 4)
        rng = np.random.default_rng(26)
        n = 2 ** 20
        p, q = rng.random(n), rng.random(n)
        p[rng.random(n) < 0.01] = 0.0
        p /= p.sum()
        q /= q.sum()
        terms, infinite = _divergence_terms(p[None, :], q[None, :], f)
        assert not infinite[0]
        want = math.fsum(terms[0].tolist())
        del terms
        tracemalloc.start()
        try:
            got = divergence_arrays(p, q, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == want.hex()
        assert peak < 3 * p.nbytes


def bounds_block(rng, rows, n):
    """Seeded (p, q) rows for divergence_bounds: Dirichlet pairs with exact zeros
    and masses below ZERO_MASS, rows near the diagonal (whose terms mostly
    cancel, with both signs for KL), rows whose p is q scaled just below 1
    (every KL term negative, the fsum in the clamp's range), and the last
    three rows copies of the fourth from last."""
    p = rng.dirichlet(np.full(n, 0.3), rows)
    q = rng.dirichlet(np.full(n, 0.3), rows)
    p[rng.random((rows, n)) < 0.1] = 0.0
    q[rng.random((rows, n)) < 0.05] = 3e-16
    near = np.arange(rows) % 4 == 1
    p[near] = q[near] * (1.0 + rng.uniform(-1e-9, 1e-9, (int(near.sum()), n)))
    scaled = np.arange(rows) % 4 == 2
    p[scaled] = q[scaled] * (1.0 - 1e-13)
    p[-3:], q[-3:] = p[-4], q[-4]
    return p, q


class TestDivergenceBounds:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("f", GENERATORS, ids=lambda f: f.spec_string)
    def test_radius_bounds_the_exact_value(self, f, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 40, 300):
            p, q = bounds_block(rng, 64, n)
            for q_arg in (q, q[0]):
                exact = divergence_arrays(p, q_arg, f)
                s, r = divergence_bounds(p, q_arg, f)
                assert (s[-3:] == s[-4]).all() and (r[-3:] == r[-4]).all()
                inf = exact == INF
                assert (s[inf] == INF).all() and (r[inf] == 0.0).all()
                exact, s, r = exact[~inf], s[~inf], r[~inf]
                assert (np.abs(exact - s) <= r).all()
                assert (r < 1e-11 * np.maximum(1.0, np.abs(s))).all()

    def test_kl_rows_with_both_signs_and_the_clamp(self):
        p, q = bounds_block(np.random.default_rng(5), 64, 40)
        both = (p > ZERO_MASS) & (q > ZERO_MASS)
        terms = np.zeros_like(p)
        terms[both] = p[both] * np.log(p[both] / q[both])
        assert ((terms < 0).any(axis=1) & (terms > 0).any(axis=1)).sum() > 10
        exact = divergence_arrays(p, q, KL)
        s, r = divergence_bounds(p, q, KL)
        # the clamp moved these rows from below zero by more than the summation error
        clamped = (exact == 0.0) & (s < 0.0)
        assert clamped.sum() > 5
        assert (np.abs(exact[clamped] - s[clamped]) <= r[clamped]).all()
        assert (-s[clamped] > 1e3 * 2.0**-53 * np.abs(terms[clamped]).sum(axis=1)).all()

    def test_overflowed_terms_get_an_infinite_radius(self):
        # (p/q)^30 overflows in row 0, so the row is not flagged infinite, yet
        # its plain sum proves nothing; row 1 is finite
        f = ConvexGenerator("power", 30.0)
        p = np.array([[0.5, 0.5, 0.0], [2e-14, 0.5 - 1e-14, 0.5 - 1e-14]])
        q = np.array([1e-14, 0.5, 0.5 - 1e-14])
        s, r = divergence_bounds(p, q, f)
        assert r[0] == INF and divergence_arrays(p[0], q, f) == INF
        assert r[1] < INF and abs(divergence_arrays(p[1], q, f) - s[1]) <= r[1]
        # finite terms whose magnitudes reach 2^1020, where math.fsum could overflow
        p, q = np.array([[1e154, 1.0], [1e153, 1.0]]), np.array([1.0, 1.0])
        s, r = divergence_bounds(p, q, ConvexGenerator("power", 2.0))
        assert r[0] == INF and r[1] < INF


class TestMeasureFamily:
    def test_single_translate_is_plain_divergence(self):
        base = P(0.5, 0.5)
        tr = P(0.75, 0.25)
        fam = MeasureFamily(base, {"g": tr}, FiniteMeasure({"g": 1.0}))
        assert furstenberg_entropy(fam, KL) == f_divergence(tr, base, KL)

    def test_uniform_free_group_value(self):
        # depth-1 boundary family of the rank-2 simple walk: the translate by
        # a_j has density 1/q on C_{a_j} and q elsewhere, q = 1/3, v = 1/4
        q, v = 1.0 / 3.0, 0.25
        base = P(v, v, v, v)
        translates = {}
        for j in range(4):
            masses = [q * v] * 4
            masses[j] = v / q
            translates[j] = P(*masses)
        lam = P(0.25, 0.25, 0.25, 0.25)
        fam = MeasureFamily(base, translates, lam)
        assert furstenberg_entropy(fam, KL) == pytest.approx(
            0.5 * math.log(3.0), abs=1e-12
        )

    def test_missing_translate(self):
        fam = MeasureFamily(P(1.0), {}, FiniteMeasure({"g": 1.0}))
        with pytest.raises(MissingTranslate):
            furstenberg_entropy(fam, KL)

    def test_entropy_decreases_under_factors(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            base = rng.dirichlet(np.ones(6))
            tr = rng.dirichlet(np.ones(6))
            pi = {i: i // 2 for i in range(6)}
            fam = MeasureFamily(P(*base), {"g": P(*tr)},
                                FiniteMeasure({"g": 1.0}))
            fam2 = MeasureFamily(
                P(*base).pushforward(pi.get),
                {"g": P(*tr).pushforward(pi.get)},
                FiniteMeasure({"g": 1.0}),
            )
            assert furstenberg_entropy(fam2, KL) <= furstenberg_entropy(fam, KL) + 1e-12
