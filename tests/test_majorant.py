import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from oracles import bisection_largest_feasible, illinois_largest_feasible

from fentropy.divergence import FiniteMeasure
from fentropy.errors import (
    BadSample,
    InvalidWeight,
    NotSuperlinear,
    ParseError,
    TooManyAtoms,
    ValidationError,
)
from fentropy import majorant
from fentropy.majorant import (
    _GRID,
    Majorant,
    WeightedFunction,
    _positive_atoms,
    _sorted_unique,
    combine,
    concave_envelope,
    conditional_expectation,
    majorant_for_measure,
    power_majorant,
    rho_abs_continuity,
    rho_norm,
    split_integrable,
    vallee_poussin,
)


def rand_instance(rng, k=12, scale=2.0):
    w = rng.dirichlet(np.ones(k))
    vals = rng.normal(0.0, scale, k)
    nu = FiniteMeasure({str(i): float(w[i]) for i in range(k)})
    f = WeightedFunction(nu, {str(i): float(vals[i]) for i in range(k)})
    return nu, f


def exhaustive_norm(f, rho):
    labels = [k for k in f.space.labels() if f.space.mass(k) > 0]
    best = 0.0
    for r in range(1, len(labels) + 1):
        for sub in itertools.combinations(labels, r):
            nu_a = sum(f.space.mass(x) for x in sub)
            int_a = sum(abs(f.values[x]) * f.space.mass(x) for x in sub)
            if rho.eval(nu_a) > 0:
                best = max(best, int_a / rho.eval(nu_a))
    return best


class TestMajorantGauge:
    def test_power_endpoints_and_values(self):
        rho = power_majorant(2.0)
        rho.validate()
        assert rho.eval(0.0) == 0.0
        assert rho.eval(1.0) == 1.0
        assert rho.eval(0.25) == pytest.approx(0.5)

    def test_dominates_diagonal(self):
        for q in (1.0, 1.5, 2.0, 4.0):
            rho = power_majorant(q)
            for t in np.linspace(0, 1, 101):
                assert rho.eval(t) >= t - 1e-15

    def test_pwl_validation_rejects_nonconcave(self):
        bad = Majorant("pwl", ts=(0.0, 0.5, 1.0), ys=(0.0, 0.2, 1.0))
        with pytest.raises(Exception):
            bad.validate()

    @pytest.mark.parametrize("ts, ys, message", [
        ((0.0, 1.0), (0.0, 0.9), r"rho\(0\)=0, rho\(1\)=1"),
        ((0.0, 0.5, 1.0), (0.0, 0.3, 1.0), "dominate the diagonal"),
        ((0.0, 0.5, 0.8, 1.0), (0.0, 0.9, 0.85, 1.0), "non-decreasing"),
        ((0.0, 0.2, 0.4, 1.0), (0.0, 0.5, 0.55, 1.0), "concave"),
        # convex corner on a grid point: the midpoint test cannot see it,
        # but rho(1/4) + rho(1/4) < rho(1/2)
        ((0.0, 0.25, 0.5, 1.0), (0.0, 0.25, 0.6, 1.0), "sub-additive"),
    ], ids=["endpoints", "diagonal", "monotone", "concave", "subadditive"])
    def test_validate_names_the_failed_condition(self, ts, ys, message):
        with pytest.raises(ValidationError, match=message):
            Majorant("pwl", ts=ts, ys=ys).validate()

    def test_breakpoint_cache_leaves_value_semantics(self):
        rho = concave_envelope([[0, 0], [0.3, 0.6], [0.7, 0.9], [1, 1]])
        twin = Majorant.from_json(rho.to_json())
        before = (hash(rho), repr(rho), json.dumps(rho.to_json()))
        ys = rho.eval_array(np.linspace(0.0, 1.0, 9))
        assert ys.tolist() == np.interp(np.linspace(0.0, 1.0, 9), rho.ts, rho.ys).tolist()
        assert (hash(rho), repr(rho), json.dumps(rho.to_json())) == before
        assert rho == twin and hash(rho) == hash(twin)

    def test_json_round_trip(self):
        for rho in (power_majorant(2.0),
                    concave_envelope([[0, 0], [0.4, 0.7], [1, 1]])):
            back = Majorant.from_json(rho.to_json())
            for t in np.linspace(0, 1, 33):
                assert back.eval(t) == pytest.approx(rho.eval(t), abs=1e-15)


class TestCombine:
    def test_compose_powers(self):
        out = combine("compose", [power_majorant(2.0), power_majorant(2.0)])
        assert out.kind == "power" and out.q == pytest.approx(4.0)

    def test_cap_one_is_identity(self):
        rho = power_majorant(3.0)
        assert combine("cap", [rho], K=1.0) is rho

    def test_mix_pointwise(self):
        out = combine("mix", [power_majorant(1.0), power_majorant(2.0)],
                      weights=[0.5, 0.5])
        assert out.eval(0.25) == pytest.approx(0.5 * 0.25 + 0.5 * 0.5, abs=1e-9)

    def test_max_dominates_both(self):
        a, b = power_majorant(2.0), concave_envelope([[0, 0], [0.1, 0.8], [1, 1]])
        out = combine("max", [a, b])
        for t in np.linspace(0, 1, 101):
            assert out.eval(t) >= max(a.eval(t), b.eval(t)) - 1e-9

    def test_all_outputs_validate(self):
        a, b = power_majorant(2.0), power_majorant(1.5)
        for op, kw in (("compose", {}), ("max", {}),
                       ("mix", {"weights": [0.3, 0.7]})):
            combine(op, [a, b], **kw).validate()
        combine("cap", [a], K=2.0).validate()

    def test_bad_weights(self):
        with pytest.raises(InvalidWeight):
            combine("mix", [power_majorant(2.0)], weights=[0.5])
        with pytest.raises(InvalidWeight):
            combine("cap", [power_majorant(2.0)], K=0.5)


class TestRhoNorm:
    def test_constant_function(self):
        nu = FiniteMeasure({"a": 0.3, "b": 0.7})
        f = WeightedFunction(nu, {"a": 4.0, "b": 4.0})
        for q in (1.0, 2.0, 3.0):
            assert rho_norm(f, power_majorant(q)) == pytest.approx(4.0, abs=1e-12)

    def test_two_atom_example(self):
        nu = FiniteMeasure({"x": 0.5, "y": 0.5})
        f = WeightedFunction(nu, {"x": 10.0, "y": 0.0})
        assert rho_norm(f, power_majorant(2.0)) == pytest.approx(
            5.0 / math.sqrt(0.5), abs=1e-12
        )

    def test_linear_gauge_gives_sup_norm(self):
        nu = FiniteMeasure({"x": 0.5, "y": 0.5})
        f = WeightedFunction(nu, {"x": 3.0, "y": 7.0})
        assert rho_norm(f, power_majorant(1.0)) == pytest.approx(7.0, abs=1e-12)

    def test_exact_matches_exhaustive(self):
        rng = np.random.default_rng(12)
        rho = power_majorant(2.0)
        for _ in range(20):
            nu, f = rand_instance(rng, k=8)
            assert rho_norm(f, rho, mode="exact") == pytest.approx(
                exhaustive_norm(f, rho), abs=1e-12
            )

    def test_prefix_lower_bounds_exact(self):
        rng = np.random.default_rng(13)
        rho = power_majorant(2.0)
        for _ in range(50):
            nu, f = rand_instance(rng, k=10)
            assert (rho_norm(f, rho, mode="prefix")
                    <= rho_norm(f, rho, mode="exact") + 1e-12)

    def test_atom_cap(self):
        nu = FiniteMeasure({str(i): 1.0 / 25 for i in range(25)})
        f = WeightedFunction(nu, {str(i): 1.0 for i in range(25)})
        with pytest.raises(TooManyAtoms):
            rho_norm(f, power_majorant(2.0), mode="exact")

    def test_contraction_under_conditioning(self):
        rng = np.random.default_rng(14)
        rho = power_majorant(2.0)
        for _ in range(30):
            nu, f = rand_instance(rng, k=10)
            g = conditional_expectation(f, lambda x: int(x) % 3)
            assert rho_norm(g, rho) <= rho_norm(f, rho) + 1e-12

    def test_integral_inequality(self):
        rng = np.random.default_rng(15)
        rho = power_majorant(2.0)
        for _ in range(200):
            nu, f = rand_instance(rng, k=8)
            f = WeightedFunction(nu, {k: abs(v) for k, v in f.values.items()})
            phi = {k: float(rng.random()) for k in nu.labels()}
            lhs = sum(f.values[k] * phi[k] * nu.mass(k) for k in nu.labels())
            int_phi = sum(phi[k] * nu.mass(k) for k in nu.labels())
            assert lhs <= rho_norm(f, rho) * rho.eval(int_phi) + 1e-10


class TestAbsoluteContinuity:
    def test_measure_vs_itself(self):
        nu = FiniteMeasure({"a": 0.6, "b": 0.4})
        assert rho_abs_continuity(nu, nu, power_majorant(2.0)) is True

    def test_atom_on_null_set(self):
        m = FiniteMeasure({"a": 1.0, "b": 0.0})
        nu = FiniteMeasure({"a": 0.0, "b": 1.0})
        assert rho_abs_continuity(m, nu, power_majorant(2.0)) is False

    def test_three_subset_example(self):
        m = FiniteMeasure({"a": 0.9, "b": 0.1})
        nu = FiniteMeasure({"a": 0.5, "b": 0.5})
        assert rho_abs_continuity(m, nu, power_majorant(2.0)) is False

    def test_constructed_majorant_works(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            k = 8
            w = rng.dirichlet(np.ones(k))
            v = rng.dirichlet(np.ones(k))
            m = FiniteMeasure({str(i): float(w[i]) for i in range(k)})
            nu = FiniteMeasure({str(i): float(v[i]) for i in range(k)})
            rho = majorant_for_measure(m, nu)
            assert rho_abs_continuity(m, nu, rho) is True


class TestEnvelope:
    def test_idempotent_on_concave_samples(self):
        ts = np.linspace(0, 1, 33)
        samples = list(zip(ts, np.sqrt(ts)))
        env = concave_envelope(samples)
        for t, y in samples:
            assert env.eval(t) == pytest.approx(y, abs=1e-12)

    def test_chord_over_dip(self):
        env = concave_envelope([(0, 0), (0.5, 0.1), (1, 1)])
        assert env.eval(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_dominates_samples(self):
        rng = np.random.default_rng(17)
        ts = np.sort(np.concatenate(([0.0, 1.0], rng.random(20))))
        ys = np.clip(rng.random(len(ts)), 0, 1)
        ys[0] = 0.0
        samples = list(zip(ts, ys))
        env = concave_envelope(samples)
        for t, y in samples:
            assert env.eval(t) >= y - 1e-12

    def test_rejects_positive_y_at_zero(self):
        with pytest.raises(BadSample):
            concave_envelope([(0, 0.5), (1, 1)])


class TestValleePoussin:
    def test_square_gives_power2(self):
        rho, K = vallee_poussin(lambda t: t * t, 1.0)
        assert K == pytest.approx(1.0, abs=1e-10)
        assert rho.kind == "power" and rho.q == pytest.approx(2.0, abs=1e-9)
        for v in np.linspace(0.001, 1, 50):
            assert rho.eval(v) == pytest.approx(math.sqrt(v), abs=1e-10)

    def test_scaling_of_bound(self):
        rho, K = vallee_poussin(lambda t: t * t, 4.0)
        assert K == pytest.approx(2.0, abs=1e-9)
        assert rho.kind == "power" and rho.q == pytest.approx(2.0, abs=1e-9)

    def test_not_superlinear(self):
        with pytest.raises(NotSuperlinear):
            vallee_poussin(lambda t: t, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("M", [math.inf, 1e308, 1e299])
    def test_bound_that_overflows_the_grid_rejected(self, M):
        # M/v must stay finite down to v = 1e-10, the smallest grid point
        with pytest.raises(ParseError, match="M must be finite"):
            vallee_poussin(lambda t: t * t, M)

    def test_norm_guarantee_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            nu, f = rand_instance(rng, k=12)
            M = sum(nu.mass(k) * f.values[k] ** 2 for k in nu.labels())
            rho, K = vallee_poussin(lambda t: t * t, M)
            assert rho_norm(f, rho, mode="exact") <= K * (1 + 1e-9)

    def test_tlogt_guarantee(self):
        G = lambda t: t * math.log1p(t)
        rng = np.random.default_rng(19)
        for _ in range(50):
            nu, f = rand_instance(rng, k=10)
            M = sum(nu.mass(k) * G(abs(f.values[k])) for k in nu.labels())
            rho, K = vallee_poussin(G, max(M, 1e-9))
            assert rho_norm(f, rho, mode="exact") <= K * (1 + 1e-9)


def _inf_on_overflow(G):
    def g(t):
        try:
            return G(t)
        except OverflowError:
            return math.inf
    return g


def oracle_vallee_poussin(G, M, monkeypatch):
    """vallee_poussin with its grid search replaced by the scalar bisection."""
    with monkeypatch.context() as m:
        m.setattr(majorant, "_largest_feasible_grid", lambda g, C: np.array(
            [bisection_largest_feasible(_inf_on_overflow(g), c) for c in C]))
        return vallee_poussin(G, M)


def grid_of_vallee_poussin(G, M, monkeypatch):
    """The bounds vallee_poussin(G, M) hands its grid search, and the grid's answer."""
    calls = []
    search = majorant._largest_feasible_grid
    with monkeypatch.context() as m:
        m.setattr(majorant, "_largest_feasible_grid",
                  lambda g, C: calls.append((C, search(g, C))) or calls[-1][1])
        vallee_poussin(G, M)
    (call,) = calls
    return call


def _ladder_and_rounds(seen):
    """G's inputs split into the leading powers of two (the ladders) and the
    rest (the rounds): a round's input lies strictly between a rung and the
    next one up, so it is never a power of two."""
    rungs = list(itertools.takewhile(lambda t: math.frexp(t)[0] == 0.5, seen))
    return rungs, seen[len(rungs):]


GROWTH = {
    "t2": lambda t: t * t,
    "t3": lambda t: t**3,
    "tlog1p": lambda t: t * math.log1p(t),
    "t1.5": lambda t: t**1.5,
    "t1e308": lambda t: t**1e308,
    "max-sq": lambda t: max(t, 0.0)**2,  # raises on arrays, takes floats
}
# the last three bounds take t**3 (the first two) and t**1.5 to a point where
# numpy's vector pow and libm's pow round to opposite sides of the bound, on a
# machine with AVX-512
BOUNDS = [1e-9, 1.0, 4.0, 50.0, *np.exp(np.random.default_rng(1101).uniform(-6.0, 5.0, 4)),
          50.56102646277762, 4.204025283560229, 0.00043629255306156786]


class TestValleePoussinGrid:
    @pytest.mark.parametrize("name", GROWTH)
    def test_bit_identical_to_scalar_oracle(self, name, monkeypatch):
        G = _inf_on_overflow(GROWTH[name])
        for M in BOUNDS:
            C, got = grid_of_vallee_poussin(GROWTH[name], float(M), monkeypatch)
            assert got.tolist() == [illinois_largest_feasible(G, c) for c in C.tolist()], M
            ref = np.array([bisection_largest_feasible(G, c) for c in C.tolist()])
            assert np.all(np.abs(got - ref) <= 2e-13 * np.maximum(1.0, ref)), M

    @pytest.mark.parametrize("M", [1.0, 1e6])  # rho1 without decay; s_hi past 1e15
    def test_linear_growth_not_superlinear(self, M, monkeypatch):
        with pytest.raises(NotSuperlinear):
            vallee_poussin(lambda t: t, M)
        with pytest.raises(NotSuperlinear):
            oracle_vallee_poussin(lambda t: t, M, monkeypatch)

    @pytest.mark.parametrize("G", [lambda t: t * t + 1.0, lambda t: max(t, 0.0)**2 + 1.0],
                             ids=["array", "elementwise"])
    def test_zero_after_2000_halvings(self, G):
        C = np.array([0.5, 2.0, 1e-3, 5.0])
        got = majorant._largest_feasible_grid(G, C)
        ref = np.array([bisection_largest_feasible(G, c) for c in C])
        assert got[0] == got[2] == ref[0] == ref[2] == 0.0
        assert np.all(np.abs(got - ref) <= 2e-13 * np.maximum(1.0, ref))

    @pytest.mark.parametrize("G", [lambda t: t**1e308, lambda t: math.pow(t, 1e308)],
                             ids=["array", "elementwise"])
    def test_overflow_reads_as_infinity(self, G):
        rho, K = vallee_poussin(G, 10.0)
        assert rho == power_majorant(1.0) and K == 1.0

    def test_array_growth_is_called_once_per_round(self, monkeypatch):
        # t * t takes arrays too, but sees floats: once per rung of the shared
        # ladders, then once per open point in each round of the oracle
        seen = []
        C, _ = grid_of_vallee_poussin(lambda t: seen.append(t) or t * t, 4.0, monkeypatch)
        assert all(type(t) is float for t in seen)
        rungs, rounds = _ladder_and_rounds(seen)
        assert len(rungs) == len(set(rungs)) < 100
        oracle_rounds, bisection = 0, []
        for c in C.tolist():
            point = []
            illinois_largest_feasible(lambda t: point.append(t) or t * t, c)
            oracle_rounds += len(_ladder_and_rounds(point)[1])
            bisection_largest_feasible(lambda t: bisection.append(t) or t * t, c)
        assert len(rounds) == oracle_rounds
        assert len(bisection) > 10**4 and len(seen) < len(bisection) / 3

    def test_elementwise_growth_sees_the_oracle_inputs(self, monkeypatch):
        # the rungs every point's oracle calls, once each, then every point's
        # regula falsi inputs
        def G(t):
            return max(t, 0.0)**2

        seen = []
        C, _ = grid_of_vallee_poussin(lambda t: seen.append(t) or G(t), 4.0, monkeypatch)
        assert all(type(t) is float for t in seen)
        rungs, rounds = _ladder_and_rounds(seen)
        oracle_rungs, oracle_rounds = set(), []
        for c in C.tolist():
            point = []
            illinois_largest_feasible(lambda t: point.append(t) or G(t), c)
            ladder, rest = _ladder_and_rounds(point)
            oracle_rungs.update(ladder)
            oracle_rounds += rest
        assert sorted(rungs) == sorted(oracle_rungs)
        assert sorted(rounds) == sorted(oracle_rounds)

    def test_growth_is_called_on_floats_within_budget(self):
        # t**1e308 jumps from 1 to +inf at 1, where only the midpoint can help
        for name in ("t2", "t3", "tlog1p", "t1.5", "max-sq"):
            for M in BOUNDS:
                seen = []
                vallee_poussin(lambda t: seen.append(t) or GROWTH[name](t), float(M))
                assert all(type(t) is float for t in seen), (name, M)
                assert len(seen) <= 10**4, (name, M)

    @pytest.mark.parametrize("name", ["t2", "tlog1p", "t1.5"])
    def test_certificate_on_each_point(self, name):
        # lo is feasible, and G exceeds the bound within the tolerance above it
        G = GROWTH[name]
        for M in BOUNDS:
            C = float(M) / np.logspace(-10, 0, 97)
            got = majorant._largest_feasible_grid(G, C)
            for lo, c in zip(got.tolist(), C.tolist()):
                assert G(lo) <= c and G(lo + 1e-13 * max(1.0, lo)) > c, (M, c)

    @pytest.mark.parametrize("M", [1.0, 10.0, 1e6])
    def test_huge_power_closes_on_one(self, M):
        rho, K = vallee_poussin(lambda t: t**1e308, M)
        assert rho == power_majorant(1.0) and K == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("edge", [0.75, 3.0])  # in the halving, or the doubling, range
    def test_nan_reads_as_infeasible(self, edge):
        def grow(past):
            return lambda t: t * t if t < edge else past

        C = np.array([1e-6, 0.25, 0.5625, 1.0, 4.0, 8.0, 9.0, 1e6])
        nan = majorant._largest_feasible_grid(grow(math.nan), C)
        assert nan.tolist() == majorant._largest_feasible_grid(grow(math.inf), C).tolist()
        assert np.all(nan < edge) and np.all(nan * nan <= C)
        assert vallee_poussin(grow(math.nan), 4.0) == vallee_poussin(grow(math.inf), 4.0)

    def test_exact_root_closes_in_few_calls(self):
        # G(2) = 4 is the bound: the interpolant lands on the feasible end, and
        # the step tol/2 above it closes the bracket from the infeasible side
        seen = []
        got = majorant._largest_feasible_grid(lambda t: seen.append(t) or t * t,
                                              np.array([4.0]))
        assert got.tolist() == [2.0] and len(seen) <= 6

    def test_sorted_unique_matches_np_unique(self):
        grids = [np.concatenate([np.linspace(0.0, 1.0, 1025), np.logspace(-12, 0, 257)])]
        for n in (8, 64, 512, 1000):
            grids.append(np.concatenate([np.linspace(0.0, 1.0, n + 1)[1:],
                                         np.logspace(-10, 0, n // 2)]))
        for x in grids:
            assert _sorted_unique(x).tobytes() == np.unique(x).tobytes()
        assert _GRID.tobytes() == np.unique(grids[0]).tobytes()

    def test_cli_import_leaves_numpy_ma_out(self):
        code = "import sys, fentropy.cli; print('numpy.ma' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"


class TestWeightedFunction:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValidationError):
            WeightedFunction(FiniteMeasure({"a": 0.5, "b": 0.5}), {"a": bad, "b": 1.0})


class TestSplitIntegrable:
    def test_no_split_needed(self):
        nu = FiniteMeasure({"a": 0.5, "b": 0.5})
        f = WeightedFunction(nu, {"a": 1.0, "b": 1.0})
        assert split_integrable(f, power_majorant(2.0), 5.0) == set()

    def test_single_huge_atom(self):
        nu = FiniteMeasure({"big": 0.01, "rest": 0.99})
        f = WeightedFunction(nu, {"big": 1000.0, "rest": 0.1})
        B = split_integrable(f, power_majorant(2.0), 1.0)
        assert "big" in B

    def test_certificates_exhaustively(self):
        rng = np.random.default_rng(20)
        rho = power_majorant(2.0)
        for _ in range(30):
            nu, f = rand_instance(rng, k=12, scale=5.0)
            C = float(rng.uniform(0.5, 3.0))
            B = split_integrable(f, rho, C)
            rest = WeightedFunction(
                nu, {k: (0.0 if k in B else v) for k, v in f.values.items()}
            )
            assert exhaustive_norm(rest, rho) <= C * (1 + 1e-9)
            if B:
                int_b = sum(abs(f.values[x]) * nu.mass(x) for x in B)
                nu_b = sum(nu.mass(x) for x in B)
                assert int_b > C * rho.eval(nu_b) - 1e-9

    @pytest.mark.parametrize("rho", [
        power_majorant(2.0),
        Majorant("pwl", ts=(0.0, 0.05, 0.3, 1.0), ys=(0.0, 0.4, 0.8, 1.0)),
    ])
    def test_matches_mask_loop(self, rho):
        # three spikes and C near the L1 norm leave bad sets of every size
        rng = np.random.default_rng(41)
        for _ in range(20):
            nu, f = rand_instance(rng, k=12, scale=1.0)
            values = dict(f.values)
            for k in rng.choice(12, size=3, replace=False):
                values[str(k)] *= 15.0
            f = WeightedFunction(nu, values)
            C = float(rng.uniform(0.8, 2.0)) * sum(
                abs(v) * nu.mass(k) for k, v in values.items())
            assert split_integrable(f, rho, C) == mask_loop_split(f, rho, C)


def mask_loop_split(f, rho, C):
    """split_integrable as a Python loop over masks: each round takes the first
    bad subset of maximal measure, in increasing mask order."""
    labels, nu, w = _positive_atoms(f)
    in_b = np.zeros(len(labels), dtype=bool)
    while True:
        rest = np.where(~in_b)[0]
        best, best_nu = None, -1.0
        for mask in range(1, 1 << len(rest)):
            idx = rest[[(mask >> k) & 1 == 1 for k in range(len(rest))]]
            nu_a = nu[idx].sum()
            if w[idx].sum() > C * rho.eval(min(nu_a, 1.0)) and nu_a > best_nu:
                best_nu, best = nu_a, idx
        if best is None:
            return {labels[i] for i in np.where(in_b)[0]}
        in_b[best] = True
