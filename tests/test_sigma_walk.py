import hashlib
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2 as chi2_dist

from fentropy import sigma_walk
from fentropy.divergence import CHI2, KL, ConvexGenerator, FiniteMeasure, f_divergence
from fentropy.errors import (
    BadLetter,
    BudgetExceeded,
    DepthMismatch,
    IncompleteTable,
    NotProbability,
    ParseError,
    TooManyDiscards,
    ValidationError,
)
from fentropy.free_boundary import harmonic_measure, minimality_scan, uniform_generator_measure
from fentropy.sigma_walk import (
    ELEMENT_BUDGET,
    SAMPLE_BLOCK,
    GroupSpec,
    LevelFunction,
    StochasticSequence,
    _free_push,
    _geometric_tails,
    _row_choices,
    _tail_exponent,
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
    sample_trajectory,
    validate_sigma,
)
from fentropy.words import encode_word, letter_order, reduce_letters
from oracles import UniqueWordTable

MU2 = uniform_generator_measure(2)
MU3 = uniform_generator_measure(3)
Z = GroupSpec("int")


def coin_sequence():
    return StochasticSequence(Z, [1], [[[{1: 0.5, -1: 0.5}]]])


def two_sheet_sequence(seed=0):
    """A random 2-sheet sequence on Z with a 1x2 first matrix, then 2x2."""
    rng = np.random.default_rng(seed)

    def cellgen(k):
        supp = [-1, 0, 1]
        w = rng.dirichlet(np.ones(len(supp)))
        return {s: float(x) for s, x in zip(supp, w)}

    m0_weights = rng.dirichlet(np.ones(2))
    m0 = [[{k: v * m0_weights[j] for k, v in cellgen(j).items()}
           for j in range(2)]]
    m1 = []
    for i in range(2):
        w = rng.dirichlet(np.ones(2))
        m1.append([{k: v * w[j] for k, v in cellgen(j).items()}
                   for j in range(2)])
    return StochasticSequence(Z, [2, 2], [m0, m1], beyond="hold-last")


def free_two_sheet_sequence():
    """Two sheets on F_2 whose cells hold words of length 0 to 3; (1, -1, 2) is
    not reduced."""
    m0 = [[{(1,): 0.2, (2, 1): 0.15, (): 0.05}, {(-2,): 0.3, (1, -2, -1): 0.3}]]
    m1 = [
        [{(1,): 0.25, (-1, 2): 0.15}, {(2,): 0.3, (): 0.1, (1, -1, 2): 0.2}],
        [{(-1,): 0.4, (2, 2): 0.1}, {(-2,): 0.2, (1, 2, -1): 0.3}],
    ]
    return StochasticSequence(GroupSpec("free", 2), [2, 2], [m0, m1])


def cancelling_sequence():
    """Two sheets on F_2 whose cells hold zero masses and multi-letter elements
    that cancel against each other, such as (1, 2) and (-2,); (2, 1, -1) is not
    reduced."""
    m0 = [[{(1, 2): 0.5, (): 0.0}, {(-2,): 0.5}]]
    m1 = [
        [{(1, 2): 0.3, (-2,): 0.2}, {(-2, -1): 0.25, (2,): 0.0, (1,): 0.25}],
        [{(-2,): 0.4, (2, 1, -1): 0.1}, {(1, 2): 0.5, (-1,): 0.0}],
    ]
    return StochasticSequence(GroupSpec("free", 2), [2, 2], [m0, m1])


def reference_propagate(s, dist, n, budget):
    """One exact step element by element through GroupSpec.mul, with one fsum
    per (sheet, element): the dict propagation that the array levels replaced."""
    mat = s.matrix(n)
    mul = s.group.mul
    acc: dict = {}
    for (i, g), m in dist.items():
        row = mat[i]
        for j, cell in enumerate(row):
            for x, w in cell.items():
                key = (j, mul(g, x))
                acc.setdefault(key, []).append(m * w)
                if len(acc) > budget:
                    raise BudgetExceeded(
                        f"element budget {budget} exceeded at level {n}", level=n
                    )
    return {k: math.fsum(v) for k, v in acc.items()}


def reference_distribution(s, n):
    dist = {(0, s.group.identity): 1.0}
    for k in range(n + 1):
        dist = reference_propagate(s, dist, k, ELEMENT_BUDGET)
    return dist


def reference_abel(s, t, r, a, K, N):
    """abel_measure's entries through reference_propagate."""
    first = t + 1 + K
    entries, dist = {}, {(r, s.group.identity): 1.0}
    for n in range(t + 1, N + 1):
        dist = reference_propagate(s, dist, n, ELEMENT_BUDGET)
        if n >= first:
            scale = (1.0 - a) * a ** (n - first)
            entries.update({(n, j, g): scale * m for (j, g), m in dist.items()})
    return entries


def reference_identity_residual(s, t, a, K, N):
    """abel_identity_residual through reference_abel and GroupSpec.mul."""
    mat, mul = s.matrix(t), s.group.mul
    abels = [reference_abel(s, t, r, a, K, N) for r in range(s.ell_at(t))]
    worst = 0.0
    for srow in range(s.ell_at(t - 1)):
        acc: dict = {}
        for r, ab in enumerate(abels):
            for x, wx in mat[srow][r].items():
                if wx == 0.0:
                    continue
                for (n, j, g), m in ab.items():
                    acc.setdefault((n, j, mul(x, g)), []).append(wx * m)
        lhs = {k: math.fsum(v) for k, v in acc.items()}
        rhs = reference_abel(s, t - 1, srow, a, K + 1, N)
        for k in set(lhs) | set(rhs):
            worst = max(worst, abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)))
    return worst


def loop_tail_exponent(a, eps):
    """The loop that _tail_exponent replaced: the least m >= 1 with a^m < eps."""
    m = 1
    while a**m >= eps:
        m += 1
        if m > 10_000_000:
            raise BudgetExceeded("geometric tail will not reach eps")
    return m


def assert_same_measure(got, want, tol=1e-14):
    assert set(got) == set(want)
    assert max((abs(got[k] - want[k]) for k in want), default=0.0) <= tol


def reference_endpoints(s, steps, trajectories, seed):
    """sample_endpoints one trajectory at a time through GroupSpec.mul, reading
    each trajectory's uniforms from its row of its block's draw."""
    counts, draws = Counter(), {}
    for idx in range(trajectories):
        block, r = divmod(idx, SAMPLE_BLOCK)
        if block not in draws:
            rows = min(SAMPLE_BLOCK, trajectories - block * SAMPLE_BLOCK)
            draws[block] = np.random.default_rng([seed, block]).random((rows, steps + 1))
        u = draws[block][r]
        i, g = 0, s.group.identity
        for n in range(steps + 1):
            sheets, elems, cum = _row_choices(s.matrix(n)[i])
            k = int(np.searchsorted(cum, u[n], side="right"))
            i, g = sheets[k], s.group.mul(g, elems[k])
        counts[(i, g)] += 1
    return counts


def reference_boundary(mu, steps, trajectories, seed, depth):
    """Exit-prefix counts and discards of boundary_empirical, one trajectory
    and one attempt at a time, reduced by reduce_letters."""
    letters = np.array(letter_order(mu.d))
    cum = np.cumsum([mu.p[int(j)] for j in letters])
    cum /= cum[-1]
    counts, discards, draws = Counter(), 0, {}
    for idx in range(trajectories):
        block, r = divmod(idx, SAMPLE_BLOCK)
        rows = min(SAMPLE_BLOCK, trajectories - block * SAMPLE_BLOCK)
        for attempt in range(8):
            if (block, attempt) not in draws:
                rng = np.random.default_rng([seed, block, attempt])
                draws[(block, attempt)] = rng.random((rows, steps))
            u = draws[(block, attempt)][r]
            w = reduce_letters(letters[np.searchsorted(cum, u, side="right")].tolist(), mu.d)
            if len(w) >= depth:
                counts[w[:depth]] += 1
                break
            discards += 1
    return counts, discards


class TestValidation:
    def test_constant_sequence_passes_with_support_warning(self):
        rep = validate_sigma(constant_sequence(MU2))
        assert rep["passes"] is True
        assert rep["sigma0_full_support"] is False
        assert rep["warnings"]

    def test_zero_column_reported(self):
        s = StochasticSequence(Z, [2], [[[{0: 1.0}, {}]]])
        rep = validate_sigma(s)
        assert rep["passes"] is False
        assert rep["zero_columns"]

    def test_row_residual_reported(self):
        s = StochasticSequence(Z, [1], [[[{0: 0.9}]]])
        rep = validate_sigma(s)
        assert rep["passes"] is False
        assert rep["max_row_residual"] == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_bad_masses_rejected(self, bad):
        with pytest.raises(NotProbability):
            StochasticSequence(Z, [1], [[[{1: 0.5, -1: bad}]]])

    def test_two_sheet_passes(self):
        assert validate_sigma(two_sheet_sequence())["passes"] is True

    def test_incompatible_repeated_matrix_raises_at_each_level_it_misfits(self):
        # ell = (1, 2, 3) cycling matrices 1, 2: matrix 1 has 1 row but follows
        # matrix 2's 3 columns (levels 3, 5, ...); matrix 2 follows matrix 1 and fits
        m0, m1 = [[{0: 1.0}]], [[{1: 0.5}, {-1: 0.5}]]
        m2 = [[{0: 0.5}, {1: 0.25}, {2: 0.25}], [{0: 1.0}, {}, {}]]
        s = StochasticSequence(Z, [1, 2, 3], [m0, m1, m2], beyond="cycle")
        for n in (3, 5, 7):
            with pytest.raises(ValidationError) as exc:
                s.matrix(n)
            assert str(exc.value) == (
                f"repetition rule 'cycle' gives an incompatible shape at level {n}")
        assert s.matrix(4) is m2 and s.matrix(6) is m2
        with pytest.raises(ValidationError, match="at level 3$"):
            exact_distribution(s, 4)
        with pytest.raises(ValidationError, match="at level 3$"):
            sample_endpoints(s, 4, 5, 0)
        # a non-square last matrix held past the horizon misfits at every level
        held = StochasticSequence(Z, [1, 2], [m0, m1])
        for n in (2, 3):
            with pytest.raises(ValidationError, match=f"'hold-last' .* at level {n}$"):
                held.matrix(n)

    def test_json_round_trip(self):
        s = two_sheet_sequence()
        back = StochasticSequence.from_json(s.to_json())
        assert back.ell == s.ell and back.beyond == s.beyond
        assert back.matrices == s.matrices


class TestExactDistribution:
    def test_level_zero_is_sigma0(self):
        s = constant_sequence(MU2)
        dist = exact_distribution(s, 0)
        for j in (-2, -1, 1, 2):
            assert dist.entries[(0, (j,))] == pytest.approx(0.25)

    def test_level_one_uniform_f2(self):
        dist = exact_distribution(constant_sequence(MU2), 1)
        assert dist.entries[(0, ())] == pytest.approx(0.25)
        assert dist.entries[(0, (1, 2))] == pytest.approx(1.0 / 16.0)
        assert dist.total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 5, 12, 19])
    def test_binomial_oracle_on_z(self, n):
        dist = exact_distribution(coin_sequence(), n)
        steps = n + 1
        for (j, g), m in dist.entries.items():
            k = (steps + g) // 2
            assert (steps + g) % 2 == 0
            assert m == pytest.approx(math.comb(steps, k) / 2.0**steps, abs=1e-14)

    def test_chapman_kolmogorov(self):
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
                assert nxt.entries.get(key, 0.0) == pytest.approx(
                    manual.get(key, 0.0), abs=1e-14
                )

    def test_boundary_family_stationarity(self):
        # for the constant-mu walk the harmonic cylinder family satisfies
        # mu * nu^(n) = nu^(n-1)
        from oracles import convolve, marginal

        nu = harmonic_measure(MU2, 4)
        conv = convolve(MU2, nu, 3)
        marg = marginal(nu, 3)
        worst = max(abs(conv.mass(w) - marg.mass(w)) for w in marg.masses)
        assert worst < 1e-12

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            exact_distribution(constant_sequence(MU2), 40, budget=10_000)


class TestArrayLevels:
    """The array levels against the dict propagation they replaced."""

    @pytest.mark.parametrize("make,n", [
        (lambda: two_sheet_sequence(), 12),
        (lambda: two_sheet_sequence(3), 40),
        (lambda: constant_sequence(MU2), 5),
        (lambda: constant_sequence(MU3), 3),
        (cancelling_sequence, 5),
        (free_two_sheet_sequence, 4),
        (lambda: StochasticSequence(Z, [1], [[[{2: 0.5, -3: 0.5, 7: 0.0}]]]), 9),
    ])
    def test_exact_distribution_matches_dict_propagation(self, make, n):
        s = make()
        assert_same_measure(exact_distribution(s, n).entries, reference_distribution(s, n))

    def test_zero_mass_cells_stay_in_the_support(self):
        entries = exact_distribution(cancelling_sequence(), 3).entries
        assert (0, ()) in entries
        assert any(m == 0.0 for m in entries.values())

    @pytest.mark.parametrize("make,t,r,K", [
        (lambda: two_sheet_sequence(1), 0, 1, 1),
        (cancelling_sequence, 1, 0, 0),
        (lambda: constant_sequence(MU3), -1, 0, 0),
    ])
    def test_abel_measure_matches_dict_propagation(self, make, t, r, K):
        s = make()
        ab = abel_measure(s, t, r, 0.5, K, 0.05)
        assert_same_measure(ab.entries, reference_abel(s, t, r, 0.5, K, ab.N))

    @pytest.mark.parametrize("make,t,a,eps", [
        (lambda: two_sheet_sequence(2), 1, 0.3, 1e-10),
        (lambda: two_sheet_sequence(2), 2, 0.7, 1e-6),
        (cancelling_sequence, 1, 0.5, 0.1),
        (lambda: constant_sequence(MU2), 0, 0.5, 0.05),
    ])
    def test_identity_residual_matches_dict_propagation(self, make, t, a, eps):
        s = make()
        got = abel_identity_residual(s, t, a, 0, eps)
        want = reference_identity_residual(s, t, a, 0, t + _tail_exponent(a, eps))
        assert got < 1e-12 and abs(got - want) <= 1e-14

    def test_sparse_long_words(self):
        s = StochasticSequence(GroupSpec("free", 2), [1], [[[{(1, 2): 1.0}]]])
        assert exact_distribution(s, 100).entries == {(0, (1, 2) * 101): 1.0}

    def test_int64_edges(self):
        up = StochasticSequence(Z, [1], [[[{2**61: 1.0}]]])
        assert exact_distribution(up, 2).entries == {(0, 3 * 2**61): 1.0}
        with pytest.raises(BudgetExceeded):
            exact_distribution(up, 3)
        down = StochasticSequence(Z, [1], [[[{-2**61: 1.0}]]])
        assert exact_distribution(down, 3).entries == {(0, -2**63): 1.0}
        with pytest.raises(BudgetExceeded):
            exact_distribution(down, 4)
        with pytest.raises(BudgetExceeded):
            exact_distribution(StochasticSequence(Z, [1], [[[{2**64: 1.0}]]]), 0)


def two_sheet_cycle(seed):
    """two_sheet_sequence(seed) with a third matrix on {-2, 0, 3}, repeated by "cycle"."""
    s = two_sheet_sequence(seed)
    rng = np.random.default_rng(seed + 100)
    m2 = []
    for _ in range(2):
        w = rng.dirichlet(np.ones(2))
        m2.append([{x: float(v) * w[j] for x, v in zip((-2, 0, 3), rng.dirichlet(np.ones(3)))}
                   for j in range(2)])
    return StochasticSequence(Z, [2, 2, 2], [*s.matrices, m2], beyond="cycle")


def no_reach_sequence():
    """Sheet 1 is never reached at level 0, and row 1 of the repeated matrix
    feeds only sheet 0."""
    return StochasticSequence(Z, [2, 2], [[[{1: 0.5, -1: 0.5}, {}]],
                                          [[{1: 0.3, 0: 0.2}, {-1: 0.5}], [{2: 1.0}, {}]]])


def wide_sequence():
    """Steps 0 and 10^12: each level spans 10^12 keys with a few in its support."""
    return StochasticSequence(Z, [1], [[[{0: 0.5, 10**12: 0.5}]]])


DENSE_CASES = {
    "coin": coin_sequence,
    "two-sheet-0": lambda: two_sheet_sequence(0),
    "two-sheet-3": lambda: two_sheet_sequence(3),
    "cycle-1": lambda: two_sheet_cycle(1),
    "cycle-2": lambda: two_sheet_cycle(2),
    # its keys at a level are one residue mod 5, so a dense step would take five
    # products per term: it stays on sorted keys
    "zero-mass": lambda: StochasticSequence(Z, [1], [[[{2: 0.5, -3: 0.5, 7: 0.0}]]]),
    "zero-mass-dense": lambda: StochasticSequence(Z, [1], [[[{1: 0.5, -1: 0.25, 0: 0.25,
                                                               5: 0.0}]]]),
    # sorted keys for six levels, until the gaps between the keys fill in
    "sparse-then-dense": lambda: StochasticSequence(Z, [1], [[[{0: 0.5, 1: 0.25, 9: 0.25}]]]),
    "no-reach": no_reach_sequence,
    # row 1 of the repeated matrix holds only a zero mass: an empty lhs in the Abel identity
    "zero-row": lambda: StochasticSequence(Z, [2, 2], [
        [[{1: 0.5}, {-1: 0.5}]],
        [[{1: 0.25, 0: 0.25, -1: 0.25}, {0: 0.25}], [{0: 0.0}, {}]]]),
    # a dense level, then one wide step that keeps the walk on sorted keys,
    # while the Abel measures from level 2 on are dense again
    "coin-wide-coin": lambda: StochasticSequence(
        Z, [1, 1, 1], [[[{1: 0.5, -1: 0.5}]], [[{0: 0.5, 10**9: 0.5}]],
                       [[{1: 0.5, -1: 0.5}]]]),
}


def sparse_oracle(fn):
    """fn() with every step on Z and every Abel comparison on sorted keys."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sigma_walk, "_int_step", lambda space, level, *rest: sigma_walk._step(
            space, level.triples(), *rest))
        mp.setattr(sigma_walk, "_dense_difference", lambda lhs, rhs: None)
        return fn()


def with_dense_counts(fn):
    """fn() and the numbers of dense steps and dense Abel comparisons it made."""
    steps, diffs = [], []
    step, diff = sigma_walk._dense_step, sigma_walk._dense_difference

    def counted_diff(lhs, rhs):
        out = diff(lhs, rhs)
        diffs.extend([] if out is None else [1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sigma_walk, "_dense_step", lambda *a: steps.append(1) or step(*a))
        mp.setattr(sigma_walk, "_dense_difference", counted_diff)
        return fn(), len(steps), len(diffs)


def exact_items(s, n):
    return list(exact_distribution(s, n).entries.items())


def abel_items(s, t, r, K, a, eps):
    ab = abel_measure(s, t, r, a, K, eps)
    return ab.N, ab.tail_mass, list(ab.entries.items())


class TestDenseLevels:
    """Dense levels on Z against the sorting step, which stays for wide levels
    and serves as the oracle: equal with ==, entry order included."""

    @pytest.mark.parametrize("case", list(DENSE_CASES))
    @pytest.mark.parametrize("n", [0, 1, 7, 25])
    def test_exact_distribution_bit_identical(self, case, n):
        s = DENSE_CASES[case]()
        assert exact_items(s, n) == sparse_oracle(lambda: exact_items(s, n))

    @pytest.mark.parametrize("case", list(DENSE_CASES))
    @pytest.mark.parametrize("t,r,K,a,eps", [
        (-1, 0, 0, 0.5, 1e-6), (0, 1, 0, 0.3, 1e-10), (1, 0, 2, 0.7, 1e-4), (1, 1, 1, 0.5, 0.01),
    ])
    def test_abel_measure_bit_identical(self, case, t, r, K, a, eps):
        s = DENSE_CASES[case]()
        r = min(r, s.ell_at(t) - 1)
        assert abel_items(s, t, r, K, a, eps) == sparse_oracle(
            lambda: abel_items(s, t, r, K, a, eps))

    @pytest.mark.parametrize("case", list(DENSE_CASES))
    @pytest.mark.parametrize("t,a,K,eps", [
        (0, 0.5, 0, 1e-10), (1, 0.3, 0, 1e-10), (2, 0.7, 0, 1e-10), (1, 0.5, 2, 1e-6),
    ])
    def test_identity_residual_bit_identical(self, case, t, a, K, eps):
        s = DENSE_CASES[case]()
        got = abel_identity_residual(s, t, a, K, eps)
        assert got == sparse_oracle(lambda: abel_identity_residual(s, t, a, K, eps))

    @pytest.mark.parametrize("case", list(DENSE_CASES))
    def test_dense_path_taken(self, case):
        s = DENSE_CASES[case]()
        _, steps, _ = with_dense_counts(lambda: exact_distribution(s, 25))
        _, _, diffs = with_dense_counts(lambda: abel_identity_residual(s, 2, 0.5, 0, 1e-6))
        if case == "zero-mass":
            assert steps == diffs == 0
        else:
            assert steps > 0 and diffs > 0

    def test_sparse_then_dense(self):
        s = DENSE_CASES["sparse-then-dense"]()
        kinds = [type(level) for level in sigma_walk._walk(s, sigma_walk._IntKeys(), 0, 0, 9,
                                                            ELEMENT_BUDGET)]
        assert kinds == [sigma_walk._Sparse] * 6 + [sigma_walk._Dense] * 4

    def test_zero_mass_cells_stay_in_the_support(self):
        s = DENSE_CASES["zero-mass-dense"]()
        entries, steps, _ = with_dense_counts(lambda: exact_distribution(s, 12).entries)
        assert steps > 0 and 0.0 in entries.values()
        assert list(entries) == sorted(entries)

    def test_unreached_sheet(self):
        s = no_reach_sequence()
        assert exact_distribution(s, 0).entries == {(0, -1): 0.5, (0, 1): 0.5}
        # level 1 is dense; row 1 of its matrix has no reach, so only row 0 moves mass
        entries, steps, _ = with_dense_counts(lambda: exact_distribution(s, 1).entries)
        assert steps == 1 and entries == {
            (0, -1): 0.5 * 0.2, (0, 0): 0.5 * 0.3, (0, 1): 0.5 * 0.2, (0, 2): 0.5 * 0.3,
            (1, -2): 0.5 * 0.5, (1, 0): 0.5 * 0.5}

    @pytest.mark.parametrize("case", [case for case in DENSE_CASES if case != "zero-mass"])
    def test_dense_levels_within_the_guard(self, case):
        """A dense step takes at most twice as many products, and its level holds
        at most twice as many cells, as the sorting step would build terms; a
        dense Abel comparison holds at most twice as many cells as its terms."""
        seen = []
        step, diff = sigma_walk._int_step, sigma_walk._dense_difference

        def watched_step(space, level, cells, ell):
            out = step(space, level, cells, ell)
            src = level.triples()
            terms = products = 0
            for i, (xs, _, _) in enumerate(cells):
                keys = src.key[src.sheet == i]
                if len(keys) and xs:
                    terms += len(keys) * len(xs)
                    products += (int(keys.max()) - int(keys.min()) + 1) * len(xs)
            if isinstance(out, sigma_walk._Dense):
                assert products <= 2 * terms
            seen.append((out, terms))
            return out

        def watched_diff(lhs, rhs):
            out = diff(lhs, rhs)
            terms = sum(len(nu.triples().key) for _, _, nu in lhs) + len(rhs.triples().key)
            seen.append((out, terms))
            return out

        s = DENSE_CASES[case]()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sigma_walk, "_int_step", watched_step)
            mp.setattr(sigma_walk, "_dense_difference", watched_diff)
            exact_distribution(s, 25)
            abel_identity_residual(s, 2, 0.5, 0, 1e-6)
        sizes = [(getattr(out, "mass", out).size, terms) for out, terms in seen
                 if isinstance(out, (sigma_walk._Dense, np.ndarray))]
        assert sizes and all(size <= 2 * terms for size, terms in sizes)

    def test_abel_comparison_guard(self):
        """The comparison is dense only where its hull holds at most twice as
        many cells as it has terms: here 3 levels of 4 entries each, so 24 cells."""
        *_, nu = sigma_walk._walk(coin_sequence(), sigma_walk._IntKeys(), 0, 0, 2, ELEMENT_BUDGET)
        assert isinstance(nu, sigma_walk._Dense) and nu.size == 4
        near = sigma_walk._dense_difference([(0, 0.5, nu), (2, 0.5, nu)], nu)
        assert near.shape == (1, 9)
        assert sigma_walk._dense_difference([(0, 0.5, nu), (17, 0.5, nu)], nu) is not None
        assert sigma_walk._dense_difference([(0, 0.5, nu), (18, 0.5, nu)], nu) is None

    def test_wide_span_stays_on_sorted_keys(self):
        s = wide_sequence()
        tracemalloc.start()
        try:
            (entries, steps, _) = with_dense_counts(lambda: exact_distribution(s, 3).entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entries == {(0, k * 10**12): m
                           for k, m in enumerate([0.0625, 0.25, 0.375, 0.25, 0.0625])}
        # a dense level over this hull would need 4 * 10^12 cells
        assert steps == 0 and peak < 2**20

    @pytest.mark.parametrize("t,r,K,a,eps", [(-1, 0, 0, 0.5, 1e-6), (0, 0, 1, 0.3, 1e-10)])
    def test_wide_span_abel_matches_sorted_keys(self, t, r, K, a, eps):
        s = wide_sequence()
        (got, steps, diffs) = with_dense_counts(lambda: (
            abel_items(s, t, r, K, a, eps), abel_identity_residual(s, t + 1, a, K, eps)))
        assert steps == diffs == 0
        assert got == sparse_oracle(lambda: (abel_items(s, t, r, K, a, eps),
                                             abel_identity_residual(s, t + 1, a, K, eps)))
        assert got[1] < 1e-12

    @pytest.mark.parametrize("make,n,budget", [
        (coin_sequence, 40, 12), (lambda: two_sheet_sequence(3), 30, 25),
        (lambda: DENSE_CASES["zero-mass"](), 30, 50),
        (lambda: StochasticSequence(Z, [1], [[[{2**61: 1.0}]]]), 5, ELEMENT_BUDGET),
        (lambda: StochasticSequence(Z, [1], [[[{-2**61: 0.5, 0: 0.5}]]]), 5, ELEMENT_BUDGET),
    ])
    def test_budget_raises_as_on_sorted_keys(self, make, n, budget):
        s = make()

        def raised():
            with pytest.raises(BudgetExceeded) as exc:
                exact_distribution(s, n, budget)
            return str(exc.value), exc.value.level

        def raised_abel():
            with pytest.raises(BudgetExceeded) as exc:
                abel_measure(s, -1, 0, 0.5, 0, 1e-12, N=n, budget=budget)
            return str(exc.value), exc.value.level

        assert raised() == sparse_oracle(raised)
        assert raised_abel() == sparse_oracle(raised_abel)



def eager_exact(s, n):
    """exact_distribution's entries as one dict built from its last level's arrays."""
    space = sigma_walk._key_space(s.group)
    *_, level = sigma_walk._walk(s, space, 0, 0, n, ELEMENT_BUDGET)
    out = level.triples()
    return dict(zip(zip(out.sheet.tolist(), space.decode(out.key)), out.mass.tolist()))


def eager_abel(s, t, r, a, K, eps, N=None):
    """abel_measure's entries as one dict built level by level from its arrays."""
    space = sigma_walk._key_space(s.group)
    _, levels = sigma_walk._abel_levels(s, space, t, r, a, K, eps, N, ELEMENT_BUDGET)
    out = {}
    for n, level in enumerate(levels, t + 1 + K):
        level = level.triples()
        out.update(zip(zip([n] * level.size, level.sheet.tolist(), space.decode(level.key)),
                       level.mass.tolist()))
    return out


ENTRY_CASES = {
    "coin": (coin_sequence, 7),
    "two-sheet": (lambda: two_sheet_sequence(3), 12),
    "wide": (wide_sequence, 6),
    "cancelling": (cancelling_sequence, 5),
    "f2": (lambda: constant_sequence(MU2), 4),
    "f3": (lambda: constant_sequence(MU3), 3),
    "free-two-sheet": (free_two_sheet_sequence, 4),
}


def assert_same_entries(entries, eager):
    """entries reads as the dict eager: items in the same order, ==, lookups."""
    assert list(entries.items()) == list(eager.items())
    assert list(entries) == list(entries.keys()) == list(eager)
    assert list(entries.values()) == list(eager.values()) and len(entries) == len(eager)
    assert entries == eager and eager == entries and not entries != eager
    assert entries != {**eager, "missing": 0.0}
    for k, m in eager.items():
        assert k in entries and entries.get(k) == entries[k] == m
    assert "missing" not in entries and entries.get("missing") is None
    assert entries.get("missing", 0.5) == 0.5
    with pytest.raises(KeyError):
        entries["missing"]


class TestEntries:
    """exact_distribution and abel_measure keep their arrays: masses are read
    from them, and words are decoded once, at the first key access."""

    @pytest.mark.parametrize("case", list(ENTRY_CASES))
    def test_exact_entries_match_the_eager_dict(self, case):
        make, n = ENTRY_CASES[case]
        s = make()
        assert_same_entries(exact_distribution(s, n).entries, eager_exact(s, n))

    @pytest.mark.parametrize("case", list(ENTRY_CASES))
    @pytest.mark.parametrize("t,K,a,eps", [(-1, 0, 0.5, 0.1), (0, 1, 0.3, 1e-3)])
    def test_abel_entries_match_the_eager_dict(self, case, t, K, a, eps):
        s = ENTRY_CASES[case][0]()
        assert_same_entries(abel_measure(s, t, 0, a, K, eps).entries,
                            eager_abel(s, t, 0, a, K, eps))

    @pytest.mark.parametrize("case", ["coin", "f2"])
    def test_abel_without_stored_levels(self, case):
        s = ENTRY_CASES[case][0]()
        ab = abel_measure(s, 0, 0, 0.5, 3, 0.1, N=2)
        assert_same_entries(ab.entries, {})
        assert ab.entries == {} and ab.stored_total == 0.0

    @pytest.mark.parametrize("case,n", [("f2", 6), ("f3", 4), ("dense-z", 25),
                                        ("sparse-z", 8)])
    def test_mass_only_reads_never_decode(self, monkeypatch, case, n):
        s = {"f2": lambda: constant_sequence(MU2), "f3": lambda: constant_sequence(MU3),
             "dense-z": coin_sequence, "sparse-z": wide_sequence}[case]()

        def refuse(self, keys):
            raise AssertionError("a mass-only read decoded the keys")

        monkeypatch.setattr(sigma_walk._WordTable, "decode", refuse)
        monkeypatch.setattr(sigma_walk._IntKeys, "decode", refuse)
        dist = exact_distribution(s, n)
        ab = abel_measure(s, -1, 0, 0.5, 0, 0.1)
        for entries in (dist.entries, ab.entries):
            assert len(entries) == len(entries.values()) > 0
            assert min(entries.values()) >= 0.0
        assert dist.total == pytest.approx(1.0, abs=1e-12)
        assert ab.stored_total + ab.tail_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("case", ["coin", "wide", "f2", "free-two-sheet"])
    def test_keys_are_decoded_once(self, monkeypatch, case):
        make, n = ENTRY_CASES[case]
        s = make()
        calls = []
        for space in (sigma_walk._WordTable, sigma_walk._IntKeys):
            monkeypatch.setattr(space, "decode", lambda self, keys, decode=space.decode: (
                calls.append(len(keys)) or decode(self, keys)))
        for entries in (exact_distribution(s, n).entries,
                        abel_measure(s, -1, 0, 0.5, 0, 0.1).entries):
            assert calls == []
            key = next(iter(entries))
            assert key in entries and entries.get(key) == entries[key]
            assert entries == dict(entries.items()) and list(entries.keys())
            repr(entries)
            assert calls == [len(entries)]
            calls.clear()


def seeded_free_sequence(seed, d, sheets=2, longest=3):
    """A seeded sigma on F_d: a 1 x sheets first matrix, then a sheets x sheets
    one held. Each cell holds three drawn words of 0 to longest letters (not
    always reduced, and some sharing their first letters)."""
    rng = np.random.default_rng(seed)
    letters = [x for x in range(-d, d + 1) if x]

    def matrix(rows):
        out = []
        for _ in range(rows):
            weights = rng.dirichlet(np.ones(sheets))
            row = []
            for w in weights.tolist():
                words = list(dict.fromkeys(
                    tuple(rng.choice(letters, int(rng.integers(0, longest + 1))).tolist())
                    for _ in range(3)))
                row.append(dict(zip(words, (w * rng.dirichlet(np.ones(len(words)))).tolist())))
            out.append(row)
        return out

    return StochasticSequence(GroupSpec("free", d), [sheets, sheets],
                              [matrix(1), matrix(sheets)])


TRIE_CASES = {
    "free-two-sheet": (free_two_sheet_sequence, 5),
    "f2-words": (lambda: seeded_free_sequence(5, 2), 4),
    "f3-words": (lambda: seeded_free_sequence(11, 3), 3),
}


class TestWordTableIds:
    """_WordTable's _push drops repeated new cells by a sort, and every word gets
    the id that np.unique gave it (oracles.UniqueWordTable): the tries, the
    levels and the entries with their order are the same."""

    @staticmethod
    def assert_same_trie(got, ref):
        n = ref.size
        assert got.size == n
        for name in ("parent", "last", "depth"):
            assert np.array_equal(getattr(got, name)[:n], getattr(ref, name)[:n])
        assert np.array_equal(got.child[:n * 2 * got.d], ref.child[:n].ravel())

    @staticmethod
    def with_tables(monkeypatch, table, call):
        """call() with every key space a fresh `table`; its result and the tables."""
        made = []

        def space(group):
            made.append(table(group.d))
            return made[-1]

        monkeypatch.setattr(sigma_walk, "_key_space", space)
        return call(), made

    @pytest.mark.parametrize("case", list(TRIE_CASES))
    def test_levels_and_entries_match_the_unique_trie(self, monkeypatch, case):
        make, n = TRIE_CASES[case]
        s = make()
        ref, got = UniqueWordTable(s.group.d), sigma_walk._WordTable(s.group.d)
        ref_levels = list(sigma_walk._walk(s, ref, 0, 0, n, ELEMENT_BUDGET))
        got_levels = list(sigma_walk._walk(s, got, 0, 0, n, ELEMENT_BUDGET))
        assert ref.repeats > 0  # some push met one new (parent, letter) twice
        self.assert_same_trie(got, ref)
        for a, b in zip(got_levels, ref_levels, strict=True):
            assert np.array_equal(a.sheet, b.sheet) and np.array_equal(a.key, b.key)
            assert a.mass.tobytes() == b.mass.tobytes()
        want, _ = self.with_tables(monkeypatch, UniqueWordTable,
                                   lambda: exact_distribution(s, n))
        have, _ = self.with_tables(monkeypatch, sigma_walk._WordTable,
                                   lambda: exact_distribution(s, n))
        assert list(have.entries.items()) == list(want.entries.items())

    def test_left_products_match_the_unique_trie(self):
        # words of 1 to 3 letters times the keys of level 1 of the constant
        # F_3 walk: most products are new words, some met twice in one push
        s = constant_sequence(MU3)
        rng = np.random.default_rng(3)
        letters = [-3, -2, -1, 1, 2, 3]
        xs = [tuple(rng.choice(letters, int(rng.integers(1, 4))).tolist()) for _ in range(12)]
        ref, got = UniqueWordTable(3), sigma_walk._WordTable(3)
        *_, ref_level = sigma_walk._walk(s, ref, 0, 0, 1, ELEMENT_BUDGET)
        *_, got_level = sigma_walk._walk(s, got, 0, 0, 1, ELEMENT_BUDGET)
        walked = ref.repeats
        want, have = ref.left(ref_level.key, xs), got.left(got_level.key, xs)
        assert ref.repeats > walked
        assert np.array_equal(have, want)
        self.assert_same_trie(got, ref)

    @pytest.mark.parametrize("case", ["f3", "f3-words"])
    def test_identity_residual_matches_the_unique_trie(self, monkeypatch, case):
        # the residual's left() products are all words its walks reached, so
        # the repeats its pushes meet come from the walks' right() products
        s = {"f3": lambda: constant_sequence(MU3),
             "f3-words": lambda: seeded_free_sequence(11, 3)}[case]()
        args = (1, 0.3, 1, 0.1)
        want, refs = self.with_tables(monkeypatch, UniqueWordTable,
                                      lambda: abel_identity_residual(s, *args))
        have, gots = self.with_tables(monkeypatch, sigma_walk._WordTable,
                                      lambda: abel_identity_residual(s, *args))
        assert len(gots) == len(refs) == 1
        self.assert_same_trie(gots[0], refs[0])
        assert have.hex() == want.hex()


class TestTailExponent:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 0.999), st.integers(1, 5000), st.sampled_from([-1, 0, 1]))
    def test_matches_loop_at_the_threshold(self, a, m, nudge):
        # eps = a^m exactly, or one float either side of it
        eps = a**m
        if nudge:
            eps = math.nextafter(eps, math.inf * nudge)
        assume(eps > 0)
        assert _tail_exponent(a, eps) == loop_tail_exponent(a, eps)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(1e-300, 4.0))
    def test_matches_loop(self, a, eps):
        assume(a < eps or (0 < a < 1 and math.log(eps) / math.log(a) < 20_000))
        assert _tail_exponent(a, eps) == loop_tail_exponent(a, eps)

    @pytest.mark.parametrize("a,eps", [(0.999999, 1e-12), (1.0, 0.5), (1.5, 1e-3)])
    def test_unreachable_tail(self, a, eps):
        with pytest.raises(BudgetExceeded):
            _tail_exponent(a, eps)

    def test_largest_exponent(self):
        # the greatest m the loop still returns, checked by its definition
        a = 0.5 ** (1 / 9_999_999.5)
        eps = 0.5
        m = _tail_exponent(a, eps)
        assert m == 10_000_000
        assert a**m < eps <= a ** (m - 1)
        with pytest.raises(BudgetExceeded):
            _tail_exponent(a, math.nextafter(a**m, 0.0))


class TestSampling:
    def test_point_mass_trajectory_constant(self):
        s = StochasticSequence(Z, [1], [[[{0: 1.0}]]])
        traj = sample_trajectory(s, 6, 1)
        assert all(st.g == 0 and st.i == 0 for st in traj)

    def test_seed_determinism(self):
        s = constant_sequence(MU2)
        t1 = sample_trajectory(s, 10, 99)
        t2 = sample_trajectory(s, 10, 99)
        assert [(st.n, st.i, st.g) for st in t1] == [(st.n, st.i, st.g) for st in t2]

    @pytest.mark.parametrize("elems, steps", [
        ({2**61: 1.0}, 3),  # the endpoint 2^63 would wrap round to -2^63
        ({2**64: 1.0}, 0),  # the element itself is no int64
        ({-(2**62): 1.0}, 2),
        ({2**62: 0.5, -(2**62): 0.5}, 1),  # only some trajectories leave the range
    ])
    def test_endpoints_outside_int64_raise_as_the_exact_walk(self, elems, steps):
        s = StochasticSequence(Z, [1], [[[elems]]])
        with pytest.raises(BudgetExceeded) as exact:
            exact_distribution(s, steps)
        with pytest.raises(BudgetExceeded) as sampled:
            sample_endpoints(s, steps, 10, 0)
        assert str(sampled.value) == str(exact.value) == "a Z element leaves the int64 key range"

    @pytest.mark.parametrize("elems, steps", [({2**61: 1.0}, 2), ({-(2**62): 1.0}, 1)])
    def test_endpoints_at_the_edge_of_int64(self, elems, steps):
        s = StochasticSequence(Z, [1], [[[elems]]])
        (key,) = [g for _, g in exact_distribution(s, steps).entries]
        assert sample_endpoints(s, steps, 10, 0) == Counter({(0, key): 10})

    def test_monte_carlo_matches_exact_level2(self):
        s = coin_sequence()
        exact = exact_distribution(s, 2)
        n_traj = 20_000
        counts = sample_endpoints(s, 2, n_traj, 1000)
        for (j, g), m in exact.entries.items():
            freq = counts.get((j, g), 0) / n_traj
            se = math.sqrt(m * (1 - m) / n_traj)
            assert abs(freq - m) < 4 * se + 1e-9

    def test_many_sheet_endpoints_take_memory_of_the_pairs(self):
        """300 sheets of 200 elements each: the counts are those of the same
        uniforms read one by one, in (sheet, key) order, and counting them takes
        memory of the order of the trajectories, not of sheets x distinct keys."""
        ell, per, n, seed = 300, 200, 100_000, 7
        row = [{j + ell * k: 1.0 / (ell * per) for k in range(per)} for j in range(ell)]
        s = StochasticSequence(Z, [ell], [[row]])
        tracemalloc.start()
        try:
            got = sample_endpoints(s, 0, n, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sheets, elems, cum = _row_choices(row)
        u = np.concatenate([np.random.default_rng([seed, b]).random((min(SAMPLE_BLOCK, n - start),
                                                                     1))[:, 0]
                            for b, start in enumerate(range(0, n, SAMPLE_BLOCK))])
        k = np.searchsorted(cum, u, side="right")
        assert got == Counter(zip(np.array(sheets)[k].tolist(), np.array(elems)[k].tolist()))
        assert list(got) == sorted(got)
        # one bin per (sheet, distinct key) would take ell * keys * 8 bytes (~117 MB here)
        keys = len({g for _, g in got})
        assert keys > 40_000 and peak < ell * keys * 8 / 4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_free_push_matches_reduce_letters(self, d):
        rng = np.random.default_rng(40 + d)
        # letter 0 is padding and must leave a word as it is
        letters = rng.integers(-d, d + 1, size=(300, 40)).astype(np.int32)
        stack = np.zeros((300, 41), dtype=np.int32)
        length = np.zeros(300, dtype=np.intp)
        for col in letters.T:
            _free_push(stack, length, col)
        for row, top, n in zip(letters.tolist(), stack.tolist(), length.tolist()):
            assert tuple(top[:n]) == reduce_letters([x for x in row if x], d)

    @pytest.mark.parametrize("seq", ["coin", "two-sheet-z", "two-sheet-free"])
    def test_blocks_match_per_trajectory_reference(self, seq):
        s = {"coin": coin_sequence(), "two-sheet-z": two_sheet_sequence(3),
             "two-sheet-free": free_two_sheet_sequence()}[seq]
        n = SAMPLE_BLOCK + 5
        assert sample_endpoints(s, 3, n, 12) == reference_endpoints(s, 3, n, 12)

    @pytest.mark.parametrize("n", [SAMPLE_BLOCK - 1, 2 * SAMPLE_BLOCK + 5])
    def test_counter_in_sheet_key_order(self, n):
        """One block or several, the Counter holds int counts in (sheet, element) order on Z."""
        for s in (coin_sequence(), two_sheet_sequence(3)):
            counts = sample_endpoints(s, 4, n, 31)
            assert list(counts) == sorted(counts)
            assert all(type(c) is int for c in counts.values()) and sum(counts.values()) == n

    def test_chi_squared_free_two_sheet(self):
        s = free_two_sheet_sequence()
        exact = exact_distribution(s, 2)
        n_traj = 100_000
        counts = sample_endpoints(s, 2, n_traj, 2024)
        assert set(counts) <= set(exact.entries)
        exp = np.array([m * n_traj for m in exact.entries.values()])
        obs = np.array([counts.get(k, 0) for k in exact.entries])
        assert exp.min() >= 5.0
        stat = float(np.sum((obs - exp) ** 2 / exp))
        assert stat < chi2_dist.ppf(0.999, len(exp) - 1)

    @pytest.mark.parametrize("n", [SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                   2 * SAMPLE_BLOCK + 3])
    def test_block_boundaries(self, n):
        s = free_two_sheet_sequence()
        fewer = sample_endpoints(s, 2, n, 8)
        more = sample_endpoints(s, 2, n + 1, 8)
        assert sum(fewer.values()) == n
        assert sum((more - fewer).values()) == 1
        assert not fewer - more

    @pytest.mark.parametrize("call", ["trajectory", "endpoints", "boundary", "scan"])
    def test_negative_seed_rejected(self, call):
        with pytest.raises(ParseError):
            {"trajectory": lambda: sample_trajectory(coin_sequence(), 3, -1),
             "endpoints": lambda: sample_endpoints(coin_sequence(), 3, 10, -1),
             "boundary": lambda: boundary_empirical(MU2, 8, 10, -1, 1),
             "scan": lambda: minimality_scan(MU2, KL, 2, 10, -1)}[call]()

    def test_negative_trajectories_rejected(self):
        with pytest.raises(ParseError):
            sample_endpoints(coin_sequence(), 3, -5, 1)
        with pytest.raises(ParseError):
            boundary_empirical(MU2, 8, -5, 1, 1)
        assert sample_endpoints(coin_sequence(), 3, 0, 1) == Counter()

    def test_no_trajectories_skip_the_levels_past_the_checks(self):
        start = time.perf_counter()
        assert sample_endpoints(coin_sequence(), 10**6, 0, 0) == Counter()
        assert time.perf_counter() - start < 0.05
        # a zero-mass row of the second matrix, and a cycle that misfits at level 3
        zero_row = StochasticSequence(Z, [2, 2], [[[{1: 1.0}, {}]],
                                                 [[{1: 1.0}, {}], [{}, {2: 0.0}]]])
        m1 = [[{1: 0.5}, {-1: 0.5}]]
        m2 = [[{0: 0.5}, {1: 0.25}, {2: 0.25}], [{0: 1.0}, {}, {}]]
        misfit = StochasticSequence(Z, [1, 2, 3], [[[{0: 1.0}]], m1, m2], beyond="cycle")
        for steps in (3, 10**6):
            with pytest.raises(NotProbability):
                sample_endpoints(zero_row, steps, 0, 0)
            with pytest.raises(ValidationError, match="at level 3$"):
                sample_endpoints(misfit, steps, 0, 0)

    def test_trajectory_reports_reduced_words(self):
        # (1, -1, 2) is not reduced: every level holds the word the exact walk holds
        s = StochasticSequence(GroupSpec("free", 2), [1], [[[{(1, -1, 2): 1.0}]]])
        traj = sample_trajectory(s, 3, 0)
        assert [st.g for st in traj] == [g for n in range(4)
                                         for _, g in exact_distribution(s, n).entries]
        assert traj[0].g == (2,)

    def test_trajectory_outside_int64_raises_as_the_exact_walk(self):
        s = StochasticSequence(Z, [1], [[[{2**61: 1.0}]]])
        with pytest.raises(BudgetExceeded) as exact:
            exact_distribution(s, 3)
        with pytest.raises(BudgetExceeded) as sampled:
            sample_trajectory(s, 3, 0)
        assert str(sampled.value) == str(exact.value)
        assert sample_trajectory(s, 2, 0)[-1].g == 3 * 2**61

    def test_element_outside_int64_raises_where_the_partial_sums_fit(self):
        # 2^62 + (-2^63 - 1) fits int64, but the second level's element does not
        s = StochasticSequence(Z, [1, 1], [[[{2**62: 1.0}]], [[{-(2**63) - 1: 1.0}]]])
        for walk in (lambda: exact_distribution(s, 1), lambda: sample_endpoints(s, 1, 10, 0),
                     lambda: sample_trajectory(s, 1, 0)):
            with pytest.raises(BudgetExceeded, match="int64 key range"):
                walk()

    def test_zero_mass_row_on_an_unreached_sheet_rejected(self):
        # sheet 1 is never reached, but its row belongs to a matrix the walk uses
        s = StochasticSequence(Z, [2, 2], [[[{1: 1.0}, {}]], [[{1: 1.0}, {}], [{}, {2: 0.0}]]])
        assert exact_distribution(s, 3).entries == {(0, 4): 1.0}
        with pytest.raises(NotProbability):
            sample_endpoints(s, 3, 10, 1)
        with pytest.raises(NotProbability):
            sample_trajectory(s, 3, 1)

    def test_each_stored_matrix_is_tabulated_once(self, monkeypatch):
        rows = []
        row_choices = sigma_walk._row_choices

        def counted(row):
            rows.append(row)
            return row_choices(row)

        monkeypatch.setattr(sigma_walk, "_row_choices", counted)
        m0 = [[{0: 0.5}, {1: 0.5}]]
        m1 = [[{-1: 0.3, 1: 0.2}, {2: 0.5}], [{0: 0.6}, {-2: 0.2, 5: 0.2}]]
        m2 = [[{1: 0.7}, {-1: 0.3}], [{3: 0.1, -3: 0.4}, {0: 0.5}]]
        s = StochasticSequence(Z, [2, 2, 2], [m0, m1, m2], beyond="cycle")
        sample_endpoints(s, 20, 2 * SAMPLE_BLOCK + 1, 3)
        assert rows == m0 + m1 + m2
        rows.clear()
        sample_trajectory(s, 20, 3)
        assert rows == m0 + m1 + m2

    def test_blocks_past_the_element_budget_raise_before_drawing(self):
        # a full block allows ELEMENT_BUDGET // SAMPLE_BLOCK levels, steps 0..2440
        steps = ELEMENT_BUDGET // SAMPLE_BLOCK
        with pytest.raises(BudgetExceeded, match="4096 x 2442 uniforms"):
            sample_endpoints(coin_sequence(), steps, SAMPLE_BLOCK, 0)
        with pytest.raises(BudgetExceeded, match="4096 x 2442 uniforms"):
            boundary_empirical(MU2, steps, SAMPLE_BLOCK + 1, 0, 1)
        with pytest.raises(BudgetExceeded, match=f"1 x {ELEMENT_BUDGET + 1} uniforms"):
            sample_trajectory(coin_sequence(), ELEMENT_BUDGET, 0)
        counts = sample_endpoints(coin_sequence(), steps - 1, SAMPLE_BLOCK, 0)
        assert sum(counts.values()) == SAMPLE_BLOCK
        assert sum(sample_endpoints(coin_sequence(), steps, 10, 0).values()) == 10

    def test_trajectory_letters_past_the_element_budget_raise(self, monkeypatch):
        # the level whose word takes sum_n |g_n| past the budget raises; on Z
        # the states are integers, and no letter count applies
        s = constant_sequence(MU2)
        traj = sample_trajectory(s, 200, 4)
        letters = np.cumsum([len(st.g) for st in traj])
        budget = int(letters[120])
        monkeypatch.setattr(sigma_walk, "ELEMENT_BUDGET", budget)
        assert sample_trajectory(s, 120, 4) == traj[:121]
        first = int(np.argmax(letters > budget))
        with pytest.raises(BudgetExceeded, match=f"levels 0..{first} hold {letters[first]} "
                                                 f"letters, past the element budget {budget}$"):
            sample_trajectory(s, 200, 4)
        monkeypatch.setattr(sigma_walk, "ELEMENT_BUDGET", 201)  # the 201 uniforms, no more
        assert len(sample_trajectory(coin_sequence(), 200, 4)) == 201
        with pytest.raises(BudgetExceeded, match="letters"):
            sample_trajectory(s, 200, 4)

    # (sequence, steps, trajectories, seed, sha256 of the Counter's items in
    # order), as counted before trajectories and endpoints shared one level loop
    ENDPOINT_DIGESTS = [
        ('coin', 0, 10, 1, 'a4874908e4024697f32344d35b41547725f236931da2362efe21eeb092d076c9'),
        ('coin', 3, 4097, 5, '35c86f1ee25f7ba81005f520484aed0037415281adb1ae11c57b2016d0db980a'),
        ('coin', 6, 333, 2, 'f9d552a17fc0647361e3b3585abccd8739c6ff7e5408037b1ba87fcc50b4b64d'),
        ('coin', 12, 5000, 9, 'e19c8c2d06b0daa00dfb44b94f0b5a8e04fba32db8ab2fed674198a881ad7341'),
        ('two-sheet-z', 0, 10, 1,
         '950e15405f4ab822603ba50091ddb9db20e34214ac7f7ac5a18c4a68b9c24fcc'),
        ('two-sheet-z', 3, 4097, 5,
         '119ed38922485943083154578dd21a13aac612b8e5784d6ce3bfc017584485f9'),
        ('two-sheet-z', 6, 333, 2,
         'e850827fc9d93d8427cea1688eeb559de0e1e4aba060a8caf9e174d654bc9477'),
        ('two-sheet-z', 12, 5000, 9,
         '81b1b0337d8bc6243f94cc2c4824725025450b41bf34f963b736542acddbdcce'),
        ('free-two-sheet', 0, 10, 1,
         '5aa7f62a38b38899c4b4d45135b5a455647cd079f7b826abea815e4deb43ebe0'),
        ('free-two-sheet', 3, 4097, 5,
         '391b09a6a234c41ec9e33fb16d6a588a6a9046dfc08568eedb0597eca2ad0e4d'),
        ('free-two-sheet', 6, 333, 2,
         'e48f2c682840924f4d199fcdc034bf1dc3d4e2bbae0b7f5e86e231e945be54bf'),
        ('free-two-sheet', 12, 5000, 9,
         'd9b526a76e588914d2035e229ef195214b6c5335d62612b7a2e69c68f3a2ee9b'),
        ('cancelling', 0, 10, 1,
         '770bdf3e25a914d8156f9964c0ae649d0d62e24d3056941c05f42f9884dea126'),
        ('cancelling', 3, 4097, 5,
         'dd4d4cf492fdbf6dbc37d94c88fede38705e77c52aff172362c3757428f362cd'),
        ('cancelling', 6, 333, 2,
         'dbb761a808dc274ea8f96286ce4c4f011ab8f2ec6f71c994b04e61a6ded2a7ca'),
        ('cancelling', 12, 5000, 9,
         '83625d704636df72e959587f4061af1ae657303150489a2489e56ea3545ef52d'),
        ('constant-f3', 0, 10, 1,
         '3ecfa8359fcaa466e264d492f7542dcc255c052440abf746c1fa3a1ac167cb77'),
        ('constant-f3', 3, 4097, 5,
         '7686fd74d9a7ffaa0c55e911d9d2b36ef73b6918ca8640dde2803c50f541d0c5'),
        ('constant-f3', 6, 333, 2,
         'e4b57100b0a22c15867c41d3a89e5bab1eaf60cdad46380c5089e00ceda1369a'),
        ('constant-f3', 12, 5000, 9,
         '66bd6ad368bac8dd1380c2720af2a58d4fb51d8c692e222063f2e5eeb596d9b1'),
    ]

    @pytest.mark.parametrize("name, steps, n, seed, digest", ENDPOINT_DIGESTS,
                             ids=[f"{r[0]}-{r[1]}-{r[2]}" for r in ENDPOINT_DIGESTS])
    def test_endpoint_counters_match_recorded(self, name, steps, n, seed, digest):
        s = {"coin": coin_sequence, "two-sheet-z": lambda: two_sheet_sequence(3),
             "free-two-sheet": free_two_sheet_sequence, "cancelling": cancelling_sequence,
             "constant-f3": lambda: constant_sequence(MU3)}[name]()
        counts = sample_endpoints(s, steps, n, seed)
        assert hashlib.sha256(repr(list(counts.items())).encode()).hexdigest() == digest

    def test_zero_mass_row_rejected(self):
        s = StochasticSequence(Z, [1], [[[{1: 0.0}]]])
        with pytest.raises(NotProbability):
            sample_trajectory(s, 3, 1)
        with pytest.raises(NotProbability):
            sample_endpoints(s, 3, 10, 1)


class TestHarmonicity:
    def test_constant_function_harmonic(self):
        s = constant_sequence(MU2)
        h = LevelFunction([], default=3.5)
        assert check_harmonic(s, h, range(1, 4)) == 0.0

    def test_poisson_transform_harmonic(self):
        s = constant_sequence(MU2)
        h = poisson_transform_cylinder(MU2, (1,), levels=4)
        assert check_harmonic(s, h, range(1, 5)) < 1e-12

    def test_poisson_transform_depth2(self):
        s = constant_sequence(MU2)
        h = poisson_transform_cylinder(MU2, (1, 2), levels=3)
        assert check_harmonic(s, h, range(1, 4)) < 1e-12

    @pytest.mark.parametrize("w", [(1, -1), (5,), (0,)],
                             ids=["non-reduced", "out-of-range", "zero"])
    def test_poisson_transform_rejects_bad_word(self, w):
        # such a word has no cylinder; an all-zero table would pass check_harmonic
        with pytest.raises(BadLetter):
            poisson_transform_cylinder(MU2, w, levels=2)

    def test_perturbation_detected(self):
        s = constant_sequence(MU2)
        h = poisson_transform_cylinder(MU2, (1,), levels=3)
        tables = [dict(t) for t in h.tables]
        key = next(iter(tables[1]))
        tables[1][key] += 0.1
        bad = LevelFunction(tables, default=h.default)
        assert check_harmonic(s, bad, range(1, 3)) >= 0.1 * 0.25 - 1e-12

    @pytest.mark.parametrize("levels", [range(3, 6), range(0, 1), range(1, 1)],
                             ids=["past-tables", "level-0-only", "empty"])
    def test_levels_it_cannot_check_rejected(self, levels):
        # a two-table function has h_0 and h_1, so it can check level 1
        h = poisson_transform_cylinder(MU2, (1,), levels=1)
        assert check_harmonic(constant_sequence(MU2), h, range(0, 2)) < 1e-12
        with pytest.raises(DepthMismatch):
            check_harmonic(constant_sequence(MU2), h, levels)

    def test_default_is_checked_past_the_tables(self):
        # past its tables h is the constant 1, which is harmonic only where
        # every row of sigma has total 1; this row has total 0.5
        s = StochasticSequence(Z, [1], [[[{1: 0.5}]]])
        assert check_harmonic(s, LevelFunction([{(0, 0): 1.0}], default=1.0), range(1, 4)) == 0.5

    def test_incomplete_table(self):
        h = LevelFunction([{(0, ()): 1.0}], default=None)
        with pytest.raises(IncompleteTable):
            h.value(2, 0, ())

    def test_martingale_of_harmonic_function(self):
        s = constant_sequence(MU2)
        h = poisson_transform_cylinder(MU2, (1,), levels=4)
        assert martingale_check(s, h, 2) < 1e-12

    def test_martingale_step_function(self):
        s = StochasticSequence(Z, [1], [[[{0: 1.0}]]])
        h = LevelFunction([{(0, 0): 0.0}, {(0, 0): 1.0}], default=None)
        assert martingale_check(s, h, 0) == pytest.approx(1.0)

    def test_martingale_equals_harmonicity_residual(self):
        s = constant_sequence(MU2)
        rng = np.random.default_rng(3)
        # random tables over the support reachable at levels 2 and 3
        d2 = exact_distribution(s, 2)
        d3 = exact_distribution(s, 3)
        tables = [dict(), dict(), {k: float(rng.random()) for k in d2.entries},
                  {k: float(rng.random()) for k in d3.entries}]
        h = LevelFunction(tables, default=0.0)
        m = martingale_check(s, h, 2)
        r = check_harmonic(s, h, range(3, 4))
        assert m == pytest.approx(r, abs=1e-14)


class TestBoundaryEmpirical:
    def test_depth1_frequencies(self):
        rep = boundary_empirical(MU2, steps=40, trajectories=20_000, seed=5, depth=1)
        for key, row in rep["table"].items():
            assert abs(row["freq"] - row["expected"]) < 4 * row["stderr"] + 1e-9
        assert rep["discards"] <= 0.01 * 20_000

    def test_depth2_frequencies(self):
        rep = boundary_empirical(MU2, steps=40, trajectories=20_000, seed=6, depth=2)
        some = next(iter(rep["table"].values()))
        assert some["expected"] == pytest.approx(1.0 / 12.0, abs=1e-12)
        for row in rep["table"].values():
            assert abs(row["freq"] - row["expected"]) < 4 * row["stderr"] + 1e-9

    def test_zero_trajectories(self):
        rep = boundary_empirical(MU2, steps=20, trajectories=0, seed=1, depth=1)
        assert rep["table"] == {}

    def test_determinism(self):
        r1 = boundary_empirical(MU2, steps=20, trajectories=500, seed=9, depth=1)
        r2 = boundary_empirical(MU2, steps=20, trajectories=500, seed=9, depth=1)
        assert r1 == r2

    def test_redraw_path(self):
        # on F_3, X_4 is the identity with probability 66/6^4, so some
        # trajectories are short at depth 1 and get redrawn
        r1 = boundary_empirical(MU3, steps=4, trajectories=SAMPLE_BLOCK + 300,
                                seed=21, depth=1)
        r2 = boundary_empirical(MU3, steps=4, trajectories=SAMPLE_BLOCK + 300,
                                seed=21, depth=1)
        assert r1 == r2
        counts, discards = reference_boundary(MU3, 4, SAMPLE_BLOCK + 300, 21, 1)
        assert r1["discards"] == discards > 0
        n = r1["trajectories"]
        assert {k: row["freq"] for k, row in r1["table"].items()} == {
            encode_word(w): c / n for w, c in counts.items()}

    def test_too_many_discards(self):
        # on F_2, X_4 is the identity with probability 28/4^4 > 10%
        with pytest.raises(TooManyDiscards, match="discards out of"):
            boundary_empirical(MU2, steps=4, trajectories=5000, seed=3, depth=1)
        with pytest.raises(TooManyDiscards, match="still short after 1 attempts"):
            boundary_empirical(MU3, steps=4, trajectories=1000, seed=3, depth=1,
                               max_attempts=1)

    def test_needs_enough_steps(self):
        with pytest.raises(ParseError):
            boundary_empirical(MU2, steps=3, trajectories=10, seed=0, depth=1)


class TestAbel:
    def test_level_totals_geometric(self):
        ab = abel_measure(coin_sequence(), -1, 0, 0.5, 0, 1e-8)
        level = {}
        for (n, j, g), m in ab.entries.items():
            level[n] = level.get(n, 0.0) + m
        for n, m in level.items():
            assert m == pytest.approx(0.5 * 0.5**n, abs=1e-14)

    def test_tail_mass_exact(self):
        ab = abel_measure(coin_sequence(), -1, 0, 0.5, 0, 1e-8)
        assert ab.tail_mass == pytest.approx(0.5 ** (ab.N + 1), abs=1e-16)
        assert ab.stored_total + ab.tail_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t,a", [(0, 0.5), (1, 0.3), (2, 0.7)])
    def test_identity_on_z(self, t, a):
        for s in (coin_sequence(), two_sheet_sequence(1), two_sheet_sequence(2)):
            assert abel_identity_residual(s, t, a, 0, 1e-10) < 1e-12

    def test_identity_on_free_group(self):
        s = constant_sequence(MU2)
        assert abel_identity_residual(s, 1, 0.5, 0, 1e-3) < 1e-12

    def test_abel_domination(self):
        s = coin_sequence()
        a = 0.5
        ab0 = abel_measure(s, 0, 0, a, 0, 1e-8)
        ab1 = abel_measure(s, 0, 0, a, 1, 1e-8, N=ab0.N)
        for key, m in ab1.entries.items():
            assert m <= ab0.entries.get(key, 0.0) / a + 1e-14


class TestFolner:
    def test_entropy_decreases_in_a(self):
        lam = FiniteMeasure({-1: 0.5, 1: 0.5})
        curve = folner_entropy_curve(lam, KL, [0.5, 0.9, 0.99], 1e-6,
                                     max_level=12)["curve"]
        hs = [row["h"] for row in curve]
        assert hs[0] > hs[1] > hs[2] > 0

    def test_small_a_limit_is_sigma0_entropy(self):
        # as a -> 0 the level-0 geometric dominates, so h approaches the
        # shift divergence of the geometric itself
        lam = FiniteMeasure({1: 1.0})
        h_small = folner_entropy_curve(lam, KL, [1e-6], 1e-4,
                                       max_level=6)["curve"][0]["h"]
        # KL(shift of geometric || geometric) for c b^|k| with b = 0.5:
        # direct large-window computation
        b, c = 0.5, (1 - 0.5) / (1 + 0.5)
        ks = np.arange(-80, 81)
        q = c * b ** np.abs(ks)
        p = c * b ** np.abs(ks - 1)
        direct = float(np.sum(p * np.log(p / q)))
        assert h_small == pytest.approx(direct, abs=1e-3)

    def test_shifted_uniform_boundary_effect(self):
        # divergence of a shifted uniform on [-M, M] against itself is a pure
        # boundary effect: f(0+)/(2M+1) for generators with finite slope data
        f = ConvexGenerator("power", 0.5)
        M = 40
        atoms = {k: 1.0 / (2 * M + 1) for k in range(-M, M + 1)}
        shifted = {k + 1: v for k, v in atoms.items()}
        labels = set(atoms) | set(shifted)
        P = FiniteMeasure({k: shifted.get(k, 0.0) for k in labels})
        Q = FiniteMeasure({k: atoms.get(k, 0.0) for k in labels})
        val = f_divergence(P, Q, f)
        assert val == pytest.approx(f.at_zero / (2 * M + 1), abs=1e-12)

    def test_budget_guard(self):
        lam = FiniteMeasure({1: 1.0})
        with pytest.raises(BudgetExceeded):
            folner_entropy_curve(lam, KL, [0.999], 1e-10)

    def test_tail_mass_reported(self):
        lam = FiniteMeasure({-1: 0.5, 1: 0.5})
        row = folner_entropy_curve(lam, KL, [0.9], 1e-6, max_level=8)["curve"][0]
        assert row["truncation_level"] == 8
        assert row["tail_mass"] == pytest.approx(0.9**9)

    @pytest.mark.parametrize("max_level", [-1, -5])
    def test_negative_max_level_rejected(self, max_level):
        with pytest.raises(ParseError, match="max_level"):
            folner_entropy_curve(FiniteMeasure({-1: 0.5, 1: 0.5}), KL, [0.5], 1e-6,
                                 max_level=max_level)
        row = folner_entropy_curve(FiniteMeasure({-1: 0.5, 1: 0.5}), KL, [0.5], 1e-6,
                                   max_level=0)["curve"][0]
        assert row["truncation_level"] == 0 and row["tail_mass"] == 0.5

    def test_truncation_past_the_cap_raises(self):
        # max_level caps the truncation, and the cap of 21 levels caps max_level
        lam = FiniteMeasure({-1: 0.5, 1: 0.5})
        with pytest.raises(BudgetExceeded, match="level 23$"):
            folner_entropy_curve(lam, KL, [0.99], 1e-6, max_level=23)
        assert (folner_entropy_curve(lam, KL, [0.3, 0.5], 1e-6, max_level=30)
                == folner_entropy_curve(lam, KL, [0.3, 0.5], 1e-6))

    def test_every_a_is_checked_before_a_level_is_built(self, monkeypatch):
        lam = FiniteMeasure({-1: 0.5, 1: 0.5})
        assert folner_entropy_curve(lam, KL, [], 1e-6) == {"curve": []}

        def refuse(max_level):
            raise AssertionError("a level was built")

        monkeypatch.setattr(sigma_walk, "_folner_levels", refuse)
        with pytest.raises(ParseError, match="a values"):
            folner_entropy_curve(lam, KL, [0.5, 1.5], 1e-6, max_level=4)
        with pytest.raises(BudgetExceeded, match="level 23$"):
            folner_entropy_curve(lam, KL, [0.5, 0.99], 1e-6, max_level=23)

    def test_each_level_is_built_once(self, monkeypatch):
        lam = FiniteMeasure({-1: 0.5, 1: 0.5})
        built, levels = [], sigma_walk._folner_levels

        def counted(max_level):
            for n, level in enumerate(levels(max_level)):
                built.append(n)
                yield level

        monkeypatch.setattr(sigma_walk, "_folner_levels", counted)
        curve = folner_entropy_curve(lam, KL, [0.3, 0.9, 0.5], 1e-4, max_level=9)["curve"]
        assert built == list(range(10))
        assert [row["truncation_level"] for row in curve] == [7, 9, 9]


class TestGeometricTails:
    @staticmethod
    def recurrence(m, lo, window_lo, window_hi, b):
        c = (1.0 - b) / (1.0 + b)
        size = window_hi - window_lo + 1
        full = np.zeros(size)
        full[lo - window_lo: lo - window_lo + len(m)] = m
        left, right = np.zeros(size), np.zeros(size)
        left[0] = full[0]
        for k in range(1, size):
            left[k] = b * left[k - 1] + full[k]
        right[-1] = full[-1]
        for k in range(size - 2, -1, -1):
            right[k] = b * right[k + 1] + full[k]
        return c * (left + right - full)

    @pytest.mark.parametrize("b", [0.5, 0.3, 0.7])
    def test_matches_recurrence(self, b):
        rng = np.random.default_rng(17)
        m = rng.random(1200) * (rng.random(1200) < 0.7)
        got = _geometric_tails(m, -600, -700, 700, b)
        ref = self.recurrence(m, -600, -700, 700, b)
        assert np.all(ref > 0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-15
        if b == 0.5:
            assert np.array_equal(got, ref)


class TestGeometricPrefix:
    @pytest.mark.parametrize("n", [1, 600, 601, 602, 5000])
    def test_two_row_batch_is_the_recurrence_at_one_half(self, n):
        # blocks end after 601 positions at b = 1/2, so 600..602 sit on both
        # sides of the first block edge
        rng = np.random.default_rng(n)
        x = rng.random((2, n)) * (rng.random((2, n)) < 0.7)
        ref = np.empty_like(x)
        for r in range(2):
            acc = 0.0
            for k in range(n):
                acc = 0.5 * acc + x[r, k]
                ref[r, k] = acc
        rows = x.copy()
        sigma_walk._geometric_prefix(rows, 0.5)
        assert rows.tobytes() == ref.tobytes()
        row = x[1].copy()
        sigma_walk._geometric_prefix(row, 0.5)
        assert row.tobytes() == ref[1].tobytes()


class TestMonteCarloChiSquared:
    def test_level3_chi_squared(self):
        s = coin_sequence()
        exact = exact_distribution(s, 3)
        n_traj = 20_000
        counts = sample_endpoints(s, 3, n_traj, 50_000)
        stat = 0.0
        for (j, g), m in exact.entries.items():
            obs = counts.get((j, g), 0)
            exp = m * n_traj
            stat += (obs - exp) ** 2 / exp
        dof = len(exact.entries) - 1
        assert stat < chi2_dist.ppf(0.999, dof)
