"""Matrix-valued time-dependent random walks (sigma-stochastic sequences).

Exact distribution propagation by matrix convolution, trajectory sampling,
harmonicity/martingale residuals, Abel-weighted measures on the level space,
and the Folner almost-invariance experiment on Z.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .divergence import (INF, PROB_TOL, ZERO_MASS, ConvexGenerator, FiniteMeasure,
                         divergence_arrays)
from .errors import (
    BudgetExceeded,
    DepthMismatch,
    IncompleteTable,
    NotProbability,
    ParseError,
    TooManyDiscards,
    ValidationError,
)
from .free_boundary import (SAMPLE_BLOCK, GeneratorMeasure, harmonic_measure, solve_q,
                            translate_mass)
from .words import (ReducedWord, decode_word, encode_word, enumerate_words, letter_order,
                    reduce_letters, word_array, word_index)

ELEMENT_BUDGET = 10_000_000


@dataclass(frozen=True)
class GroupSpec:
    kind: str  # "free" | "int"
    d: int = 0

    def __post_init__(self):
        if self.kind not in ("free", "int"):
            raise ParseError(f"unknown group kind {self.kind!r}")
        if self.kind == "free" and self.d < 2:
            raise ParseError("free group rank must be >= 2")

    @property
    def identity(self):
        return () if self.kind == "free" else 0

    def mul(self, a, b):
        if self.kind == "free":
            return reduce_letters(a + b, self.d)
        return a + b

    def encode(self, g) -> str:
        return encode_word(g) if self.kind == "free" else str(g)

    def decode(self, s: str):
        return decode_word(s, self.d) if self.kind == "free" else int(s)

    def to_json(self) -> dict:
        if self.kind == "free":
            return {"kind": "free", "d": self.d}
        return {"kind": "int"}

    @classmethod
    def from_json(cls, doc: dict) -> "GroupSpec":
        kind = doc.get("kind")
        if kind == "free":
            return cls("free", int(doc["d"]))
        if kind == "int":
            return cls("int")
        raise ParseError(f"bad group spec {doc!r}")


@dataclass(frozen=True)
class WalkState:
    n: int
    i: int
    g: object


@dataclass(frozen=True)
class LeveledMeasure:
    n: int
    entries: dict  # (j, g) -> mass

    @property
    def total(self) -> float:
        return math.fsum(self.entries.values())


@dataclass
class StochasticSequence:
    """sigma = (sigma^(n)) with sigma^(n) an [ell_{n-1}] x [ell_n] matrix of measures.

    Beyond the stored horizon the sequence repeats by `beyond`: "hold-last"
    (requires a square last matrix) or "cycle" (cycles matrices 1..H-1).
    """

    group: GroupSpec
    ell: list  # ell_n for stored n; ell_{-1} = 1 implicitly
    matrices: list  # matrices[n][i][j] = dict element -> mass
    beyond: str = "hold-last"

    def __post_init__(self):
        if self.beyond not in ("hold-last", "cycle"):
            raise ParseError(f"unknown repetition rule {self.beyond!r}")
        if len(self.matrices) != len(self.ell):
            raise ParseError("need one stored matrix per stored ell")
        rows_prev = 1
        for n, mat in enumerate(self.matrices):
            if len(mat) != rows_prev:
                raise ParseError(f"matrix {n} has {len(mat)} rows, expected {rows_prev}")
            for row in mat:
                if len(row) != self.ell[n]:
                    raise ParseError(f"matrix {n} has a row of wrong width")
                if not all(0.0 <= m < INF for cell in row for m in cell.values()):
                    raise NotProbability(f"matrix {n} has a negative or non-finite mass")
            rows_prev = self.ell[n]

    @property
    def horizon(self) -> int:
        return len(self.matrices)

    def _beyond_index(self, n: int) -> int:
        h = self.horizon
        if self.beyond == "hold-last":
            return h - 1
        if h == 1:
            return 0
        return 1 + (n - 1) % (h - 1)

    def matrix(self, n: int):
        if n < 0:
            raise ParseError("matrix index must be >= 0")
        if n < self.horizon:
            return self.matrices[n]
        mat = self.matrices[self._beyond_index(n)]
        if len(mat) != self.ell_at(n - 1) or len(mat[0]) != self.ell_at(n):
            raise ValidationError(
                f"repetition rule {self.beyond!r} gives an incompatible shape at level {n}"
            )
        return mat

    def ell_at(self, n: int) -> int:
        if n < 0:
            return 1
        if n < self.horizon:
            return self.ell[n]
        return self.ell[self._beyond_index(n)]

    def to_json(self) -> dict:
        enc = self.group.encode
        return {
            "group": self.group.to_json(),
            "ell": list(self.ell),
            "beyond": self.beyond,
            "matrices": [
                [
                    [
                        [{"elem": enc(g), "mass": m} for g, m in sorted(
                            row_cell.items(), key=lambda kv: enc(kv[0])
                        )]
                        for row_cell in row
                    ]
                    for row in mat
                ]
                for mat in self.matrices
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "StochasticSequence":
        try:
            group = GroupSpec.from_json(doc["group"])
            ell = [int(x) for x in doc["ell"]]
            beyond = doc.get("beyond", "hold-last")
            matrices = [
                [
                    [
                        {group.decode(e["elem"]): float(e["mass"]) for e in cell}
                        for cell in row
                    ]
                    for row in mat
                ]
                for mat in doc["matrices"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad StochasticSequence JSON: {exc}") from exc
        return cls(group, ell, matrices, beyond)


def constant_sequence(mu: GeneratorMeasure) -> StochasticSequence:
    """The 1-sheet constant walk driven by mu on the free group."""
    group = GroupSpec("free", mu.d)
    cell = {(j,): mu.p[j] for j in letter_order(mu.d)}
    return StochasticSequence(group, [1], [[[dict(cell)]]], beyond="hold-last")


def validate_sigma(s: StochasticSequence) -> dict:
    """Diagnostic report on row-stochasticity, zero columns and sigma^(0) support."""
    row_residuals = []
    worst = 0.0
    zero_columns = []
    for n in range(s.horizon):
        mat = s.matrices[n]
        for i, row in enumerate(mat):
            r = abs(math.fsum(m for cell in row for m in cell.values()) - 1.0)
            worst = max(worst, r)
            if r > PROB_TOL:
                row_residuals.append({"level": n, "row": i, "residual": r})
        for j in range(s.ell[n]):
            if all(math.fsum(mat[i][j].values()) == 0.0 for i in range(len(mat))):
                zero_columns.append({"level": n, "column": j})
    # a finite table can never be supported on all of an infinite group
    full_support = False
    warnings = ["sigma^(0) has finite support; full-support assumption tracked as a flag"]
    return {
        "passes": not row_residuals and not zero_columns,
        "max_row_residual": worst,
        "row_violations": row_residuals,
        "zero_columns": zero_columns,
        "sigma0_full_support": full_support,
        "warnings": warnings,
    }


def _propagate(s: StochasticSequence, dist: dict, n: int, budget: int) -> dict:
    """One exact step: distribution at level n-1 -> level n through sigma^(n)."""
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


def exact_distribution(s: StochasticSequence, n: int,
                       budget: int = ELEMENT_BUDGET) -> LeveledMeasure:
    """Distribution of X_n = (I_n, Y_n) by exact matrix convolution."""
    if n < 0:
        raise ParseError("level must be >= 0")
    dist = {(0, s.group.identity): 1.0}
    for k in range(n + 1):
        dist = _propagate(s, dist, k, budget)
    return LeveledMeasure(n, dist)


def _row_choices(row):
    """Flatten a matrix row into parallel (sheet, element, cumulative mass) arrays."""
    sheets, elems, masses = [], [], []
    for j, cell in enumerate(row):
        for g, m in sorted(cell.items(), key=lambda kv: str(kv[0])):
            if m > 0:
                sheets.append(j)
                elems.append(g)
                masses.append(m)
    if not masses:
        raise NotProbability("a matrix row has no positive mass to sample from")
    cum = np.cumsum(masses)
    cum /= cum[-1]
    return sheets, elems, cum


def sample_trajectory(s: StochasticSequence, steps: int, seed: int) -> list:
    """States X_0..X_steps; deterministic given the seed."""
    if steps < 1:
        raise ParseError("steps must be >= 1")
    if seed < 0:
        raise ParseError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    sheets, elems, cum = _row_choices(s.matrix(0)[0])
    k = int(np.searchsorted(cum, rng.random(), side="right"))
    i, g = sheets[k], elems[k]
    out = [WalkState(0, i, g)]
    for n in range(1, steps + 1):
        sheets, elems, cum = _row_choices(s.matrix(n)[i])
        k = int(np.searchsorted(cum, rng.random(), side="right"))
        i = sheets[k]
        g = s.group.mul(g, elems[k])
        out.append(WalkState(n, i, g))
    return out


def _free_push(stack, length, letters):
    """Right-multiply each row's reduced word stack[r, :length[r]] by letters[r], in place.

    The top letter is popped where it is the inverse of the new letter, and the
    new letter is pushed otherwise; letter 0 leaves its row as it is. The stack
    is C-contiguous with one column more than the longest word it will hold:
    that spare last column stays 0, and an empty row reads the spare column
    before it (flat index -1 for row 0) as its top.
    """
    flat = stack.reshape(-1, copy=False)
    at = np.arange(0, stack.size, stack.shape[1]) + length
    live = letters != 0
    pop = (flat[at - 1] == -letters) & live
    push = live & ~pop
    flat[at] = np.where(push, letters, flat[at])
    length += push
    length -= pop


def _level_tables(group: GroupSpec, mat) -> list:
    """Per-row sampling tables (cumulative masses, sheets, elements) of one matrix.

    On Z the elements are an int array. On F_d they are reduced int32 letter
    rows, right-padded with the no-op letter 0 to one width for the whole matrix.
    """
    rows = [_row_choices(row) for row in mat]
    if group.kind == "int":
        return [(cum, np.array(sheets), np.array(elems, dtype=np.int64))
                for sheets, elems, cum in rows]
    rows = [(sheets, [reduce_letters(g, group.d) for g in elems], cum)
            for sheets, elems, cum in rows]
    width = max(len(g) for _, elems, _ in rows for g in elems)
    tables = []
    for sheets, elems, cum in rows:
        letters = np.zeros((len(elems), width), dtype=np.int32)
        for k, g in enumerate(elems):
            letters[k, :len(g)] = g
        tables.append((cum, np.array(sheets), letters))
    return tables


def sample_endpoints(s: StochasticSequence, steps: int, trajectories: int,
                     seed: int) -> Counter:
    """Empirical distribution of X_steps.

    Trajectories are drawn in blocks of SAMPLE_BLOCK: block b holds trajectories
    [b*B, (b+1)*B), and trajectory b*B + r takes row r of
    default_rng([seed, b]).random((rows, steps + 1)), one uniform per level. A
    trajectory's randomness depends only on (seed, its index).
    """
    if steps < 0 or trajectories < 0 or seed < 0:
        raise ParseError("steps, trajectories and seed must be >= 0")
    tables = [_level_tables(s.group, s.matrix(n)) for n in range(steps + 1)]
    free = s.group.kind == "free"
    # a reduced word is no longer than the letters multiplied into it
    cap = sum(table[0][2].shape[1] for table in tables) if free else 0
    counts: Counter = Counter()
    for start in range(0, trajectories, SAMPLE_BLOCK):
        rows = min(SAMPLE_BLOCK, trajectories - start)
        u = np.random.default_rng([seed, start // SAMPLE_BLOCK]).random((rows, steps + 1))
        sheet = np.zeros(rows, dtype=np.intp)
        if free:
            stack = np.zeros((rows, cap + 1), dtype=np.int32)
            length = np.zeros(rows, dtype=np.intp)
        else:
            g = np.zeros(rows, dtype=np.int64)
        for n, table in enumerate(tables):
            nxt = np.empty_like(sheet)
            step = np.empty((rows,) + table[0][2].shape[1:], dtype=table[0][2].dtype)
            for i, (cum, sheets, elems) in enumerate(table):
                on = sheet == i
                k = np.searchsorted(cum, u[on, n], side="right")
                nxt[on] = sheets[k]
                step[on] = elems[k]
            sheet = nxt
            if free:
                for letters in step.T:
                    _free_push(stack, length, letters)
            else:
                g += step
        if free:
            stack[np.arange(stack.shape[1]) >= length[:, None]] = 0
            keys = np.column_stack([sheet, stack[:, :length.max()]])
        else:
            keys = np.column_stack([sheet, g])
        uniq, num = np.unique(keys, axis=0, return_counts=True)
        for key, c in zip(uniq.tolist(), num.tolist()):
            # reduced letters are nonzero, so the word is the row's nonzero prefix
            elem = tuple(x for x in key[1:] if x) if free else key[1]
            counts[(key[0], elem)] += c
    return counts


# --- harmonic functions -------------------------------------------------------

@dataclass
class LevelFunction:
    """Finite tables h_m on V_m = [ell_m] x G, with an optional default value."""

    tables: list  # list of dict (i, g) -> value
    default: float | None = None

    def value(self, m: int, i: int, g):
        if m < len(self.tables):
            v = self.tables[m].get((i, g))
            if v is not None:
                return v
        if self.default is None:
            raise IncompleteTable(f"no value for level {m}, state ({i}, {g!r})")
        return self.default

    def to_json(self, group: GroupSpec) -> dict:
        return {
            "default": self.default,
            "levels": [
                {f"{i}|{group.encode(g)}": v for (i, g), v in sorted(
                    tab.items(), key=lambda kv: (kv[0][0], group.encode(kv[0][1]))
                )}
                for tab in self.tables
            ],
        }

    @classmethod
    def from_json(cls, doc: dict, group: GroupSpec) -> "LevelFunction":
        try:
            tables = []
            for tab in doc["levels"]:
                parsed = {}
                for key, v in tab.items():
                    i_str, g_str = key.split("|", 1)
                    parsed[(int(i_str), group.decode(g_str))] = float(v)
                tables.append(parsed)
            default = doc.get("default")
            finite = all(math.isfinite(v) for tab in tables for v in tab.values())
            if default is not None:
                finite = finite and math.isfinite(default)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad LevelFunction JSON: {exc}") from exc
        if not finite:
            raise ParseError("LevelFunction values must be finite")
        return cls(tables, default)


def _sigma_mean(mat, mul, h: LevelFunction, m: int, i: int, g) -> float:
    """sum_j sum_x sigma^(m)_{i,j}(x) h_m(j, g x), the one-step mean of h_m from (i, g)."""
    return math.fsum([w * h.value(m, j, mul(g, x))
                      for j, cell in enumerate(mat[i]) for x, w in cell.items()])


def check_harmonic(s: StochasticSequence, h: LevelFunction, levels: range) -> float:
    """max over (m, (i,g)) of |h_{m-1}(i,g) - sum h_m(j, g x) sigma^(m)_{i,j}(x)|.

    Level 0 has no predecessor and is skipped; a range without a level >= 1
    raises DepthMismatch. Level m checks the states of table h_{m-1}. Past the
    tables, h is its default on every state, so one state per sheet decides
    the level; without a default such a level raises DepthMismatch.
    """
    if not any(m >= 1 for m in levels):
        raise DepthMismatch(f"no level >= 1 among levels {list(levels)}")
    worst = 0.0
    mul = s.group.mul
    for m in levels:
        if m < 1:
            continue
        mat = s.matrix(m)
        if m - 1 < len(h.tables):
            states = h.tables[m - 1].items()
        elif h.default is not None:
            states = [((i, s.group.identity), h.default) for i in range(len(mat))]
        else:
            raise DepthMismatch(
                f"level {m} needs table h_{m - 1}, but h has {len(h.tables)} tables")
        for (i, g), val in states:
            worst = max(worst, abs(val - _sigma_mean(mat, mul, h, m, i, g)))
    return worst


def martingale_check(s: StochasticSequence, h: LevelFunction, n: int,
                     budget: int = ELEMENT_BUDGET) -> float:
    """max over reachable X_n states of |E[h_{n+1}(X_{n+1}) | X_n] - h_n(X_n)|."""
    dist = exact_distribution(s, n, budget)
    mat = s.matrix(n + 1)
    mul = s.group.mul
    worst = 0.0
    for (i, g), m in dist.entries.items():
        if m <= 0:
            continue
        worst = max(worst, abs(_sigma_mean(mat, mul, h, n + 1, i, g) - h.value(n, i, g)))
    return worst


def poisson_transform_cylinder(mu: GeneratorMeasure, w: tuple, levels: int) -> LevelFunction:
    """h_m(0, g) = (g nu_mu)(C_w) = nu_mu(g^-1 C_w) for the constant-mu walk, tabulated on balls.

    Each value is the closed form free_boundary.translate_mass (one q-product,
    or 1 minus one); pushforward of harmonic_measure is its test oracle. Level m
    covers |g| <= m+1, which is the reachable set after m+1 increments.
    """
    if len(w) < 1:
        raise ParseError("need a nonempty cylinder word")
    ReducedWord(w, mu.d)  # raises BadLetter for a non-reduced or out-of-range word
    qv = solve_q(mu)
    ball = {(0, ()): translate_mass(qv, (), w)}
    tables = []
    for m in range(levels + 1):
        ball.update({(0, g): translate_mass(qv, g, w) for g in enumerate_words(mu.d, m + 1)})
        tables.append(dict(ball))
    return LevelFunction(tables)


# --- boundary Monte Carlo -----------------------------------------------------

def boundary_empirical(mu: GeneratorMeasure, steps: int, trajectories: int,
                       seed: int, depth: int, max_attempts: int = 8) -> dict:
    """Empirical depth-n cylinder frequencies of the walk's exit direction.

    Trajectories are drawn in blocks of SAMPLE_BLOCK as in sample_endpoints. A
    trajectory whose endpoint is shorter than `depth` is discarded and redrawn:
    attempt k of trajectory b*B + r takes row r of
    default_rng([seed, b, k]).random((rows, steps)), one uniform per step.
    """
    if depth < 1:
        raise DepthMismatch("depth must be >= 1")
    if steps < 4 * depth:
        raise ParseError("need steps >= 4 * depth for a reliable exit prefix")
    if trajectories < 0 or seed < 0:
        raise ParseError("trajectories and seed must be >= 0")
    letters = np.array(letter_order(mu.d), dtype=np.int32)
    probs = np.array([mu.p[int(j)] for j in letters])
    cum = np.cumsum(probs)
    cum /= cum[-1]
    # exit prefixes counted by their enumerate_words index
    hits = np.zeros(2 * mu.d * (2 * mu.d - 1) ** (depth - 1), dtype=np.int64)
    discards = 0
    for start in range(0, trajectories, SAMPLE_BLOCK):
        block = start // SAMPLE_BLOCK
        short = np.arange(min(SAMPLE_BLOCK, trajectories - start))
        for attempt in range(max_attempts):
            # rows past the last short one are not needed, and leaving them
            # undrawn does not move the rows before them
            u = np.random.default_rng([seed, block, attempt]).random((short[-1] + 1, steps))
            # one row per step; with only 2d masses, counting the cumulative
            # masses at or below u is searchsorted(side="right") at a fraction
            # of the cost of a binary search per uniform
            u = np.ascontiguousarray(u[short].T)
            pick = np.zeros(u.shape, dtype=np.intp)
            for c in cum[:-1]:
                pick += u >= c
            stack = np.zeros((len(short), steps + 1), dtype=np.int32)
            length = np.zeros(len(short), dtype=np.intp)
            for step in letters[pick]:
                _free_push(stack, length, step)
            done = length >= depth
            hits += np.bincount(word_index(stack[done, :depth], mu.d), minlength=len(hits))
            discards += len(short) - int(done.sum())
            short = short[~done]
            if not len(short):
                break
        else:
            raise TooManyDiscards(
                f"trajectory {start + int(short[0])} still short after {max_attempts} attempts"
            )
    if trajectories > 0 and discards > 0.1 * trajectories:
        raise TooManyDiscards(f"{discards} discards out of {trajectories} trajectories")
    table = {}
    if trajectories > 0:
        n = trajectories
        expected = harmonic_measure(mu, depth)
        counts = dict(zip(map(tuple, word_array(mu.d, depth).tolist()), hits.tolist()))
        for wkey in sorted(expected.masses):
            exp = expected.mass(wkey)
            table[encode_word(wkey)] = {"freq": counts[wkey] / n, "expected": exp,
                                        "stderr": math.sqrt(exp * (1.0 - exp) / n)}
    return {
        "trajectories": trajectories,
        "steps": steps,
        "depth": depth,
        "discards": discards,
        "table": table,
    }


# --- Abel measures ------------------------------------------------------------

@dataclass(frozen=True)
class AbelMeasure:
    """Truncated geometric-weight mixture of the walk's level distributions."""

    t: int
    r: int
    a: float
    K: int
    N: int
    entries: dict  # (n, j, g) -> mass
    tail_mass: float
    group: GroupSpec

    @property
    def stored_total(self) -> float:
        return math.fsum(self.entries.values())


def _tail_exponent(a: float, eps: float) -> int:
    """Least m >= 1 with a^m < eps."""
    if not eps > 0:
        raise ParseError("eps must be positive")
    m = 1
    while a**m >= eps:
        m += 1
        if m > 10_000_000:
            raise BudgetExceeded("geometric tail will not reach eps")
    return m


def abel_measure(s: StochasticSequence, t: int, r: int, a: float, K: int,
                 eps: float, N: int | None = None,
                 budget: int = ELEMENT_BUDGET) -> AbelMeasure:
    """nu_{r,a;K}^{(t)} truncated at level N with the exact geometric tail mass.

    mass(n,j,g) = (1-a)/a^{t+1+K} * 1_{n >= t+1+K} * a^n * (sigma^{(t+1)} * ... *
    sigma^{(n)})_{r,j}(g); stored total + tail = 1 with tail = a^{N-t-K}.
    """
    if not (0.0 < a < 1.0):
        raise ParseError("a must be in (0,1)")
    if not eps > 0 or t < -1 or K < 0:
        raise ParseError("need eps > 0, t >= -1, K >= 0")
    if r < 0 or r >= s.ell_at(t):
        raise ParseError(f"row {r} out of range for level {t}")
    if N is None:
        N = t + K + _tail_exponent(a, eps)
    first = t + 1 + K
    entries: dict = {}
    dist = {(r, s.group.identity): 1.0}
    for n in range(t + 1, N + 1):
        dist = _propagate(s, dist, n, budget)
        if n >= first:
            scale = (1.0 - a) * a ** (n - first)
            for (j, g), m in dist.items():
                entries[(n, j, g)] = scale * m
            if len(entries) > budget:
                raise BudgetExceeded(f"abel entry budget exceeded at level {n}", level=n)
    tail = a ** (N - t - K)
    return AbelMeasure(t, r, a, K, N, entries, tail, s.group)


def abel_identity_residual(s: StochasticSequence, t: int, a: float, K: int,
                           eps: float, budget: int = ELEMENT_BUDGET) -> float:
    """Residual of sum_r sigma^(t)_{s,r} * nu^{(t)}_{r,a;K} = nu^{(t-1)}_{s,a;K+1}.

    Both sides are truncated at the same level so the geometric tails match.
    """
    if t < 0:
        raise ParseError("the identity needs t >= 0")
    N = t + K + _tail_exponent(a, eps)
    mat = s.matrix(t)
    mul = s.group.mul
    abels = [abel_measure(s, t, r, a, K, eps, N=N, budget=budget)
             for r in range(s.ell_at(t))]
    worst = 0.0
    for srow in range(s.ell_at(t - 1)):
        acc: dict = {}
        for r, ab in enumerate(abels):
            cell = mat[srow][r]
            for x, wx in cell.items():
                if wx == 0.0:
                    continue
                for (n, j, g), m in ab.entries.items():
                    key = (n, j, mul(x, g))
                    acc.setdefault(key, []).append(wx * m)
        lhs = {k: math.fsum(v) for k, v in acc.items()}
        rhs = abel_measure(s, t - 1, srow, a, K + 1, eps, N=N, budget=budget)
        keys = set(lhs) | set(rhs.entries)
        for k in keys:
            worst = max(worst, abs(lhs.get(k, 0.0) - rhs.entries.get(k, 0.0)))
    return worst


# --- Folner experiment on Z ---------------------------------------------------

GEOM_BLOCK = 256


def _geometric_prefix(x: np.ndarray, b: float) -> np.ndarray:
    """L[k] = b L[k-1] + x[k] with L[-1] = 0, for 0 < b < 1.

    Blocks of at most GEOM_BLOCK positions compute L = b^j cumsum(x b^-j) with
    the carry from the block before folded into the first term, so that at
    b = 1/2 every product is exact and the sums are the recurrence's own.
    Blocks shrink for small b so that b^-j stays below 2^600.
    """
    size = min(GEOM_BLOCK, 1 + int(600 * math.log(2.0) / -math.log(b)))
    j = np.arange(size, dtype=float)
    up, down = b ** -j, b ** j
    out = np.empty_like(x)
    carry = 0.0
    for s in range(0, len(x), size):
        seg = x[s:s + size].copy()
        seg[0] += b * carry
        n = len(seg)
        out[s:s + n] = down[:n] * np.cumsum(seg * up[:n])
        carry = out[s + n - 1]
    return out


def _geometric_tails(m: np.ndarray, lo: int, window_lo: int, window_hi: int,
                     b: float) -> np.ndarray:
    """Convolve a finitely supported array with c*b^|k| exactly on a window.

    m[j] is the mass at integer lo+j. Uses the prefix recurrences
    L[k] = b L[k-1] + m[k], R[k] = b R[k+1] + m[k].
    """
    c = (1.0 - b) / (1.0 + b)
    size = window_hi - window_lo + 1
    full = np.zeros(size)
    full[lo - window_lo: lo - window_lo + len(m)] = m
    left = _geometric_prefix(full, b)
    right = _geometric_prefix(full[::-1], b)[::-1]
    return c * (left + right - full)


def folner_sequence_z(max_level: int):
    """Interval-uniform convolution powers rho_n = u_1 * ... * u_n on Z.

    u_n is uniform on [-2^n, 2^n]; rho_0 is the point mass at 0. Returns the
    list of (array, lo) pairs where array[j] is the mass at lo+j.
    """
    rhos = [(np.array([1.0]), 0)]
    arr, lo = rhos[0]
    for n in range(1, max_level + 1):
        width = 2 ** n
        # convolution with a uniform kernel is a sliding-window mean, which a
        # prefix-sum difference computes in linear time
        win = 2 * width + 1
        padded = np.zeros(len(arr) + 2 * win)
        padded[win: win + len(arr)] = arr
        csum = np.concatenate(([0.0], np.cumsum(padded)))
        out_len = len(arr) + win - 1
        k = np.arange(out_len)
        arr = (csum[k + win + 1] - csum[k + 1]) / win
        lo = lo - width
        rhos.append((arr, lo))
    return rhos


def folner_entropy_curve(lam: FiniteMeasure, f: ConvexGenerator, a_values,
                         eps: float, max_level: int | None = None,
                         geom_b: float = 0.5, window_margin: int = 64) -> dict:
    """Entropy h_{lam,f} of the Abel projections lambda_a on Z.

    sigma^(0) is the two-sided geometric with ratio geom_b (full support, so
    lambda_a is strictly positive and all shift divergences are finite);
    sigma^(n) is uniform on [-2^n, 2^n]. When max_level caps the truncation
    below what eps asks for, the dropped geometric weight is renormalized into
    the stored levels and reported.

    The far tails of lambda_a are prefix-sum noise: positions where either
    shifted mass is at or below ZERO_MASS are dropped before D_f is taken,
    since their masses are below the float resolution of lambda_a's total.
    """
    if not 0.0 < geom_b < 1.0:
        raise ParseError("geom_b must lie in (0,1)")
    shifts = sorted(int(k) for k in lam.atoms)
    if not lam.is_probability:
        raise ParseError("lambda on Z must be a probability measure")
    results = []
    hard_cap = 22  # support 2^{n+1} entries; beyond this the arrays blow the budget
    for a in a_values:
        if not (0.0 < a < 1.0):
            raise ParseError("a values must lie in (0,1)")
        n_eps = _tail_exponent(a, eps) - 1  # minimal N with a^{N+1} < eps
        if max_level is None:
            if n_eps > hard_cap:
                raise BudgetExceeded(
                    f"a={a} with eps={eps} needs truncation level {n_eps}", level=n_eps
                )
            N = n_eps
        else:
            N = min(n_eps, max_level)
        rhos = folner_sequence_z(N)
        weights = np.array([(1.0 - a) * a**n for n in range(N + 1)])
        tail_mass = a ** (N + 1)
        weights = weights / weights.sum()
        lo_all = min(lo for _, lo in rhos)
        hi_all = max(lo + len(arr) - 1 for arr, lo in rhos)
        m_a = np.zeros(hi_all - lo_all + 1)
        for wgt, (arr, lo) in zip(weights, rhos):
            m_a[lo - lo_all: lo - lo_all + len(arr)] += wgt * arr
        smax = max(abs(s) for s in shifts) if shifts else 0
        window_lo = lo_all - window_margin - smax
        window_hi = hi_all + window_margin + smax
        lam_a = _geometric_tails(m_a, lo_all, window_lo, window_hi, geom_b)
        # far tails cancel below float resolution in the prefix sums; the true
        # values there are strictly positive but smaller than the noise floor
        np.clip(lam_a, 0.0, None, out=lam_a)
        lam_a = lam_a / lam_a.sum()
        h_terms = []
        for skey, wgt in sorted(lam.atoms.items(), key=lambda kv: int(kv[0])):
            sft = int(skey)
            if wgt == 0.0:
                continue
            lo_k = window_lo + smax
            hi_k = window_hi - smax
            q = lam_a[lo_k - window_lo: hi_k - window_lo + 1]
            p = lam_a[lo_k - sft - window_lo: hi_k - sft - window_lo + 1]
            # a tail position just above the floor in p but not in q would
            # count as escaped mass, which is infinite for KL
            keep = (p > ZERO_MASS) & (q > ZERO_MASS)
            h_terms.append(wgt * divergence_arrays(p[keep], q[keep], f))
        results.append({
            "a": a,
            "h": math.fsum(h_terms),
            "truncation_level": N,
            "tail_mass": tail_mass,
        })
    return {"curve": results}
