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
    IncompleteTable,
    NotProbability,
    ParseError,
    TooManyDiscards,
    ValidationError,
)
from .free_boundary import GeneratorMeasure, harmonic_measure, pushforward
from .words import ReducedWord, decode_word, encode_word, letter_order, reduce_letters

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

    def inv(self, a):
        if self.kind == "free":
            return tuple(-x for x in reversed(a))
        return -a

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
    cum = np.cumsum(masses)
    cum /= cum[-1]
    return sheets, elems, cum


def sample_trajectory(s: StochasticSequence, steps: int, seed: int) -> list:
    """States X_0..X_steps; deterministic given the seed."""
    if steps < 1:
        raise ParseError("steps must be >= 1")
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


def sample_endpoints(s: StochasticSequence, steps: int, trajectories: int,
                     seed: int) -> Counter:
    """Empirical distribution of X_steps; trajectory i uses rng(seed, i)."""
    counts: Counter = Counter()
    samplers = {}
    for n in range(steps + 1):
        mat = s.matrix(n)
        for i in range(len(mat)):
            samplers[(n, i)] = _row_choices(mat[i])
    for idx in range(trajectories):
        rng = np.random.default_rng([seed, idx])
        u = rng.random(steps + 1)
        sheets, elems, cum = samplers[(0, 0)]
        k = int(np.searchsorted(cum, u[0], side="right"))
        i, g = sheets[k], elems[k]
        for n in range(1, steps + 1):
            sheets, elems, cum = samplers[(n, i)]
            k = int(np.searchsorted(cum, u[n], side="right"))
            i = sheets[k]
            g = s.group.mul(g, elems[k])
        counts[(i, g)] += 1
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


def check_harmonic(s: StochasticSequence, h: LevelFunction, levels: range) -> float:
    """max over (m, (i,g)) of |h_{m-1}(i,g) - sum h_m(j, g x) sigma^(m)_{i,j}(x)|."""
    worst = 0.0
    mul = s.group.mul
    for m in levels:
        if m < 1:
            continue
        mat = s.matrix(m)
        if m - 1 >= len(h.tables):
            break
        for (i, g), val in h.tables[m - 1].items():
            acc = []
            for j, cell in enumerate(mat[i]):
                for x, w in cell.items():
                    acc.append(w * h.value(m, j, mul(g, x)))
            worst = max(worst, abs(val - math.fsum(acc)))
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
        acc = []
        for j, cell in enumerate(mat[i]):
            for x, w in cell.items():
                acc.append(w * h.value(n + 1, j, mul(g, x)))
        worst = max(worst, abs(math.fsum(acc) - h.value(n, i, g)))
    return worst


def poisson_transform_cylinder(mu: GeneratorMeasure, w: tuple, levels: int) -> LevelFunction:
    """h_m(0, g) = (g nu_mu)(C_w) for the constant-mu walk, tabulated on balls.

    Level m covers |g| <= m+1, which is the reachable set after m+1 increments.
    """
    depth = len(w)
    if depth < 1:
        raise ParseError("need a nonempty cylinder word")
    cache = {}

    def value(g: tuple) -> float:
        if g not in cache:
            nu = harmonic_measure(mu, depth + len(g))
            pushed = pushforward(ReducedWord(g, mu.d), nu, depth)
            cache[g] = pushed.mass(w)
        return cache[g]

    tables = []
    ball = [()]
    radius = 0
    for m in range(levels + 1):
        while radius < m + 1:
            extra = []
            for g in ball:
                if len(g) == radius:
                    for x in letter_order(mu.d):
                        if not g or x != -g[-1]:
                            extra.append(g + (x,))
            ball.extend(extra)
            radius += 1
        tables.append({(0, g): value(g) for g in ball})
    return LevelFunction(tables)


# --- boundary Monte Carlo -----------------------------------------------------

def boundary_empirical(mu: GeneratorMeasure, steps: int, trajectories: int,
                       seed: int, depth: int, max_attempts: int = 8) -> dict:
    """Empirical depth-n cylinder frequencies of the walk's exit direction.

    A trajectory whose endpoint is shorter than `depth` is discarded and
    resampled (attempt k of trajectory i uses rng(seed, i, k)).
    """
    if steps < 4 * depth:
        raise ParseError("need steps >= 4 * depth for a reliable exit prefix")
    letters = np.array(letter_order(mu.d))
    probs = np.array([mu.p[int(j)] for j in letters])
    cum = np.cumsum(probs)
    cum /= cum[-1]
    counts: Counter = Counter()
    discards = 0
    for idx in range(trajectories):
        for attempt in range(max_attempts):
            rng = np.random.default_rng([seed, idx, attempt])
            draws = letters[np.searchsorted(cum, rng.random(steps), side="right")]
            wred = reduce_letters([int(x) for x in draws], mu.d)
            if len(wred) >= depth:
                counts[wred[:depth]] += 1
                break
            discards += 1
        else:
            raise TooManyDiscards(
                f"trajectory {idx} still short after {max_attempts} attempts"
            )
    if trajectories > 0 and discards > 0.1 * trajectories:
        raise TooManyDiscards(f"{discards} discards out of {trajectories} trajectories")
    expected = harmonic_measure(mu, depth) if trajectories > 0 else None
    table = {}
    n = trajectories
    words = sorted(counts) if expected is None else sorted(expected.masses)
    for wkey in words:
        freq = counts.get(wkey, 0) / n if n else 0.0
        exp = expected.mass(wkey) if expected else 0.0
        stderr = math.sqrt(exp * (1.0 - exp) / n) if n else 0.0
        table[encode_word(wkey)] = {"freq": freq, "expected": exp, "stderr": stderr}
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

    def level_mass(self, n: int) -> float:
        return math.fsum(m for (k, _, _), m in self.entries.items() if k == n)


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
    left = np.zeros(size)
    right = np.zeros(size)
    left[0] = full[0]
    for k in range(1, size):
        left[k] = b * left[k - 1] + full[k]
    right[-1] = full[-1]
    for k in range(size - 2, -1, -1):
        right[k] = b * right[k + 1] + full[k]
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
