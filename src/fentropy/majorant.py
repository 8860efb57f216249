"""Majorant gauges, C_rho norms on finite probability spaces, and the
de la Vallee-Poussin construction.

A majorant is a concave gauge rho on [0,1] with rho(0)=0, rho(1)=1; the
C_rho norm is the sup over events A of int_A |f| dnu / rho(nu(A)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .divergence import PROB_TOL, FiniteMeasure
from .errors import (
    AtomMismatch,
    BadSample,
    InvalidWeight,
    NotSuperlinear,
    ParseError,
    TooManyAtoms,
    ValidationError,
)

EXACT_ATOM_CAP = 20
VP_GRID_SIZE = 512  # vallee_poussin's v-grid: this many uniform points, half as many log-spaced


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique for NaN-free floats, without importing numpy.ma."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


_GRID = _sorted_unique(np.concatenate([
    np.linspace(0.0, 1.0, 1025),
    np.logspace(-12, 0, 257),
]))


@dataclass(frozen=True)
class Majorant:
    kind: str  # "power" | "pwl"
    q: float | None = None
    ts: tuple | None = None
    ys: tuple | None = None

    def __post_init__(self):
        if self.kind == "power":
            if self.q is None or self.q < 1.0:
                raise ParseError("power majorant needs q >= 1")
        elif self.kind == "pwl":
            if self.ts is None or self.ys is None or len(self.ts) != len(self.ys):
                raise ParseError("pwl majorant needs matching breakpoint arrays")
        else:
            raise ParseError(f"unknown majorant kind {self.kind!r}")

    def eval(self, t: float) -> float:
        return float(self.eval_array(np.array([t]))[0])

    # float copies of the breakpoints, filled on first use; they live in the
    # instance __dict__, outside the fields that ==, hash and repr read
    @functools.cached_property
    def _ts(self) -> np.ndarray:
        return np.asarray(self.ts, dtype=float)

    @functools.cached_property
    def _ys(self) -> np.ndarray:
        return np.asarray(self.ys, dtype=float)

    def eval_array(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            return np.asarray(t, dtype=float) ** (1.0 / self.q)
        return np.interp(t, self._ts, self._ys)

    def validate(self) -> None:
        y = self.eval_array(_GRID)
        if abs(self.eval(0.0)) > 1e-9 or abs(self.eval(1.0) - 1.0) > 1e-9:
            raise ValidationError("majorant must satisfy rho(0)=0, rho(1)=1")
        if np.any(y < _GRID - 1e-12):
            raise ValidationError("majorant must dominate the diagonal")
        if np.any(np.diff(y) < -1e-12):
            raise ValidationError("majorant must be non-decreasing")
        mid = self.eval_array((_GRID[:-1] + _GRID[1:]) / 2.0)
        if np.any(mid < (y[:-1] + y[1:]) / 2.0 - 1e-9):
            raise ValidationError("majorant must be concave")
        xs = np.linspace(0.0, 1.0, 65)
        rx = self.eval_array(xs)
        pairs = xs[:, None] + xs[None, :]  # every (x, y); only x + y <= 1 counts
        lhs = rx[:, None] + rx[None, :]
        rhs = self.eval_array(np.minimum(pairs, 1.0))
        if np.any((lhs < rhs - 1e-9) & (pairs <= 1.0 + 1e-15)):
            raise ValidationError("majorant must be sub-additive")

    def to_json(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "q": self.q}
        return {"kind": "pwl", "points": [[t, y] for t, y in zip(self.ts, self.ys)]}

    @classmethod
    def from_json(cls, doc: dict) -> "Majorant":
        kind = doc.get("kind")
        if kind == "power":
            return cls("power", q=float(doc["q"]))
        if kind == "pwl":
            pts = sorted((float(t), float(y)) for t, y in doc["points"])
            return cls("pwl", ts=tuple(t for t, _ in pts), ys=tuple(y for _, y in pts))
        raise ParseError(f"bad majorant JSON {doc!r}")


def power_majorant(q: float) -> Majorant:
    return Majorant("power", q=q)


def _pwl_from_samples(ts: np.ndarray, ys: np.ndarray) -> Majorant:
    order = np.argsort(ts)
    return Majorant("pwl", ts=tuple(ts[order].tolist()), ys=tuple(ys[order].tolist()))


def concave_envelope(samples) -> Majorant:
    """Piecewise-linear upper concave hull through (1,1), dominating the samples."""
    pts = sorted((float(t), float(y)) for t, y in samples)
    ts = {t for t, _ in pts}
    if 0.0 not in ts or 1.0 not in ts:
        raise BadSample("sample abscissae must include 0 and 1")
    for t, y in pts:
        if not (0.0 <= t <= 1.0) or not (0.0 <= y <= 1.0 + 1e-12):
            raise BadSample(f"sample ({t},{y}) outside the unit square")
        if t == 0.0 and y > 0.0:
            raise BadSample("y(0) must be 0")
    pts.append((1.0, 1.0))
    best: dict = {}
    for t, y in pts:
        if t not in best or y > best[t]:
            best[t] = y
    pts = sorted(best.items())
    hull = []  # monotone chain, upper hull
    for t, y in pts:
        while len(hull) >= 2:
            (t1, y1), (t2, y2) = hull[-2], hull[-1]
            # drop middle point if it lies on or below chord (t1,y1)-(t,y)
            if (y2 - y1) * (t - t1) <= (y - y1) * (t2 - t1) + 1e-18:
                hull.pop()
            else:
                break
        hull.append((t, y))
    ts_h = np.array([t for t, _ in hull])
    ys_h = np.array([y for _, y in hull])
    return _pwl_from_samples(ts_h, ys_h)


def combine(op: str, inputs, K: float | None = None, weights=None) -> Majorant:
    """compose / max / cap(K) / mix(weights) on majorants; output re-validated."""
    if op == "compose":
        rho, eta = inputs
        if rho.kind == "power" and eta.kind == "power":
            out = power_majorant(rho.q * eta.q)
        else:
            ys = rho.eval_array(eta.eval_array(_GRID))
            out = concave_envelope(zip(_GRID, np.clip(ys, 0.0, 1.0)))
    elif op == "max":
        # the pointwise max of concave gauges need not be concave; the hull of
        # the max is the least majorant dominating both (the semilattice join).
        # include the inputs' breakpoints so corners are not interpolated away
        grid = _GRID
        for r in inputs:
            if r.kind == "pwl":
                grid = np.union1d(grid, np.asarray(r.ts))
        ys = np.max([r.eval_array(grid) for r in inputs], axis=0)
        out = concave_envelope(zip(grid, np.clip(ys, 0.0, 1.0)))
    elif op == "cap":
        if K is None or K < 1.0:
            raise InvalidWeight("cap needs K >= 1")
        (rho,) = inputs
        if K == 1.0:
            return rho
        ys = np.minimum(1.0, K * rho.eval_array(_GRID))
        out = _pwl_from_samples(_GRID, ys)
    elif op == "mix":
        if weights is None or len(weights) != len(inputs):
            raise InvalidWeight("mix needs one weight per input")
        w = np.array([float(x) for x in weights])
        if np.any(w < 0) or abs(w.sum() - 1.0) > PROB_TOL:
            raise InvalidWeight("mix weights must form a probability vector")
        ys = sum(wi * r.eval_array(_GRID) for wi, r in zip(w, inputs))
        out = _pwl_from_samples(_GRID, ys)
    else:
        raise ParseError(f"unknown combine op {op!r}")
    out.validate()
    return out


@dataclass(frozen=True)
class WeightedFunction:
    """A real function on the atoms of a finite probability space."""

    space: FiniteMeasure
    values: dict  # atom label -> real

    def __post_init__(self):
        missing = self.space.labels() - set(self.values)
        if missing:
            raise AtomMismatch(f"values missing for atoms {sorted(map(str, missing))}")
        for label, v in self.values.items():
            if not math.isfinite(v):
                raise ValidationError(f"value {v} at atom {label!r} is not finite")

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "values": {str(k): v for k, v in self.values.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "WeightedFunction":
        try:
            return cls(FiniteMeasure.from_json(doc["space"]), dict(doc["values"]))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad WeightedFunction JSON: {exc}") from exc


def _positive_atoms(f: WeightedFunction):
    labels = sorted((k for k in f.space.labels() if f.space.mass(k) > 0), key=str)
    nu = np.array([f.space.mass(k) for k in labels])
    w = np.array([abs(f.values[k]) * f.space.mass(k) for k in labels])
    return labels, nu, w


def _subset_sums(values: np.ndarray):
    """All 2^n subset sums, index k selects atoms in k's binary support."""
    n = len(values)
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def rho_norm(f: WeightedFunction, rho: Majorant, mode: str = "exact") -> float:
    """sup_A int_A |f| dnu / rho(nu(A)); exact enumerates all subsets."""
    labels, nu, w = _positive_atoms(f)
    if len(labels) == 0:
        return 0.0
    if mode == "exact":
        if len(labels) > EXACT_ATOM_CAP:
            raise TooManyAtoms(f"{len(labels)} atoms; exact mode caps at {EXACT_ATOM_CAP}")
        nu_sums = _subset_sums(nu)[1:]
        w_sums = _subset_sums(w)[1:]
        denom = rho.eval_array(np.minimum(nu_sums, 1.0))
        good = denom > 0
        if not np.all(good) and np.any(w_sums[~good] > 0):
            return math.inf
        return float(np.max(w_sums[good] / denom[good])) if np.any(good) else 0.0
    if mode == "prefix":
        order = np.argsort(-w / nu)  # descending |f|
        nu_c = np.cumsum(nu[order])
        w_c = np.cumsum(w[order])
        denom = rho.eval_array(np.minimum(nu_c, 1.0))
        good = denom > 0
        return float(np.max(w_c[good] / denom[good])) if np.any(good) else 0.0
    raise ParseError(f"unknown mode {mode!r}")


def rho_abs_continuity(m: FiniteMeasure, nu: FiniteMeasure, rho: Majorant) -> bool:
    """True iff m(A) <= rho(nu(A)) for every subset A."""
    if m.labels() != nu.labels():
        raise AtomMismatch("m and nu live on different atom sets")
    labels = sorted(m.labels(), key=str)
    if len(labels) > EXACT_ATOM_CAP:
        raise TooManyAtoms(f"{len(labels)} atoms; cap is {EXACT_ATOM_CAP}")
    m_sums = _subset_sums(np.array([m.mass(k) for k in labels]))[1:]
    nu_sums = _subset_sums(np.array([nu.mass(k) for k in labels]))[1:]
    bound = rho.eval_array(np.minimum(nu_sums, 1.0))
    return bool(np.all(m_sums <= bound + 1e-12))


# numpy's vector pow, exp and log can differ from the libm call a Python float
# takes by an ulp or two (2 at most for t log1p t over 3e5 draws); values of G
# this close to the bound are taken again one float at a time, so that every
# comparison with the bound is the one a scalar loop makes
_NEAR_BOUND = 2.0**-48


def _call(G, x: float) -> float:
    try:
        return G(x)
    except OverflowError:  # G(x) is past the largest float, so past any bound
        return math.inf


def _growth_evaluator(G, C: np.ndarray):
    """G(1) against each bound in C, and the evaluator (s, c) -> G(s) for the
    rest of the call; c is the bound of each point.

    A G that maps a float array to a float array of its shape is called once
    per array, with overflow read as +inf. Any other G is called on one Python
    float at a time, with an OverflowError read as +inf.
    """
    def elementwise(s, c=None):
        return np.array([_call(G, x) for x in s.tolist()], dtype=float)

    def on_array(s, c, g=None):
        if g is None:
            with np.errstate(over="ignore"):
                g = G(s)
        near = np.flatnonzero((c * (1.0 - _NEAR_BOUND) <= g) & (g <= c * (1.0 + _NEAR_BOUND)))
        if near.size:
            g = g.copy()
            g[near] = elementwise(s[near])
        return g

    ones = np.ones(len(C))
    try:
        with np.errstate(over="ignore"):
            g = G(ones.copy())
    except (TypeError, ValueError):
        g = None
    if isinstance(g, np.ndarray) and g.shape == ones.shape and g.dtype == np.float64:
        return on_array(ones, C, g), on_array
    return elementwise(ones), elementwise


def _largest_feasible_grid(G, C: np.ndarray) -> np.ndarray:
    """sup{s : G(s) <= C} for each bound in C; the feasible set of a convex G
    is an interval.

    Each point follows one rule: halve s from 1 until G(s) <= C (0 after 2000
    halvings), double s_hi from max(2s, 2) while G(s_hi) <= C, then bisect at
    most 200 times until hi - lo <= 1e-13 max(1, lo). A point stops under its
    own test, and each round evaluates G once on the points still active.
    """
    n = len(C)
    lo = np.ones(n)
    g, evaluate = _growth_evaluator(G, C)
    # every point still halving holds the same s
    idx = np.flatnonzero(g > C)
    s = 1.0
    for _ in range(2000):
        if not idx.size:
            break
        s /= 2.0
        lo[idx] = s
        c = C[idx]
        idx = idx[evaluate(lo[idx], c) > c]
    # a point still above its bound after 2000 halvings gets 0 and stops
    lo[idx] = 0.0
    live = np.ones(n, dtype=bool)
    live[idx] = False
    live = np.flatnonzero(live)

    hi = np.maximum(2.0 * lo, 2.0)
    idx = live
    while idx.size:
        c = C[idx]
        idx = idx[evaluate(hi[idx], c) <= c]
        hi[idx] *= 2.0
        if np.any(hi[idx] > 1e15):
            raise NotSuperlinear("G never exceeds the bound on the search range")

    idx = live
    for _ in range(200):
        if not idx.size:
            break
        a, b, c = lo[idx], hi[idx], C[idx]
        mid = 0.5 * (a + b)
        ok = evaluate(mid, c) <= c
        a = np.where(ok, mid, a)
        b = np.where(ok, b, mid)
        lo[idx] = a
        hi[idx] = b
        idx = idx[b - a > 1e-13 * np.maximum(1.0, a)]
    return lo


def vallee_poussin(G, M: float):
    """Gauge from an integrability bound: rho1(v) = sup{t : G(t/v) <= M/v}.

    Returns (rho, K) with K = rho1(1) and rho the normalized concave hull of
    rho1 (detected exactly as a power when rho1 has power shape). Any f with
    E[G(|f|)] <= M then has rho-norm at most K.
    """
    if not M > 0:
        raise ParseError("M must be positive")
    g_eval = G.eval if hasattr(G, "eval") else G
    vs = _sorted_unique(np.concatenate([
        np.linspace(0.0, 1.0, VP_GRID_SIZE + 1)[1:],
        np.logspace(-10, 0, VP_GRID_SIZE // 2),
    ]))
    with np.errstate(over="ignore"):
        C = M / vs
    if not np.isfinite(C).all():
        raise ParseError(f"M must be finite, and M/v finite for v >= {float(vs[0])!r}; "
                         f"got M = {M!r}")
    rho1 = vs * _largest_feasible_grid(g_eval, C)
    K = rho1[-1]
    if K <= 0:
        raise NotSuperlinear("rho1(1) = 0; the bound admits no function at all")
    # superlinearity of G is equivalent to rho1(v) -> 0 as v -> 0; a linear G
    # gives a constant rho1, which cannot be normalized into a gauge
    if rho1[0] > 0.5 * K:
        raise NotSuperlinear("G(t)/t does not grow; rho1 has no decay at 0")
    ys = rho1 / K
    interior = (vs > 1e-8) & (vs < 0.9999) & (ys > 0)
    if np.any(interior):
        exps = np.log(ys[interior]) / np.log(vs[interior])
        if (exps.mean() > 1e-12
                and np.max(np.abs(exps - exps.mean())) < 1e-9
                and exps.mean() <= 1.0 + 1e-9):
            q = 1.0 / exps.mean()
            if abs(q - round(q)) < 1e-6:
                q = float(round(q))
            return power_majorant(max(q, 1.0)), float(K)
    rho = concave_envelope(
        [(0.0, 0.0)] + list(zip(vs, np.clip(ys, 0.0, 1.0)))
    )
    rho.validate()
    return rho, float(K)


def split_integrable(f: WeightedFunction, rho: Majorant, C: float) -> set:
    """Greedy bad-set extraction: returns B with ||f 1_{B^c}||_rho <= C.

    Each round unions in a maximal-measure bad subset of the complement;
    disjoint bad sets union to a bad set by sub-additivity of rho.
    """
    if not C > 0:
        raise ParseError("C must be positive")
    labels, nu, w = _positive_atoms(f)
    if len(labels) > EXACT_ATOM_CAP - 8:
        raise TooManyAtoms("split certification caps at 12 atoms")
    in_b = np.zeros(len(labels), dtype=bool)
    while True:
        # one round: the first maximal-measure bad subset of the complement,
        # in the order of _subset_sums' masks
        rest = np.where(~in_b)[0]
        nu_sums = _subset_sums(nu[rest])[1:]
        w_sums = _subset_sums(w[rest])[1:]
        bad = w_sums > C * rho.eval_array(np.minimum(nu_sums, 1.0))
        if not bad.any():
            break
        mask = int(np.argmax(np.where(bad, nu_sums, -1.0))) + 1
        in_b[rest[[(mask >> k) & 1 == 1 for k in range(len(rest))]]] = True
    return {labels[i] for i in np.where(in_b)[0]}


def conditional_expectation(f: WeightedFunction, pi) -> WeightedFunction:
    """Average f over the fibers of the label map pi; contracts every rho-norm."""
    space = f.space.pushforward(pi)
    acc: dict = {}
    for x in f.space.atoms:
        y = pi(x)
        acc.setdefault(y, []).append(f.values[x] * f.space.mass(x))
    values = {
        y: (math.fsum(v) / space.mass(y) if space.mass(y) > 0 else 0.0)
        for y, v in acc.items()
    }
    return WeightedFunction(space, values)


def majorant_for_measure(m: FiniteMeasure, nu: FiniteMeasure) -> Majorant:
    """A gauge making m rho-absolutely continuous w.r.t. nu (m << nu required)."""
    if m.labels() != nu.labels():
        raise AtomMismatch("m and nu live on different atom sets")
    labels = sorted(m.labels(), key=str)
    if len(labels) > EXACT_ATOM_CAP:
        raise TooManyAtoms(f"{len(labels)} atoms; cap is {EXACT_ATOM_CAP}")
    m_sums = _subset_sums(np.array([m.mass(k) for k in labels]))
    nu_sums = _subset_sums(np.array([nu.mass(k) for k in labels]))
    samples = [(min(v, 1.0), min(y, 1.0)) for v, y in zip(nu_sums, m_sums)]
    samples.append((1.0, 1.0))
    return concave_envelope(samples)
