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
        kind = doc.get("kind") if isinstance(doc, dict) else None
        try:
            if kind == "power":
                return cls("power", q=float(doc["q"]))
            if kind == "pwl":
                pts = sorted((float(t), float(y)) for t, y in doc["points"])
                return cls("pwl", ts=tuple(t for t, _ in pts), ys=tuple(y for _, y in pts))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad majorant JSON: {exc}") from exc
        raise ParseError(f"bad majorant JSON {doc!r}")


def power_majorant(q: float) -> Majorant:
    return Majorant("power", q=q)


def _pwl_from_samples(ts: np.ndarray, ys: np.ndarray) -> Majorant:
    order = np.argsort(ts)
    return Majorant("pwl", ts=tuple(ts[order].tolist()), ys=tuple(ys[order].tolist()))


def concave_envelope(samples) -> Majorant:
    """Piecewise-linear upper concave hull through (1,1), dominating the samples.

    samples is an (n, 2) float array or an iterable of (t, y) pairs. numpy
    checks the samples (the abscissae include 0 and 1, every sample lies in
    the unit square, y(0) = 0; a failure names the first bad sample in (t, y)
    order), sorts them once and keeps the largest y of each t, then Andrew's
    monotone chain builds the upper hull over Python floats.
    """
    try:
        if isinstance(samples, np.ndarray) and samples.ndim == 2 and samples.shape[1] == 2:
            pts = samples.astype(float, copy=False)
        else:
            pts = np.array([(float(t), float(y)) for t, y in samples]).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadSample(f"samples must be (t, y) pairs of numbers: {exc}") from exc
    t, y = pts[:, 0], pts[:, 1]
    if not ((t == 0.0).any() and (t == 1.0).any()):
        raise BadSample("sample abscissae must include 0 and 1")
    outside = ~((0.0 <= t) & (t <= 1.0) & (0.0 <= y) & (y <= 1.0 + 1e-12))
    bad = outside | ((t == 0.0) & (y > 0.0))
    if bad.any():
        order = np.lexsort((y, t))
        i = order[np.argmax(bad[order])]
        if outside[i]:
            raise BadSample(f"sample ({float(t[i])},{float(y[i])}) outside the unit square")
        raise BadSample("y(0) must be 0")
    # t ascending, y descending; the sort is stable, so each t's first sample
    # is its largest y, the earliest given of equal ones (this fixes the sign
    # of a zero), and t = -0.0 and 0.0 keep the order they came in
    order = np.lexsort((-y, t))
    t, y = t[order], y[order]
    first = np.ones(len(t), dtype=bool)
    first[1:] = t[1:] != t[:-1]
    t, y = t[first], y[first]
    y[-1] = max(y[-1], 1.0)  # the hull passes through (1, 1); t[-1] is 1
    hull = []  # monotone chain, upper hull
    for p in zip(t.tolist(), y.tolist()):
        tk, yk = p
        while len(hull) >= 2:
            (t1, y1), (t2, y2) = hull[-2], hull[-1]
            # drop middle point if it lies on or below chord (t1,y1)-(tk,yk)
            if (y2 - y1) * (tk - t1) <= (yk - y1) * (t2 - t1) + 1e-18:
                hull.pop()
            else:
                break
        hull.append(p)
    return Majorant("pwl", ts=tuple(p[0] for p in hull), ys=tuple(p[1] for p in hull))


def combine(op: str, inputs, K: float | None = None, weights=None) -> Majorant:
    """compose / max / cap(K) / mix(weights) on majorants; output re-validated."""
    if op == "compose":
        rho, eta = inputs
        if rho.kind == "power" and eta.kind == "power":
            out = power_majorant(rho.q * eta.q)
        else:
            ys = rho.eval_array(eta.eval_array(_GRID))
            out = concave_envelope(np.column_stack([_GRID, np.clip(ys, 0.0, 1.0)]))
    elif op == "max":
        # the pointwise max of concave gauges need not be concave; the hull of
        # the max is the least majorant dominating both (the semilattice join).
        # include the inputs' breakpoints so corners are not interpolated away
        grid = _GRID
        for r in inputs:
            if r.kind == "pwl":
                grid = np.union1d(grid, np.asarray(r.ts))
        ys = np.max([r.eval_array(grid) for r in inputs], axis=0)
        out = concave_envelope(np.column_stack([grid, np.clip(ys, 0.0, 1.0)]))
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


def _call(G, x: float) -> float:
    try:
        return G(x)
    except OverflowError:  # G(x) is past the largest float, so past any bound
        return math.inf


def _largest_feasible_grid(G, C: np.ndarray) -> np.ndarray:
    """A feasible s <= sup{s : G(s) <= C} within 1e-13 max(1, s), for each
    bound in C; the feasible set of a convex G is an interval.

    G is called on Python floats only, and an OverflowError reads as +inf. A
    value that is not <= C (NaN or +inf included) is infeasible. Two ladders
    of rungs shared by every point call G once per rung: halve s from 1 until
    G(s) <= C (0 after 2000 halvings), then double s from 2 while G(s) <= C
    (NotSuperlinear past 1e15). Each point then holds its last feasible rung
    lo and its first infeasible rung hi. A regula falsi step with the Illinois
    modification proposes a point of [lo, hi], and the midpoint replaces it
    where the interpolant is not finite or lies outside the bracket, and, in
    every second round, where the last two rounds did not halve the bracket.
    Each proposal stays at least tol/2 inside both ends, so the bracket closes
    from both sides: G stays <= C at lo and not at hi, until
    hi - lo <= tol = 1e-13 max(1, lo), or for at most 200 rounds.
    """
    n = len(C)
    g = _call(G, 1.0)
    lo, g_lo = np.ones(n), np.full(n, g)
    hi, g_hi = np.full(n, 2.0), np.empty(n)
    # every point still halving holds the same s
    idx = np.flatnonzero(~(g <= C))
    s = 1.0
    for _ in range(2000):
        if not idx.size:
            break
        hi[idx], g_hi[idx] = s, g
        s /= 2.0
        g = _call(G, s)
        lo[idx], g_lo[idx] = s, g
        idx = idx[~(g <= C[idx])]
    # a point still above its bound after 2000 halvings gets 0 and stops
    lo[idx] = 0.0
    live = np.ones(n, dtype=bool)
    live[idx] = False
    live = np.flatnonzero(live)

    idx, s = live, 2.0
    while idx.size:
        g = _call(G, s)
        up = g <= C[idx]
        # hi is the first infeasible rung above the last feasible one
        stop = idx[~up & (lo[idx] == 0.5 * s)]
        hi[stop], g_hi[stop] = s, g
        idx = idx[up]
        lo[idx], g_lo[idx] = s, g
        s *= 2.0
        if idx.size and s > 1e15:
            raise NotSuperlinear("G never exceeds the bound on the search range")

    idx = live[hi[live] - lo[live] > 1e-13 * np.maximum(1.0, lo[live])]
    a, b, c = lo[idx], hi[idx], C[idx]
    fa, fb = g_lo[idx] - c, g_hi[idx] - c
    kept = np.zeros(len(idx))  # +1 where the last round kept b, -1 where it kept a
    width1 = width2 = np.full(len(idx), math.inf)  # b - a one and two rounds back
    for r in range(200):
        if not idx.size:
            break
        width = b - a
        tol = 1e-13 * np.maximum(1.0, a)
        with np.errstate(all="ignore"):
            x = (a * fb - b * fa) / (fb - fa)
        bisect = ~((a <= x) & (x <= b))
        if r % 2 == 0:
            bisect |= width > 0.5 * width2
        x = np.where(bisect, 0.5 * (a + b), x)
        x = np.minimum(np.maximum(x, a + 0.5 * tol), b - 0.5 * tol)
        gx = np.array([_call(G, t) for t in x.tolist()], dtype=float)
        ok = gx <= c
        fx = gx - c
        # Illinois: an end kept two rounds running enters at half its value
        fb = np.where(ok & (kept > 0), 0.5 * fb, fb)
        fa = np.where(~ok & (kept < 0), 0.5 * fa, fa)
        a, fa = np.where(ok, x, a), np.where(ok, fx, fa)
        b, fb = np.where(ok, b, x), np.where(ok, fb, fx)
        kept = np.where(ok, 1.0, -1.0)
        width1, width2 = width, width1
        lo[idx] = a
        go = b - a > 1e-13 * np.maximum(1.0, a)
        idx, a, b, c, fa, fb = idx[go], a[go], b[go], c[go], fa[go], fb[go]
        kept, width1, width2 = kept[go], width1[go], width2[go]
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
    rho = concave_envelope(np.column_stack([
        np.concatenate([[0.0], vs]),
        np.concatenate([[0.0], np.clip(ys, 0.0, 1.0)]),
    ]))
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
    # the full set's sums may round below 1, so (1, 1) is a sample of its own
    return concave_envelope(np.column_stack([
        np.append(np.minimum(nu_sums, 1.0), 1.0),
        np.append(np.minimum(m_sums, 1.0), 1.0),
    ]))
