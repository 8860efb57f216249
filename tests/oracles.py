"""Reference implementations the tests check the library against.

The library computes refinements, translates and the stationarity residual
through EntropyEngine's gather maps. Most of these are the
one-cylinder-at-a-time definitions the tests check those arrays against:
each works on the dict masses of a CylinderMeasure and sums with math.fsum.
exhaustive_scan is minimality_scan without its screen: every sample's
entropy comes from EntropyEngine.entropy. gradient_of_masses is the central
differences EntropyEngine.gradient is checked against. UniqueWordTable is
the σ-walk word trie grown with np.unique, which _WordTable's ids are checked
against. bisection_largest_feasible is the scalar bisection that
majorant._largest_feasible_grid replaced, and illinois_largest_feasible is
one point of the grid's rule, which the grid must reproduce bit for bit.
dict_concave_envelope is the tuple-sorting, dict-deduping envelope that
majorant.concave_envelope must reproduce bit for bit.
"""

import math

import numpy as np

from fentropy import free_boundary, sigma_walk
from fentropy.divergence import INF
from fentropy.errors import BadSample, DepthMismatch, NotSuperlinear, ParseError, StepTooLarge
from fentropy.free_boundary import (CylinderMeasure, EntropyEngine, TailRule, cylinder_entropy,
                                    harmonic_measure, pushforward, solve_q, t_inverse)
from fentropy.majorant import Majorant, _pwl_from_samples
from fentropy.words import ReducedWord, encode_word, letter_order, letter_positions


def conditional(tail, last: int, nxt: int, d: int) -> float:
    """The tail rule's next-letter probability given the current last letter."""
    if nxt == -last:
        return 0.0
    if tail.kind == "uniform":
        return 1.0 / (2 * d - 1)
    q, v = tail.qvec.q, tail.qvec.v
    return q[last] * v[nxt] / v[last]


def refine(nu: CylinderMeasure) -> CylinderMeasure:
    """Extend to depth+1 using the tail rule."""
    out = {}
    for w, m in sorted(nu.masses.items()):
        last = w[-1]
        for x in letter_order(nu.d):
            if x == -last:
                continue
            out[w + (x,)] = m * conditional(nu.tail, last, x, nu.d)
    return CylinderMeasure(nu.d, nu.depth + 1, out, nu.tail)


def refine_to(nu: CylinderMeasure, depth: int) -> CylinderMeasure:
    while nu.depth < depth:
        nu = refine(nu)
    return nu


def marginal(nu: CylinderMeasure, depth: int) -> CylinderMeasure:
    """Sum masses over extensions down to the given smaller depth."""
    if depth > nu.depth or depth < 1:
        raise DepthMismatch(f"cannot marginalize depth {nu.depth} to {depth}")
    acc: dict = {}
    for w, m in nu.masses.items():
        acc.setdefault(w[:depth], []).append(m)
    return CylinderMeasure(nu.d, depth, {w: math.fsum(v) for w, v in sorted(acc.items())},
                           nu.tail)


def convolve(mu, nu: CylinderMeasure, target_depth: int) -> CylinderMeasure:
    """mu * nu on depth-m cylinders, m+1 <= nu.depth."""
    src = marginal(nu, target_depth + 1) if nu.depth > target_depth + 1 else nu
    acc: dict = {}
    for j in letter_order(mu.d):
        pushed = pushforward(ReducedWord((j,), mu.d), src, target_depth)
        for w, m in pushed.masses.items():
            acc.setdefault(w, []).append(mu.p[j] * m)
    out = {w: math.fsum(v) for w, v in sorted(acc.items())}
    return CylinderMeasure(nu.d, target_depth, out, nu.tail)


def stationarity_residual(mu, nu: CylinderMeasure, target_depth: int) -> float:
    """max_w |(mu * nu)(C_w) - nu(C_w)| over depth-m cylinders, from the dicts."""
    conv = convolve(mu, nu, target_depth)
    marg = marginal(nu, target_depth)
    labels = set(conv.masses) | set(marg.masses)
    return max(abs(conv.mass(w) - marg.mass(w)) for w in labels)


def exhaustive_scan(lam, f, depth: int, samples: int, seed: int, zero_fraction: float = 0.05,
                    uniform_tail_fraction: float = 0.1) -> dict:
    """minimality_scan's report, with the exact entropy of every sample.

    Draws the same blocks through free_boundary._scan_block (looked up at
    call time, so a test may replace it for both scans) and takes the first
    sample of minimal entropy of each block, as np.argmin does.
    """
    mu = t_inverse(lam, f)
    reference = cylinder_entropy(lam, harmonic_measure(mu, depth), f)
    harmonic = EntropyEngine(lam, f, depth, TailRule("harmonic", solve_q(mu)))
    uniform = EntropyEngine(lam, f, depth, TailRule("uniform"))
    m = len(harmonic.words_n)
    min_entropy, argmin_x, argmin_tail, n_infinite = INF, None, None, 0
    block = free_boundary.SAMPLE_BLOCK
    for start in range(0, samples, block):
        rows = min(block, samples - start)
        rng = np.random.default_rng([seed, start // block])
        x, uniform_tail = free_boundary._scan_block(rng, rows, m, zero_fraction,
                                                    uniform_tail_fraction)
        h = np.empty(rows)
        h[uniform_tail] = uniform.entropy(x[uniform_tail])
        h[~uniform_tail] = harmonic.entropy(x[~uniform_tail])
        n_infinite += int(np.count_nonzero(h == INF))
        best = int(np.argmin(h))
        if h[best] < min_entropy:
            min_entropy = float(h[best])
            argmin_x = x[best]
            argmin_tail = "uniform" if uniform_tail[best] else "harmonic"
    words = harmonic.words_n.tolist()
    return {
        "reference_entropy": reference,
        "min_entropy": min_entropy,
        "argmin_masses": ({encode_word(w): float(argmin_x[i]) for i, w in enumerate(words)}
                          if argmin_x is not None else {}),
        "argmin_tail": argmin_tail,
        "samples": samples,
        "infinite_entropy_samples": n_infinite,
        "theorem_A_violated": bool(min_entropy < reference - 1e-9),
    }


def gradient_of_masses(engine: EntropyEngine, x: np.ndarray, h_step: float) -> np.ndarray:
    """Central differences of the entropy along simplex-tangent pairs (i, i+1).

    All 2(m-1) shifted mass vectors go to the engine as one block. This is
    the oracle of EntropyEngine.gradient.
    """
    if not h_step > 0:
        raise ParseError("h_step must be positive")
    m = len(x)
    low = (x[:-1] - h_step < 0) | (x[1:] - h_step < 0)
    if low.any():
        raise StepTooLarge(f"h_step {h_step} would push mass {int(np.argmax(low))} negative")
    i = np.arange(m - 1)
    plus = np.tile(x, (m - 1, 1))
    plus[i, i] += h_step
    plus[i, i + 1] -= h_step
    minus = np.tile(x, (m - 1, 1))
    minus[i, i] -= h_step
    minus[i, i + 1] += h_step
    h = engine.entropy(np.vstack([plus, minus]))
    return (h[:m - 1] - h[m - 1:]) / (2.0 * h_step)


class UniqueWordTable(sigma_walk._WordTable):
    """_WordTable with its first _push and _add: np.unique over the new
    (parent, letter-position) pairs, a 2-D child[k, p] table and ids written
    by index. repeats counts the pushes that met one new pair more than once.
    """

    def __init__(self, d: int):
        super().__init__(d)
        self.child = self.child.reshape(1, 2 * d)
        self.repeats = 0

    def _add(self, par: np.ndarray, pos: np.ndarray) -> None:
        ids = np.arange(self.size, self.size + len(par))
        self.size += len(par)
        if self.size > len(self.parent):
            extra = max(self.size, 2 * len(self.parent)) - len(self.parent)
            self.parent = np.concatenate([self.parent, np.empty(extra, dtype=np.int64)])
            self.last = np.concatenate([self.last, np.empty(extra, dtype=np.int64)])
            self.depth = np.concatenate([self.depth, np.empty(extra, dtype=np.int64)])
            self.child = np.concatenate([self.child, np.full((extra, 2 * self.d), -1)])
        self.parent[ids] = par
        self.last[ids] = self.order[pos]
        self.depth[ids] = self.depth[par] + 1
        self.child[par, pos] = ids

    def _push(self, keys: np.ndarray, letters: np.ndarray) -> np.ndarray:
        out = keys.copy()
        live = letters != 0
        back = live & (self.last[keys] == -letters)
        out[back] = self.parent[keys[back]]
        fwd = np.flatnonzero(live & ~back)
        par = keys[fwd]
        pos = letter_positions(letters[fwd], self.d)
        ids = self.child[par, pos]
        new = ids < 0
        if new.any():
            pairs = np.unique(par[new] * (2 * self.d) + pos[new])
            self.repeats += len(pairs) < np.count_nonzero(new)
            self._add(pairs // (2 * self.d), pairs % (2 * self.d))
            ids = self.child[par, pos]
        out[fwd] = ids
        return out


def bisection_largest_feasible(G, C: float) -> float:
    """The scalar bisection, one bound at a time: the reference that
    majorant._largest_feasible_grid must agree with within 2e-13 max(1, s)."""
    s_feas = 1.0
    tries = 0
    while G(s_feas) > C:
        s_feas /= 2.0
        tries += 1
        if tries > 2000:
            return 0.0
    s_hi = max(2.0 * s_feas, 2.0)
    while G(s_hi) <= C:
        s_hi *= 2.0
        if s_hi > 1e15:
            raise NotSuperlinear("G never exceeds the bound on the search range")
    lo, hi = s_feas, s_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if G(mid) <= C:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, lo):
            break
    return lo


def illinois_largest_feasible(G, C: float) -> float:
    """One point of majorant._largest_feasible_grid, in Python floats: the
    halving and doubling ladders, then regula falsi with the Illinois
    modification from the last feasible and the first infeasible rung. G must
    read an overflow as +inf; a value that is not <= C is infeasible."""
    lo, g_lo = 1.0, G(1.0)
    halvings = 0
    while not g_lo <= C:
        if halvings == 2000:
            return 0.0
        hi, g_hi = lo, g_lo
        lo /= 2.0
        g_lo = G(lo)
        halvings += 1
    s = 2.0
    while True:
        g = G(s)
        if not g <= C:
            if lo == 0.5 * s:
                hi, g_hi = s, g
            break
        lo, g_lo = s, g
        s *= 2.0
        if s > 1e15:
            raise NotSuperlinear("G never exceeds the bound on the search range")
    a, b, fa, fb = lo, hi, g_lo - C, g_hi - C
    kept = 0  # +1 if the last round kept b, -1 if it kept a
    width1 = width2 = math.inf  # b - a one and two rounds back
    for r in range(200):
        width = b - a
        tol = 1e-13 * max(1.0, a)
        if width <= tol:
            break
        x = (a * fb - b * fa) / (fb - fa) if fb != fa else math.nan
        if not a <= x <= b or (r % 2 == 0 and width > 0.5 * width2):
            x = 0.5 * (a + b)
        x = min(max(x, a + 0.5 * tol), b - 0.5 * tol)
        gx = G(x)
        if gx <= C:
            if kept > 0:
                fb = 0.5 * fb
            a, fa, kept = x, gx - C, 1
        else:
            if kept < 0:
                fa = 0.5 * fa
            b, fb, kept = x, gx - C, -1
        width1, width2 = width, width1
    return a


def dict_concave_envelope(samples) -> Majorant:
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
