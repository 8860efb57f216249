"""Dict reference implementations of the cylinder-measure operations.

The library computes refinements, translates and the stationarity residual
through EntropyEngine's gather maps. These are the one-cylinder-at-a-time
definitions the tests check those arrays against: each works on the dict
masses of a CylinderMeasure and sums with math.fsum.
"""

import math

from fentropy.errors import DepthMismatch
from fentropy.free_boundary import CylinderMeasure, pushforward
from fentropy.words import ReducedWord, letter_order


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
