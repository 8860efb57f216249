"""Harmonic measures on the boundary of the free group and entropy minimality.

Depth-n cylinder masses plus a tail rule determine a genuine boundary measure;
the harmonic tail makes the mu-harmonic measure itself a member of every
scanned family. First-passage probabilities q_i solve
q_j = p_j + q_j * sum_{i != j} p_i q_{-i}, and v_i = q_i/(1+q_i).
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

from .divergence import (INF, KL, PROB_TOL, ZERO_MASS, ConvexGenerator, divergence_arrays,
                         divergence_bounds)
from .errors import (
    BadLetter,
    DepthMismatch,
    GeneratorOverflow,
    MassBelowFloor,
    NoConvergence,
    NonPositiveDenominator,
    NotProbability,
    ParseError,
    RankTooSmall,
    StepTooLarge,
)
from .words import (
    ReducedWord,
    decode_word,
    encode_word,
    enumerate_words,
    letter_order,
    letter_positions,
    reduce_letters,
    word_array,
    word_index,
)

# numpy is imported inside each function that uses it, so solve_q, t_map and t_inverse
# never load it; TYPE_CHECKING is spelled out so that typing stays unloaded too
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

Q_RESIDUAL_TOL = 1e-12
SAMPLE_BLOCK = 4096  # samples per seeded block of the scan and the Monte Carlo samplers
ENTROPY_CELLS = 2**14  # depth-(n+1) cells EntropyEngine.entropy gathers at a time


@dataclass(frozen=True)
class GeneratorMeasure:
    """A generating symmetric probability measure on the +-d generators."""

    d: int
    p: dict  # letter j -> weight, j in {-d..-1, 1..d}

    def __post_init__(self):
        if self.d < 2:
            raise RankTooSmall("rank d must be >= 2 (the walk on Z is recurrent)")
        letters = set(letter_order(self.d))
        if set(self.p) != letters:
            raise ParseError(f"p must be keyed by exactly {sorted(letters)}")
        for j in range(1, self.d + 1):
            if not (0.0 < self.p[j] < INF and 0.0 < self.p[-j] < INF):
                raise NotProbability("generator weights must be finite and strictly positive")
            if abs(self.p[j] - self.p[-j]) > PROB_TOL:
                raise NotProbability(f"weights of {j} and {-j} differ")
        if abs(math.fsum(self.p.values()) - 1.0) > PROB_TOL:
            raise NotProbability("generator weights must sum to 1")

    def to_json(self) -> dict:
        return {"d": self.d, "p": {str(j): self.p[j] for j in letter_order(self.d)}}

    @classmethod
    def from_json(cls, doc: dict) -> "GeneratorMeasure":
        try:
            d = int(doc["d"])
            p = {int(k): float(v) for k, v in doc["p"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad GeneratorMeasure JSON: {exc}") from exc
        return cls(d, p)


def uniform_generator_measure(d: int) -> GeneratorMeasure:
    return GeneratorMeasure(d, {j: 1.0 / (2 * d) for j in letter_order(d)})


@dataclass(frozen=True)
class QVector:
    """First-passage probabilities q and the boundary hit weights v."""

    d: int
    q: dict  # letter -> q in (0,1)

    @property
    def v(self) -> dict:
        return {j: qj / (1.0 + qj) for j, qj in self.q.items()}

    def residuals(self, mu: GeneratorMeasure) -> dict:
        res = {}
        for j in letter_order(self.d):
            s = math.fsum(mu.p[i] * self.q[-i] for i in letter_order(self.d) if i != j)
            res[j] = self.q[j] - (mu.p[j] + self.q[j] * s)
        return res


# brentq's default relative tolerance (4 * machine epsilon) and iteration cap
_BRENT_RTOL = 8.9e-16
_BRENT_STEPS = 100


def _brent(fn, lo: float, hi: float, f_lo: float, f_hi: float, xtol: float) -> float:
    """Root of fn in the bracket [lo, hi], given f_lo = fn(lo) and f_hi = fn(hi).

    Brent's method: inverse quadratic interpolation or secant steps, with a
    bisection step whenever the interpolant would not shrink the bracket fast
    enough. It stops once the bracket half-width is below
    (xtol + 8.9e-16*|x|)/2, as brentq does.
    """
    xpre, xcur = lo, hi
    fpre, fcur = f_lo, f_hi
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not ((fpre < 0.0 < fcur) or (fcur < 0.0 < fpre)):
        raise NoConvergence(f"root not bracketed: f({lo!r}) = {fpre!r}, f({hi!r}) = {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_STEPS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a zero denominator (equal values at two points) rejects the step,
                # as brentq's infinite or NaN quotient does
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else INF
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = fn(xcur)
    raise NoConvergence(f"Brent's method did not converge in {_BRENT_STEPS} steps")


def _measure_key(mu: GeneratorMeasure) -> tuple:
    """mu's (letter, weight type, weight) triples in letter order, as a memo key.

    The key does not depend on dict order; the weight type is part of it, so
    weights of another type (np.float32, say) never share a float's result.
    """
    return tuple(sorted((j, type(w), w) for j, w in mu.p.items()))


def solve_q(mu: GeneratorMeasure, tol: float = Q_RESIDUAL_TOL) -> QVector:
    """First-passage probabilities q from one scalar equation.

    With q_{-j} = q_j the system reads p_j q_j^2 + u q_j - p_j = 0 with
    u = 1 - S and S = 2 sum_k p_k q_k, so q_j(u) = 2 p_j / (u + R_j) with
    R_j = sqrt(u^2 + 4 p_j^2). Dividing the equation for S by u removes the
    spurious root u = 0 (S = 1); with e = 1 - 2 sum_k p_k (zero up to
    rounding) and R_j - 2 p_j = u^2 / (R_j + 2 p_j) it reads
    h(u) = 1 - e/u - sum_k 2 p_k (1 + u/(2 p_k + R_k)) / (u + R_k) = 0,
    free of cancellation, so stiff mu (some p_k tiny) keeps full accuracy.
    h(1) > 0 and h(0+) = 1 - d < 0, so halving u from 1/2 brackets the root.

    Each distinct (mu, tol) is solved once per process (a bounded memo that
    does not keep failures); every call returns a fresh QVector.
    """
    if not 0 < tol < INF:
        raise ParseError(f"tol must be positive and finite, got {tol!r}")
    qv = _solve_q_memo(mu.d, _measure_key(mu), tol)
    return QVector(qv.d, dict(qv.q))


@functools.lru_cache(maxsize=32)
def _solve_q_memo(d: int, key: tuple, tol: float) -> QVector:
    mu = GeneratorMeasure(d, {j: w for j, _, w in key})
    p = [mu.p[j] for j in range(1, mu.d + 1)]
    e = math.fsum([1.0] + [-2.0 * pk for pk in p])

    def h(u: float) -> float:
        terms = [1.0, -e / u]
        for pk in p:
            r = math.sqrt(u * u + 4.0 * pk * pk)
            terms.append(-2.0 * pk * (1.0 + u / (2.0 * pk + r)) / (u + r))
        return math.fsum(terms)

    hi, h_hi = 1.0, h(1.0)
    u = 0.5
    while (h_lo := h(u)) >= 0.0:
        hi, h_hi = u, h_lo
        u /= 2.0
        if u < 2.0**-1022:
            raise NoConvergence("could not bracket the interior root of the q equation")
    u = _brent(h, u, hi, h_lo, h_hi, xtol=1e-300)

    qs = [2.0 * pk / (u + math.sqrt(u * u + 4.0 * pk * pk)) for pk in p]
    q = {j: qs[abs(j) - 1] for j in letter_order(mu.d)}
    qv = QVector(mu.d, q)
    residual = max(abs(r) for r in qv.residuals(mu).values())
    if not (residual < tol and all(0.0 < x < 1.0 for x in qs)):
        raise NoConvergence(f"q failed its certificate: residual {residual!r}, tol {tol}",
                            residual_trace=[residual])
    vsum = math.fsum(qv.v.values())
    if abs(vsum - 1.0) > 10 * max(tol, Q_RESIDUAL_TOL):
        raise NoConvergence(f"q solved but sum v = {vsum!r}", residual_trace=[residual])
    return qv


@dataclass(frozen=True)
class TailRule:
    kind: str  # "harmonic" | "uniform"
    qvec: QVector | None = None

    def __post_init__(self):
        if self.kind not in ("harmonic", "uniform"):
            raise ParseError(f"unknown tail rule {self.kind!r}")
        if self.kind == "harmonic" and self.qvec is None:
            raise ParseError("harmonic tail rule needs a QVector")

    def conditional_table(self, d: int) -> np.ndarray:
        """Next-letter probabilities c(last -> nxt), indexed by letter positions.

        c is 0 where nxt = -last; otherwise 1/(2d-1) for the uniform tail and
        q_last v_nxt / v_last for the harmonic one.
        """
        import numpy as np

        k = 2 * d
        if self.kind == "uniform":
            table = np.full((k, k), 1.0 / (k - 1))
        else:
            q = np.array([self.qvec.q[j] for j in letter_order(d)])
            v = q / (1.0 + q)
            table = q[:, None] * v[None, :] / v[:, None]
        table[np.arange(k), k - 1 - np.arange(k)] = 0.0
        return table


@dataclass(frozen=True)
class CylinderMeasure:
    """Masses on depth-n cylinders of the boundary, plus a tail rule."""

    d: int
    depth: int
    masses: dict  # length-n reduced word (tuple) -> mass
    tail: TailRule

    def __post_init__(self):
        if self.depth < 1:
            raise DepthMismatch("depth must be >= 1")
        for w, m in self.masses.items():
            if len(w) != self.depth:
                raise DepthMismatch(f"word {w} has length {len(w)}, expected {self.depth}")
            if not 0.0 <= m < INF:
                raise NotProbability(f"mass {m} at {w} is negative or not finite")

    @property
    def total(self) -> float:
        return math.fsum(self.masses.values())

    def mass(self, w: tuple) -> float:
        return self.masses.get(w, 0.0)

    def to_json(self) -> dict:
        doc = {
            "d": self.d,
            "depth": self.depth,
            "tail": self.tail.kind,
            "masses": {encode_word(w): m for w, m in sorted(self.masses.items())},
        }
        if self.tail.kind == "harmonic":
            doc["q"] = {str(j): self.tail.qvec.q[j] for j in letter_order(self.d)}
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "CylinderMeasure":
        try:
            d = int(doc["d"])
            depth = int(doc["depth"])
            kind = doc["tail"]
            masses = {decode_word(k, d): float(v) for k, v in doc["masses"].items()}
            q = ({int(k): float(v) for k, v in doc["q"].items()}
                 if kind == "harmonic" and "q" in doc else None)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad CylinderMeasure JSON: {exc}") from exc
        if kind == "harmonic":
            if q is None:
                raise ParseError("harmonic tail needs a 'q' object in JSON")
            letters = letter_order(d)
            if set(q) != set(letters):
                raise ParseError(f"harmonic tail q must be keyed by exactly {sorted(letters)}")
            if not all(0.0 < x < 1.0 for x in q.values()):
                raise ParseError("harmonic tail q values must be finite and lie in (0, 1)")
            tail = TailRule("harmonic", QVector(d, q))
        else:
            tail = TailRule(kind)
        return cls(d, depth, masses, tail)


def harmonic_measure(mu: GeneratorMeasure, depth: int) -> CylinderMeasure:
    """nu_mu on depth-n cylinders: mass(i_1...i_n) = q_{i_1}...q_{i_{n-1}} v_{i_n}."""
    if depth < 1:
        raise DepthMismatch("depth must be >= 1")
    qv = solve_q(mu)
    q, v = qv.q, qv.v
    masses = {w: _cylinder_mass(q, v, w) for w in enumerate_words(mu.d, depth)}
    return CylinderMeasure(mu.d, depth, masses, TailRule("harmonic", qv))


def _cylinder_mass(q: dict, v: dict, w: tuple) -> float:
    """nu_mu(C_w) = q_{w_1}...q_{w_{k-1}} v_{w_k}: v of the last letter first, then each q."""
    m = v[w[-1]]
    for x in w[:-1]:
        m *= q[x]
    return m


def pushforward(g: ReducedWord, nu: CylinderMeasure, target_depth: int) -> CylinderMeasure:
    """(g nu) on depth-m cylinders from nu at depth m+|g|.

    Every depth-(m+|g|) cylinder maps into exactly one depth-m cylinder since
    |reduce(g u)| >= m, so the output total equals the input total.
    """
    if target_depth < 1:
        raise DepthMismatch("target depth must be >= 1")
    if nu.depth != target_depth + len(g):
        raise DepthMismatch(
            f"need source depth {target_depth + len(g)}, got {nu.depth}"
        )
    acc: dict = {}
    gl = g.letters
    for u, m in nu.masses.items():
        r = reduce_letters(gl + u, nu.d)
        acc.setdefault(r[:target_depth], []).append(m)
    out = {w: math.fsum(v) for w, v in sorted(acc.items())}
    return CylinderMeasure(nu.d, target_depth, out, nu.tail)


def rn_generator(qv: QVector, j: int, w: tuple) -> float:
    """d(a_j nu_mu)/d nu_mu on the cylinder C_w: 1/q_j if w starts with a_j, else q_j."""
    if len(w) < 1:
        raise DepthMismatch("need a nonempty cylinder word")
    return 1.0 / qv.q[j] if w[0] == j else qv.q[j]


def translate_mass(qv: QVector, g: tuple, w: tuple) -> float:
    """(g nu_mu)(C_w) = nu_mu(g^-1 C_w) for a reduced word g, in closed form.

    Let h = g^-1 and let c be the length of the longest suffix of h that
    cancels a prefix of w. If c < |w|, h C_w is the cylinder
    C_{h[:|h|-c] + w[c:]}; otherwise (g starts with w) it is the complement of
    C_{h[:|h|-|w|+1]}. The mass is one q-product, or 1 minus one.
    """
    if len(w) < 1:
        raise DepthMismatch("need a nonempty cylinder word")
    q, v = qv.q, qv.v
    h = tuple(-x for x in reversed(g))
    c = 0
    while c < min(len(h), len(w)) and h[-1 - c] == -w[c]:
        c += 1
    if c < len(w):
        return _cylinder_mass(q, v, h[:len(h) - c] + w[c:])
    return 1.0 - _cylinder_mass(q, v, h[:len(h) - len(w) + 1])


def cylinder_entropy(lam: GeneratorMeasure, nu: CylinderMeasure,
                     f: ConvexGenerator) -> float:
    """h = sum_j lam_j D_f(a_j nu || nu), computed at depth n+1.

    For tail-extended measures d(a_j nu)/d nu is constant on depth-(n+1)
    cylinders, so the finite partition at depth n+1 already realizes the full
    divergence. Both depth-(n+1) measures are divided by their totals, which
    must lie within 1e-3 of 1; the terms stop at the first infinite one.
    """
    if lam.d != nu.d:
        raise DepthMismatch("lambda and nu have different ranks")
    engine = EntropyEngine(lam, f, nu.depth, nu.tail)
    x = engine.mass_vector(nu)
    q1 = _near_one(engine.refined(x), "cylinder")
    terms = []
    for j in letter_order(lam.d):
        # float(): the product stays float64 for a float32 weight, as in the engine's rows
        term = float(lam.p[j]) * divergence_arrays(
            _near_one(engine.translated(x, j), "translated cylinder"), q1, f)
        if term == INF:
            return INF
        terms.append(term)
    return math.fsum(terms)


def _near_one(masses: np.ndarray, what: str) -> np.ndarray:
    """masses over their fsum total: 1 up to the q solver's roundoff for a probability
    measure, and NotProbability where it is not within 1e-3 of 1 (user input)."""
    total = math.fsum(masses.tolist())
    if not 0.999 < total < 1.001:
        raise NotProbability(f"{what} total {total!r} is not near 1")
    return masses / total


def closed_form_harmonic_entropy(lam: GeneratorMeasure, mu: GeneratorMeasure,
                                 f: ConvexGenerator) -> float:
    """sum_j lam_j (v_j f(1/q_j) + (1-v_j) f(q_j)) for nu = nu_mu."""
    qv = solve_q(mu)
    q, v = qv.q, qv.v
    return math.fsum(
        lam.p[j] * (v[j] * f.eval(1.0 / q[j]) + (1.0 - v[j]) * f.eval(q[j]))
        for j in letter_order(lam.d)
    )


def stationarity_residual(mu: GeneratorMeasure, nu: CylinderMeasure,
                          target_depth: int) -> float:
    """max_w |(mu * nu)(C_w) - nu(C_w)| over depth-m cylinders, 1 <= m < nu.depth.

    With x the depth-n masses of nu, mu * nu - nu at depth n+1 is
    sum_j mu_j translated(x, j) - refined(x) through EntropyEngine's gather
    maps. The depth-m residual sums it over blocks of (2d-1)^(n+1-m) rows,
    the depth-(n+1) words that share a length-m prefix in enumerate_words order.
    """
    if mu.d != nu.d:
        raise DepthMismatch("mu and nu have different ranks")
    if not 1 <= target_depth < nu.depth:
        raise DepthMismatch(f"target depth must lie in 1..{nu.depth - 1}, got {target_depth}")
    engine = EntropyEngine(mu, KL, nu.depth, nu.tail)
    x = engine.mass_vector(nu)
    diff = sum(mu.p[j] * engine.translated(x, j) for j in letter_order(mu.d)) - engine.refined(x)
    block = (2 * mu.d - 1) ** (nu.depth + 1 - target_depth)
    return float(abs(diff.reshape(-1, block).sum(axis=1)).max())


# --- T map and its inverse ----------------------------------------------------

def _phi_kernel(f: ConvexGenerator):
    """Phi(q) = Psi_f(q) - Psi_f(1/q) as one closure of q, for the generator kind of f.

    Psi_f(z) = f(z) - z f'(z) + f'(1/z). Each closure does the float operations
    of f.eval and f.deriv in their order, so it equals the method-by-method
    evaluation bit for bit, OverflowError included; a value the methods
    compute twice (log q, 1/q and its log or power, a(a - 1), a - 1) is
    computed once. Phi is positive and decreasing on (0, 1) for the builtin f.
    """
    log = math.log
    if f.kind == "kl":
        def phi(q: float) -> float:
            z = 1.0 / q
            lq, lz = log(q), log(z)
            return (q * lq - q * (lq + 1.0) + (lz + 1.0)
                    - (z * lz - z * (lz + 1.0) + (log(1.0 / z) + 1.0)))
    elif f.kind == "chi2":
        def phi(q: float) -> float:
            z = 1.0 / q
            return ((q - 1.0) ** 2 - q * (2.0 * (q - 1.0)) + 2.0 * (z - 1.0)
                    - ((z - 1.0) ** 2 - z * (2.0 * (z - 1.0)) + 2.0 * (1.0 / z - 1.0)))
    else:
        a = f.alpha
        den, am1 = a * (a - 1.0), a - 1.0

        def phi(q: float) -> float:
            z = 1.0 / q
            dz = z**am1 / am1  # f'(1/q)
            return ((q**a - 1.0) / den - q * (q**am1 / am1) + dz
                    - ((z**a - 1.0) / den - z * dz + (1.0 / z) ** am1 / am1))
    return phi


@contextlib.contextmanager
def _psi_overflow(f: ConvexGenerator, where: str, caller: str):
    """Raise GeneratorOverflow for an OverflowError of Psi_f inside the block.

    Python float ** raises where numpy would give inf; a power generator whose
    alpha is far from 1 overflows Psi_f near q = 0 or 1.
    """
    try:
        yield
    except OverflowError as exc:
        raise GeneratorOverflow(
            f"Psi_f of {f.spec_string} overflows a float {where}: "
            f"alpha = {f.alpha!r} is too far from 1 for {caller}") from exc


def t_map(mu: GeneratorMeasure, f: ConvexGenerator) -> GeneratorMeasure:
    """lambda_j = c / (Psi_f(q_j) - Psi_f(1/q_j)), normalized over the 2d generators."""
    qv = solve_q(mu)
    phi = _phi_solver(f).phi
    inv = {}
    for j in range(1, mu.d + 1):
        with _psi_overflow(f, f"at q_{j} = {qv.q[j]!r}", "t_map"):
            denom = phi(qv.q[j])
        if denom <= 0:
            raise NonPositiveDenominator(
                f"Psi_f(q_{j}) - Psi_f(1/q_{j}) = {denom!r} <= 0"
            )
        inv[j] = 1.0 / denom
    c = 1.0 / (2.0 * math.fsum(inv.values()))
    lam = {}
    for j in range(1, mu.d + 1):
        lam[j] = lam[-j] = c * inv[j]
    # remove the last-bit normalization error so the constructor's sum check passes
    s = math.fsum(lam.values())
    lam = {j: w / s for j, w in lam.items()}
    return GeneratorMeasure(mu.d, lam)


_PHI_BRACKET = (1e-14, 1.0 - 1e-14)  # the q range _PhiSolver.inverse searches
# the ends it moves to, in turn, where Phi_f overflows at an end of _PHI_BRACKET:
# 1e-14 * 2^k up to 0.35, and 1 minus those
_PHI_LO_ENDS = tuple(1e-14 * 2.0**k for k in range(46))
_PHI_HI_ENDS = tuple(1.0 - e for e in _PHI_LO_ENDS)


def _finite_end(phi, ends: tuple) -> tuple:
    """(q, phi(q), moved) at the first q of ends where phi does not overflow;
    moved is whether q is past ends[0]. The last end's OverflowError propagates."""
    for q in ends[:-1]:
        with contextlib.suppress(OverflowError):
            return q, phi(q), q != ends[0]
    return ends[-1], phi(ends[-1]), True


class _PhiSolver:
    """Phi_f = Psi_f(q) - Psi_f(1/q) and its inverse on (0, 1) for one generator.

    Phi_f at each end of the bracket is evaluated once, the upper end first
    and the lower one only when a solve needs it. An end where Phi_f
    overflows moves inward along _PHI_LO_ENDS or _PHI_HI_ENDS to the first q
    where it is finite (power:alpha with alpha >~ 23 or <~ -22 moves the lower
    end). A y past the value at a moved end has its root where Phi_f
    overflows, so it raises OverflowError instead of clamping.
    """

    def __init__(self, f: ConvexGenerator):
        self.phi = _phi_kernel(f)

    @functools.cached_property
    def hi_end(self) -> tuple:
        return _finite_end(self.phi, _PHI_HI_ENDS)

    @functools.cached_property
    def lo_end(self) -> tuple:
        return _finite_end(self.phi, _PHI_LO_ENDS)

    def inverse(self, y: float) -> float:
        """The q of the bracket with Phi_f(q) = y, clamped to an unmoved end.

        A numpy float64 y becomes a Python float: the same arithmetic, but a
        Brent step that overflows gives inf without a RuntimeWarning.
        """
        if isinstance(y, float):
            y = float(y)
        hi, phi_hi, moved = self.hi_end
        f_hi = phi_hi - y
        if f_hi >= 0.0:
            if moved:
                raise OverflowError(f"Phi_f overflows above q = {hi!r}")
            return hi
        lo, phi_lo, moved = self.lo_end
        f_lo = phi_lo - y
        if f_lo <= 0.0:
            if moved:
                raise OverflowError(f"Phi_f overflows below q = {lo!r}")
            return lo
        phi = self.phi
        return _brent(lambda q: phi(q) - y, lo, hi, f_lo, f_hi, xtol=1e-16)


@functools.lru_cache(maxsize=32)
def _phi_solver(f: ConvexGenerator) -> _PhiSolver:
    return _PhiSolver(f)


def t_inverse(lam: GeneratorMeasure, f: ConvexGenerator,
              tol: float = 1e-10) -> GeneratorMeasure:
    """Invert the T map by solving for the normalization constant.

    Given c, q_j = Phi^{-1}(c/lam_j) where Phi(q) = Psi_f(q)-Psi_f(1/q); the
    admissibility constraint sum_i v_i = 1 pins c by Brent's method, and p
    is then recovered from the first-passage system in closed form. The
    bracket on c widens until sum_i v_i changes sign, as far as the inner
    solves stay finite; one whose root lies where Psi_f overflows raises
    GeneratorOverflow.

    Each distinct (lam, f, tol) is solved once per process (a bounded memo
    that does not keep failures); every call returns a fresh GeneratorMeasure.
    """
    if not 0 < tol < INF:
        raise ParseError(f"tol must be positive and finite, got {tol!r}")
    mu = _t_inverse_memo(lam.d, _measure_key(lam), f, tol)
    return GeneratorMeasure(mu.d, dict(mu.p))


@functools.lru_cache(maxsize=32)
def _t_inverse_memo(d: int, key: tuple, f: ConvexGenerator, tol: float) -> GeneratorMeasure:
    lam = GeneratorMeasure(d, {j: w for j, _, w in key})

    phi_inverse = _phi_solver(f).inverse

    def vsum(c: float) -> float:
        return 2.0 * math.fsum(
            (lambda q: q / (1.0 + q))(phi_inverse(c / lam.p[j]))
            for j in range(1, d + 1)
        )

    lo, hi = 1e-8, 1.0
    with _psi_overflow(f, "on [{!r}, {!r}]".format(*_PHI_BRACKET), "t_inverse"):
        while (v_hi := vsum(hi)) > 1.0:
            hi *= 2.0
            if hi == INF:
                raise NoConvergence("could not bracket the normalization constant")
        while (v_lo := vsum(lo)) < 1.0:
            lo /= 2.0
            if lo < 1e-300:
                raise NoConvergence("could not bracket the normalization constant")
        c = _brent(lambda x: vsum(x) - 1.0, lo, hi, v_lo - 1.0, v_hi - 1.0, xtol=1e-300)
        q = {}
        for j in range(1, d + 1):
            q[j] = q[-j] = phi_inverse(c / lam.p[j])
    a = 2.0 * math.fsum(q[j] ** 2 / (1.0 - q[j] ** 2) for j in range(1, d + 1))
    s = a / (1.0 + a)
    p = {}
    for j in range(1, d + 1):
        p[j] = p[-j] = q[j] * (1.0 - s) / (1.0 - q[j] ** 2)
    total = math.fsum(p.values())
    p = {j: w / total for j, w in p.items()}
    mu = GeneratorMeasure(d, p)

    back = t_map(mu, f)
    resid = max(abs(back.p[j] - lam.p[j]) for j in letter_order(d))
    if not resid < tol:
        raise NoConvergence(f"t_inverse residual {resid!r} >= {tol}",
                            residual_trace=[resid])
    return mu


# --- vectorized entropy engine for scanning and gradients ---------------------

@dataclass(frozen=True)
class _GatherMaps:
    """The index data of every EntropyEngine of one rank d and depth n.

    Cells are flat indices into the (2d, 2d) conditional table. refine_cells
    picks c(w[-2] -> w[-1]) for each depth-(n+1) word w. The rows of the
    translates come letter after letter in letter_order: push_src holds their
    source indices into x (push_views[k] is letter k's slice of it),
    push_other marks the rows that do not start with their letter, and
    push_first and push_second hold the cells of those rows' two coefficients
    c(u[-3] -> u[-2]) and c(u[-2] -> u[-1]).
    """

    words_n: np.ndarray
    refine_src: np.ndarray
    refine_cells: np.ndarray
    push_src: np.ndarray
    push_views: tuple
    push_other: np.ndarray
    push_first: np.ndarray
    push_second: np.ndarray


@functools.lru_cache(maxsize=8)
def _gather_maps(d: int, depth: int) -> _GatherMaps:
    """Built once per (d, depth) per process; every array is read-only, as engines share them."""
    import numpy as np

    k = 2 * d
    words = word_array(d, depth + 1)
    m1 = len(words)
    pos = letter_positions(words, d)
    refine_cells = pos[:, -2] * k + pos[:, -1]
    srcs, others, firsts, seconds = [], [], [], []
    for j in letter_order(d):
        own = words[:, 0] == j
        src = np.empty(m1, dtype=np.int64)
        src[own] = word_index(words[own, 1:], d)
        other = ~own
        u = np.hstack([np.full((int(other.sum()), 1), -j), words[other]])
        pu = letter_positions(u, d)
        src[other] = word_index(u[:, :depth], d)
        srcs.append(src)
        others.append(other)
        firsts.append(pu[:, -3] * k + pu[:, -2])
        seconds.append(pu[:, -2] * k + pu[:, -1])
    push_src = np.concatenate(srcs)
    arrays = (word_array(d, depth), np.arange(m1) // (2 * d - 1), refine_cells, push_src,
              np.concatenate(others), np.concatenate(firsts), np.concatenate(seconds))
    for a in arrays:
        a.flags.writeable = False
    views = tuple(push_src[i * m1:(i + 1) * m1] for i in range(k))
    return _GatherMaps(*arrays[:4], views, *arrays[4:])


@dataclass(frozen=True)
class _PairIndex:
    """The distinct (source, refinement source) index pairs of the translated cells.

    Cell c of the translates (in push_src order) holds P_c = alpha_c x[s] with
    s = push_src[c], and its refinement cell Q_c = beta_c x[p] with
    p = refine_src[c mod m1]. src[k] and ref[k] are the k-th distinct pair
    (s, p) in increasing s*m + p, and pair_of[c] is the k of cell c.
    """

    src: np.ndarray
    ref: np.ndarray
    pair_of: np.ndarray


@functools.lru_cache(maxsize=8)
def _pair_index(d: int, depth: int) -> _PairIndex:
    """Built once per (d, depth) per process, by one sort and a neighbour compare; read-only."""
    import numpy as np

    maps = _gather_maps(d, depth)
    m = len(maps.words_n)
    key = maps.push_src * m + np.tile(maps.refine_src, 2 * d)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.empty(len(key), dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    pair_of = np.empty(len(key), dtype=np.int64)
    pair_of[order] = np.cumsum(new) - 1
    pairs = key[new]
    index = _PairIndex(pairs // m, pairs % m, pair_of)
    for a in (index.src, index.ref, index.pair_of):
        a.flags.writeable = False
    return index


@dataclass(frozen=True)
class _PairForm:
    """One engine's pair-form weights and mass-class thresholds (EntropyEngine._pair_screen)."""

    src: np.ndarray  # the pairs' source and refinement indices, from _pair_index
    ref: np.ndarray
    weights: np.ndarray  # W_k of pair k
    own: np.ndarray | None  # A_i, the weight of x_i log x_i (KL only)
    linear: np.ndarray  # B_i, the weight of x_i
    bound: np.ndarray  # Bbar_i: the linear parts' magnitudes and the masses, per x_i
    zero_top: float  # the zero class: x <= zero_top
    pos_floor: float  # the positive class: pos_floor < x <= 1


# the pair form's bound on E |log(P/Q)| and its radius factor (EntropyEngine._pair_screen)
_PAIR_LOG_RANGE = 600.0
_PAIR_RADIUS = 2.0**-26


class EntropyEngine:
    """Entropy of depth-n mass vectors through one gather map per generator.

    x holds the depth-n masses in enumerate_words order (indexed by
    words.word_index). With c the tail rule's conditional, every depth-(n+1)
    mass of the refinement nu and of each translate a_j nu is one depth-n
    mass times a coefficient:
    - refinement row r: x[r // (2d-1)] * c(w[-2] -> w[-1]);
    - (a_j nu)(C_w) = nu(a_j^-1 C_w): x[index(w[1:])] if w starts with j,
      else x[index(u[:n])] * c(u[-3] -> u[-2]) * c(u[-2] -> u[-1]) with
      u = (-j,) + w, the depth-(n+2) cylinder a_j^-1 C_w.
    refine_matrix and push_matrices[j] hold the per-row coefficients,
    refine_src and push_src[j] the source indices into x. The index data
    depends only on (d, n), so _gather_maps builds it once per process and
    engines of one shape share it read-only; an engine gathers only its
    tail's coefficients, for all letters at once (push_matrices[j] are views
    of that one array).
    """

    def __init__(self, lam: GeneratorMeasure, f: ConvexGenerator, depth: int,
                 tail: TailRule):
        import numpy as np

        if depth < 1:
            raise DepthMismatch("depth must be >= 1")
        self.lam = lam
        self.f = f
        self.depth = depth
        self.tail = tail
        d = lam.d
        maps = _gather_maps(d, depth)
        self._maps = maps
        self.words_n = maps.words_n
        self.refine_src = maps.refine_src
        c = tail.conditional_table(d)
        self.refine_matrix = c.take(maps.refine_cells)

        coef = np.ones(len(maps.push_src))
        coef[maps.push_other] = c.take(maps.push_first) * c.take(maps.push_second)
        self._push_coef = coef
        m1 = len(maps.refine_src)
        letters = letter_order(d)
        self.push_src = dict(zip(letters, maps.push_views))
        self.push_matrices = {j: coef[i * m1:(i + 1) * m1] for i, j in enumerate(letters)}

    def mass_vector(self, nu: CylinderMeasure) -> np.ndarray:
        import numpy as np

        d = self.lam.d
        if nu.d != d or nu.depth != self.depth:
            raise DepthMismatch(
                f"engine is for rank {d} depth {self.depth}, got rank {nu.d} depth {nu.depth}"
            )
        x = np.zeros(len(self.words_n))
        if nu.masses:
            words = np.array(list(nu.masses), dtype=np.int64)
            if np.any((words == 0) | (np.abs(words) > d)):
                raise BadLetter(f"cylinder word letters out of range for rank {d}")
            if np.any(words[:, 1:] == -words[:, :-1]):
                raise BadLetter("cylinder words must be reduced")
            x[word_index(words, d)] = list(nu.masses.values())
        return x

    def refined(self, x: np.ndarray) -> np.ndarray:
        """Depth-(n+1) masses of the tail-extended measure with depth-n masses x (per row)."""
        return self.refine_matrix * x.take(self.refine_src, axis=-1)

    def translated(self, x: np.ndarray, j: int) -> np.ndarray:
        """Depth-(n+1) masses of a_j nu for the tail-extended nu with depth-n masses x (per row)."""
        return self.push_matrices[j] * x.take(self.push_src[j], axis=-1)

    def entropy(self, x: np.ndarray):
        """Entropy of one mass vector (a float), or of each row of a block (an array).

        A block is gathered ENTROPY_CELLS depth-(n+1) cells at a time; each
        row's value equals the one-vector call on that row bit for bit.
        """
        if x.ndim == 1:
            return float(self._entropy_rows(x[None, :])[0])
        return self._in_blocks(self._entropy_rows, x, (), len(self.refine_src))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """The gradient dh/dx of entropy() at one mass vector x.

        With Q = refined(x), P_j = translated(x, j) and t = P_j / Q, entropy()
        is h = sum_j lambda_j sum_cells Q f(t) where every cell is positive,
        and dh/dP_j = lambda_j f'(t), dh/dQ = lambda_j (f(t) - t f'(t)). The
        gradient is their image under the adjoint of the gathers:
        sum_j lambda_j [bincount(push_src[j], push_matrices[j] f'(t))
        + bincount(refine_src, refine_matrix (f(t) - t f'(t)))]. A cell of Q
        or of some P_j at or below ZERO_MASS puts entropy() on its p = 0 or
        q = 0 branch, where this is not its derivative: MassBelowFloor.
        """
        import numpy as np

        m = len(x)
        letters = letter_order(self.lam.d)
        q1 = self.refined(x)
        p = [self.translated(x, j) for j in letters]
        for cells in (q1, *p):
            if not (cells > ZERO_MASS).all():
                raise MassBelowFloor(
                    f"a depth-{self.depth + 1} cell has mass {float(cells.min())!r} <= "
                    f"{ZERO_MASS}, where the entropy has no gradient")
        grad = np.zeros(m)
        refine_weight = np.zeros(len(q1))
        for j, pj in zip(letters, p):
            t = pj / q1
            df = self.f.deriv_array(t)
            w = self.lam.p[j]
            grad += np.bincount(self.push_src[j], w * self.push_matrices[j] * df, minlength=m)
            refine_weight += w * (self.f.eval_array(t) - t * df)
        return grad + np.bincount(self.refine_src, self.refine_matrix * refine_weight, minlength=m)

    def _in_blocks(self, rows_fn, x: np.ndarray, shape: tuple, cells: int) -> np.ndarray:
        """rows_fn of each slice of the block x, as one (*shape, rows) array; a slice has
        ENTROPY_CELLS // cells rows, for a rows_fn that gathers `cells` cells per row."""
        import numpy as np

        step = max(1, ENTROPY_CELLS // cells)
        out = np.empty(shape + (len(x),))
        for s in range(0, len(x), step):
            out[..., s:s + step] = rows_fn(x[s:s + step])
        return out

    def _bounds(self, x: np.ndarray) -> np.ndarray:
        """minimality_scan's screen: (low, high) on the entropy of each row of the block x,
        from _pair_screen, and from _screen on the rows the pair form does not bound."""
        import numpy as np

        out = self._pair_screen(x)
        left = np.flatnonzero(np.isnan(out[0]))
        if len(left):
            out[:, left] = self._screen(x[left])
        return out

    @functools.cached_property
    def _pair_form(self) -> _PairForm | None:
        """The pair-form weights, built on the first _pair_screen call (see its docstring).

        None, so that every row goes to _screen, where the docstring's
        assumptions fail: a coefficient that is not positive, E > 2^10, more
        than 2^24 translated cells, or a weight that is not finite.
        """
        import numpy as np

        f = self.f
        letters = letter_order(self.lam.d)
        alpha, beta = self._push_coef, self.refine_matrix
        c_min = min(float(alpha.min()), float(beta.min()))
        c_max = max(float(alpha.max()), float(beta.max()))
        e_max = {"kl": 1.0, "chi2": 2.0}.get(f.kind) or max(abs(f.alpha), abs(1.0 - f.alpha))
        if not (c_min > 0.0 and e_max <= 2.0**10 and len(alpha) <= 2**24):
            return None
        index = _pair_index(self.lam.d, self.depth)
        m, m1 = len(self.words_n), len(beta)
        weight = [float(self.lam.p[j]) for j in letters]
        lam = np.repeat(weight, m1)  # lambda_j of each translated cell
        lam_beta = math.fsum(weight) * beta  # sum_j lambda_j beta_c, per refinement cell
        beta = np.tile(beta, len(letters))
        src, ref = self._maps.push_src, self.refine_src

        def at_src(w):
            return np.bincount(src, w, minlength=m)

        def at_ref(w):
            return np.bincount(ref, w, minlength=m)

        own = None
        with np.errstate(over="ignore", invalid="ignore"):
            if f.kind == "kl":
                log_a, log_b = np.log(alpha), np.log(beta)
                w = -lam * alpha
                own = at_src(lam * alpha)
                linear = at_src(lam * alpha * (log_a - log_b))
                bound = at_src(lam * alpha * (np.abs(log_a) + np.abs(log_b) + 1.0))
            elif f.kind == "chi2":
                w = lam * alpha * alpha / beta
                linear = at_src(-2.0 * lam * alpha) + at_ref(lam_beta)
                bound = at_src(2.0 * lam * alpha) + at_ref(lam_beta)
            else:
                a = f.alpha
                den = a * (a - 1.0)
                w = lam * alpha**a * beta ** (1.0 - a) / den
                linear = at_ref(lam_beta / -den)
                bound = at_ref(lam_beta / abs(den))
        zero_top = ZERO_MASS if c_max <= 1.0 else ZERO_MASS / c_max * (1.0 - 2.0**-50)
        pos_floor = max(ZERO_MASS / c_min * (1.0 + 2.0**-50),
                        c_max / c_min * math.exp(-_PAIR_LOG_RANGE / e_max))
        weights = np.bincount(index.pair_of, w, minlength=len(index.src))
        if not all(np.isfinite(a).all() for a in (weights, linear, bound)):
            return None  # a power of a coefficient past the float range: no row would be finite
        return _PairForm(index.src, index.ref, weights, own, linear, bound, zero_top, pos_floor)

    def _pair_screen(self, x: np.ndarray) -> np.ndarray:
        """Bounds (low, high) on entropy() of each row of the block x from the pair form,
        and NaN on the rows it does not bound.

        The form. Translated cell c of letter j holds P_c = alpha_c x_s and its
        refinement cell Q_c = beta_c x_p (s, p from _pair_index; alpha_c,
        beta_c the engine's float coefficients). Where both are positive,
        lambda_j f(P_c/Q_c) Q_c is lambda_j times
        - KL: alpha_c x_s log x_s - alpha_c x_s log x_p + alpha_c log(alpha_c/beta_c) x_s;
        - chi2: (alpha_c^2/beta_c) x_s^2 / x_p - 2 alpha_c x_s + beta_c x_p;
        - power:a: (alpha_c^a beta_c^(1-a) x_s^a x_p^(1-a) - beta_c x_p) / (a(a-1)).
        Summed over the cells, h = sum_k W_k u(x_s_k) v(x_p_k) + sum_i A_i x_i log x_i
        + sum_i B_i x_i over the K distinct pairs (s_k, p_k), with (u, v) =
        (x, log x), (x^2, 1/x) and (x^a, x^(1-a)); W, A and B are bincounts of
        the per-cell weights. The cost is one gather of K pairs per row instead
        of 2d letters of (2d-1) m cells and their logs or powers.

        Mass classes. A mass x_i is zero-class if every cell it feeds rounds
        to at most ZERO_MASS (x_i <= ZERO_MASS when no coefficient exceeds
        1, with a relative margin 2^-50 otherwise), and positive-class if every
        cell it feeds rounds above it (x_i > ZERO_MASS / c_min with a margin
        2^-50) and (c_max/c_min) e^(-600/E) <= x_i <= 1, with c_min, c_max the
        least and largest coefficient and E = 1, 2, max(|a|, |1 - a|) for KL,
        chi2, power:a. Only rows whose masses all lie in these classes are
        bounded. On them u and v vanish at zero-class masses, which gives
        Csiszar's conventions as divergence_arrays applies them: a cell with
        P = 0 < Q adds f(0+) Q (the B term in x_p, or 0 for KL), escaped mass
        adds 0 where f'(inf) = 0, and the row is infinite exactly when a pair
        has a zero-class source and a positive refinement mass while
        f(0+) = inf, or the reverse while f'(inf) = inf; that boolean pair
        test marks it (low = high = inf). The last class condition gives
        |log(P/Q)| <= rho = log(c_max/c_min) - log x_min with E rho <= 600, so
        no term of entropy(), no u or v and no sum of at most 2^24 terms
        overflows, and u, v and t^a stay normal floats.

        The radius. Let M = |sum_k W_k u v| + |sum_i A_i x_i log x_i| +
        sum_i Bbar_i x_i. The terms of each of the first two sums share one
        sign (W has the sign of -1, +1, 1/(a(a-1)); log x <= 0), so M is the
        sum of the absolute parts of all cells: Bbar_i sums the magnitudes of
        the linear parts fed by x_i (|log alpha| + |log beta| in place of
        |log(alpha/beta)| for KL) and, for KL, the masses P it feeds.
        Assume numpy's log and ** accurate to a
        relative 2^-40; let u = 2^-53, with at most 2^24 cells and E <= 2^10.
        - entropy() rounds P, Q, P/Q, f and the product: each term is off by
          at most (3.1 E u + 2^-40 + 10 u) times its cell's parts, together
          less than 2^-39 M;
        - its two math.fsum and the products lambda_j D_j cost at most 3u M;
          the clamp of a letter's value from (-PROB_TOL, 0) to 0 moves h by
          at most lambda_j PROB_TOL, PROB_TOL (1 + 1e-12) in all;
        - W, A and B come from float cell weights (logs and powers at 2^-40,
          a few roundings, sums of one sign or bounded by Bbar): 2^-39 M;
        - u and v cost 2^-40 M; the pair sum in any summation order (a tree
          of K - 1 additions, numpy's matrix-vector product included) costs
          gamma_K M <= 2^-28.9 M, the sums over m masses less, and an
          underflowed product at most 2^-1075 |W_k|.
        These total less than 2^-28 (1 + M) + PROB_TOL, and the radius
        r = 2^-26 (1 + M) + PROB_TOL is four times that, which also covers the
        roundings of M, r and h -+ r. A row with a mass in neither class, or
        whose bounds are not finite, gets NaN: _screen bounds it.
        """
        import numpy as np

        if self._pair_form is None:
            return np.full((2, len(x)), np.nan)
        return self._in_blocks(self._pair_rows, x, (2,), len(self.words_n))

    def _pair_rows(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        form, f = self._pair_form, self.f
        out = np.full((2, len(x)), np.nan)
        pos = (x > form.pos_floor) & (x <= 1.0)
        rows = np.flatnonzero((pos | (x <= form.zero_top)).all(axis=1))
        # mass-major copies, so that each pair gathers a run of rows
        x, pos = np.ascontiguousarray(x[rows].T), np.ascontiguousarray(pos[rows].T)
        u, v, xh = self._pair_uv(x, pos)
        with np.errstate(over="ignore", invalid="ignore"):
            h_pair = self._pair_sums(u, v, lambda a, b: form.weights @ np.multiply(a, b, out=a),
                                     np.empty(len(rows)))
            h_own = form.own @ (u * v) if form.own is not None else 0.0
            h = h_pair + h_own + form.linear @ xh
            r = _PAIR_RADIUS * (1.0 + np.abs(h_pair) + np.abs(h_own) + form.bound @ xh) + PROB_TOL
            bounds = np.array([h - r, h + r])
        finite = np.isfinite(bounds).all(axis=0)
        out[:, rows[finite]] = bounds[:, finite]
        mixed = np.flatnonzero(~pos.all(axis=0))  # the rows with a zero-class mass
        if len(mixed) and INF in (f.at_infinity_slope, f.at_zero):
            # an infinite cell: a positive source over a zero-class refinement mass where
            # f'(inf) = inf (KL, chi2, power:a > 1), the reverse where f(0+) = inf (a < 0)
            pm = pos[:, mixed]
            cmp = np.greater if f.at_infinity_slope == INF else np.less
            infinite = self._pair_sums(pm, pm, lambda a, b: cmp(a, b).any(axis=0),
                                       np.empty(len(mixed), dtype=bool))
            out[:, rows[mixed[infinite]]] = INF
        return out

    def _pair_sums(self, u: np.ndarray, v: np.ndarray, fn, out: np.ndarray) -> np.ndarray:
        """out[i] = fn(u[src], v[ref])[i] for mass-major u and v (a column per row), with
        the K pairs of ENTROPY_CELLS // K rows gathered at a time."""
        form = self._pair_form
        step = max(1, ENTROPY_CELLS // len(form.src))
        for s in range(0, len(out), step):
            out[s:s + step] = fn(u[:, s:s + step].take(form.src, axis=0),
                                 v[:, s:s + step].take(form.ref, axis=0))
        return out

    def _pair_uv(self, x: np.ndarray, pos: np.ndarray) -> tuple:
        """u, v and x at the positive-class masses of x, and 0 at the others."""
        import numpy as np

        f = self.f
        xh = np.where(pos, x, 0.0)
        if f.kind == "kl":
            return xh, np.log(x, out=np.zeros_like(x), where=pos), xh
        if f.kind == "chi2":
            return xh * xh, np.divide(1.0, x, out=np.zeros_like(x), where=pos), xh
        a = f.alpha
        return (np.power(x, a, out=np.zeros_like(x), where=pos),
                np.power(x, 1.0 - a, out=np.zeros_like(x), where=pos), xh)

    def _screen(self, x: np.ndarray) -> np.ndarray:
        """Bounds (low, high) on the entropy of each row of the block x.

        Each letter's divergence comes from divergence_bounds as a plain sum
        s_j and a radius r_j, and h = sum_j lambda_j s_j, added letter by
        letter. entropy() rounds the 2d products lambda_j D_j and their
        math.fsum; h rounds the 2d products lambda_j s_j and 2d - 1 additions.
        With A = sum_j lambda_j (|s_j| + r_j), which bounds both
        sum_j lambda_j |s_j| and sum_j lambda_j |D_j|, and u = 2^-53, those
        cost at most 2uA + u^2 A and uA + gamma_{2d-1} (1 + u) A, less than
        (2d + 4) u A together, and the divergences differ by at most
        sum_j lambda_j r_j. The radius is twice that sum, which also covers
        the roundings of the radius itself and of h -+ radius. A row that a
        letter flags infinite before any letter leaves r_j = inf is inf
        (low = high = inf), as entropy() stops at that letter too; a row
        with r_j = inf first (a NaN or an overflowed term) is left to
        entropy() (low = -inf, high = inf), which keeps its value, NaN or
        exception. All 2d translates of a slice of ENTROPY_CELLS // ((2d-1) m)
        rows are gathered with one take.
        """
        return self._in_blocks(self._screen_rows, x, (2,), len(self._push_coef))

    def _screen_rows(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        letters = letter_order(self.lam.d)
        k, rows = len(letters), len(x)
        q1 = self.refined(x)
        p = self._push_coef * x.take(self._maps.push_src, axis=-1)
        s, r = divergence_bounds(p.reshape(rows * k, -1), np.repeat(q1, k, axis=0), self.f)
        s, r = s.reshape(rows, k), r.reshape(rows, k)
        c = (k + 4) * 2.0**-53
        lam = np.array([float(self.lam.p[j]) for j in letters])
        with np.errstate(over="ignore", invalid="ignore"):  # on the rows overwritten below
            ws, wr = s * lam, lam * ((1.0 + c) * r + c * np.abs(s))
            h, rad = np.zeros((2, rows))
            for i in range(k):  # letter by letter, as entropy() sums
                h += ws[:, i]
                rad += wr[:, i]
            out = np.array([h - 2.0 * rad, h + 2.0 * rad])
        decided = (r == INF) | (s == INF)
        hit = decided.any(axis=1)
        if hit.any():
            # the first letter that decides a row: infinite if its radius is finite, else open
            open_rows = hit & (r[np.arange(rows), decided.argmax(axis=1)] == INF)
            out[:, hit & ~open_rows] = INF
            out[:, open_rows] = np.array([[-INF], [INF]])
        return out

    def _entropy_rows(self, x: np.ndarray) -> np.ndarray:
        """Entropy of each row of x; a row leaves the later generators' calls once it is infinite."""
        import numpy as np

        q1 = self.refined(x)
        letters = letter_order(self.lam.d)
        terms = np.empty((len(x), len(letters)))
        live = np.arange(len(x))  # rows whose terms are all finite so far
        for k, j in enumerate(letters):
            term = self.lam.p[j] * divergence_arrays(self.translated(x, j), q1, self.f)
            terms[live, k] = term
            dead = term == INF
            if dead.any():
                keep = ~dead
                live, x, q1 = live[keep], x[keep], q1[keep]
        # a row with an inf term is inf, as math.fsum of its terms (each >= 0 or inf) would be
        out = np.full(len(terms), INF)
        out[live] = [math.fsum(row) for row in terms[live].tolist()]
        return out


def _scan_block(rng: np.random.Generator, rows: int, m: int, zero_fraction: float,
                uniform_tail_fraction: float):
    """Depth-n masses and uniform-tail flags of the first `rows` samples of a block.

    The per-sample draws (concentration, zeroing and tail coins, zeroed count
    and zeroing permutation) are made for all SAMPLE_BLOCK samples before the
    Dirichlet rows, so no sample depends on how many of the block are used.
    """
    import numpy as np

    conc = 10.0 ** rng.uniform(-1.0, 1.0, SAMPLE_BLOCK)
    zeroed = rng.random(SAMPLE_BLOCK) < zero_fraction
    uniform_tail = rng.random(SAMPLE_BLOCK) < uniform_tail_fraction
    k = rng.integers(1, max(2, m // 4), size=int(zeroed.sum()))
    keys = rng.random((len(k), m))
    x = _normalise_rows(rng.standard_gamma(conc[:rows, None], size=(rows, m)))
    z = np.flatnonzero(zeroed[:rows])
    k = k[:len(z)]
    drop = np.argsort(keys[:len(z)], axis=1)[np.arange(m) < k[:, None]]
    x[np.repeat(z, k), drop] = 0.0
    x[z] = _normalise_rows(x[z])
    return x, uniform_tail[:rows]


def _normalise_rows(x: np.ndarray) -> np.ndarray:
    """Each row divided by its total; a row whose total is <= 0 becomes uniform."""
    import numpy as np

    total = x.sum(axis=1, keepdims=True)
    return np.divide(x, total, out=np.full(x.shape, 1.0 / x.shape[1]), where=total > 0.0)


def minimality_scan(lam: GeneratorMeasure, f: ConvexGenerator, depth: int,
                    samples: int, seed: int, zero_fraction: float = 0.05,
                    uniform_tail_fraction: float = 0.1) -> dict:
    """Scan random tail-extended depth-n measures for entropy below nu_mu's.

    Samples are drawn in blocks of SAMPLE_BLOCK: block b holds samples
    [b*B, (b+1)*B) and draws from default_rng([seed, b]), so a sample's
    randomness depends only on (seed, index), and a scan's samples are a
    prefix of any longer scan's. A sample is a Dirichlet row with concentration
    10^U(-1,1) (normalised standard_gamma draws); with probability
    zero_fraction, 1 to max(1, m//4 - 1) of its masses are set to 0 and the
    rest renormalised; with probability uniform_tail_fraction it takes the
    uniform tail, else the harmonic one. The argmin is the first sample of
    minimal entropy.

    Only the samples that can hold a block's minimum are summed exactly. The
    engines' screen (EntropyEngine._bounds) bounds every sample's entropy by
    [h - r, h + r] in two stages. The pair form (EntropyEngine._pair_screen)
    writes the entropy as a sum over the distinct pairs of depth-n masses
    that the depth-(n+1) cells of a translate and of the refinement are
    gathered from; it bounds every sample whose masses are each clearly zero
    or clearly positive, with r = 2^-26 (1 + M) + PROB_TOL. The samples left
    go to the letter-wise screen (EntropyEngine._screen), with h the
    plain-sum entropy sum_j lambda_j s_j (s_j from divergence_bounds) and r
    covering the summation and rounding errors of both h and the exact
    value, the clamp near 0, and a factor 2 for its own roundings. The
    candidates are the samples with h - r <= min(h + r) over the block,
    together with the samples neither stage can bound (a NaN or an
    overflowed term), which keep their exact value, NaN or exception. Only
    they go through EntropyEngine.entropy, so the minimum and the first
    sample attaining it are those of the exact values of all samples; a
    sample a screen finds infinite is infinite.
    """
    import numpy as np

    if samples < 1 or depth < 1:
        raise ParseError("need samples >= 1 and depth >= 1")
    if seed < 0:
        raise ParseError("seed must be >= 0")
    if not (0.0 <= zero_fraction <= 1.0 and 0.0 <= uniform_tail_fraction <= 1.0):
        raise ParseError("zero_fraction and uniform_tail_fraction must lie in [0, 1]")
    mu = t_inverse(lam, f)
    qv = solve_q(mu)
    nu_mu = harmonic_measure(mu, depth)
    reference = cylinder_entropy(lam, nu_mu, f)
    harmonic = EntropyEngine(lam, f, depth, TailRule("harmonic", qv))
    uniform = EntropyEngine(lam, f, depth, TailRule("uniform"))
    m = len(harmonic.words_n)

    min_entropy = INF
    argmin_x = None
    argmin_tail = None
    n_infinite = 0
    for start in range(0, samples, SAMPLE_BLOCK):
        rows = min(SAMPLE_BLOCK, samples - start)
        rng = np.random.default_rng([seed, start // SAMPLE_BLOCK])
        x, uniform_tail = _scan_block(rng, rows, m, zero_fraction, uniform_tail_fraction)
        bounds = np.empty((2, rows))
        bounds[:, uniform_tail] = uniform._bounds(x[uniform_tail])
        bounds[:, ~uniform_tail] = harmonic._bounds(x[~uniform_tail])
        low, high = bounds
        n_infinite += int(np.count_nonzero(low == INF))
        # the rows that can hold the block's minimum, and those left undecided
        cand = np.flatnonzero((low <= high.min()) & (low < INF))
        if not len(cand):
            continue
        tail = uniform_tail[cand]
        h = np.empty(len(cand))
        h[tail] = uniform.entropy(x[cand[tail]])
        h[~tail] = harmonic.entropy(x[cand[~tail]])
        n_infinite += int(np.count_nonzero(h == INF))
        best = int(np.argmin(h))
        if h[best] < min_entropy:
            min_entropy = float(h[best])
            argmin_x = x[cand[best]]
            argmin_tail = "uniform" if tail[best] else "harmonic"
    words = harmonic.words_n.tolist()
    argmin_masses = (
        {encode_word(w): float(argmin_x[i]) for i, w in enumerate(words)}
        if argmin_x is not None else {}
    )
    return {
        "reference_entropy": reference,
        "min_entropy": min_entropy,
        "argmin_masses": argmin_masses,
        "argmin_tail": argmin_tail,
        "samples": samples,
        "infinite_entropy_samples": n_infinite,
        "theorem_A_violated": bool(min_entropy < reference - 1e-9),
    }


def entropy_gradient_at_harmonic(lam: GeneratorMeasure, f: ConvexGenerator,
                                 depth: int, h_step: float = 1e-5) -> np.ndarray:
    """Entropy gradient at nu_mu along the simplex-tangent pairs (i, i+1); vanishes at the minimizer.

    Component i is the derivative along e_i - e_{i+1}, g[i] - g[i+1] with g
    from EntropyEngine.gradient. h_step is checked as the step of a
    central-difference gradient would be (StepTooLarge unless it is below a
    tenth of the least mass, then ParseError unless it is positive), but its
    value does not enter the result.
    """
    mu = t_inverse(lam, f)
    qv = solve_q(mu)
    engine = EntropyEngine(lam, f, depth, TailRule("harmonic", qv))
    x = engine.mass_vector(harmonic_measure(mu, depth))
    if not h_step < x.min() / 10.0:
        raise StepTooLarge(f"h_step {h_step} too large for min mass {x.min()}")
    if not h_step > 0:
        raise ParseError("h_step must be positive")
    g = engine.gradient(x)
    return g[:-1] - g[1:]
