"""Harmonic measures on the boundary of the free group and entropy minimality.

Depth-n cylinder masses plus a tail rule determine a genuine boundary measure;
the harmonic tail makes the mu-harmonic measure itself a member of every
scanned family. First-passage probabilities q_i solve
q_j = p_j + q_j * sum_{i != j} p_i q_{-i}, and v_i = q_i/(1+q_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divergence import INF, PROB_TOL, ConvexGenerator, divergence_arrays
from .errors import (
    BadLetter,
    DepthMismatch,
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
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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
    """
    if not 0 < tol < INF:
        raise ParseError(f"tol must be positive and finite, got {tol!r}")
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

    def conditional(self, last: int, nxt: int, d: int) -> float:
        """Next-letter probability given the current last letter."""
        if nxt == -last:
            return 0.0
        if self.kind == "uniform":
            return 1.0 / (2 * d - 1)
        q, v = self.qvec.q, self.qvec.v
        return q[last] * v[nxt] / v[last]

    def conditional_table(self, d: int) -> np.ndarray:
        """conditional(last, nxt) for all letter pairs, indexed by letter positions.

        Entries are the same floats as conditional() returns.
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

    def refine(self) -> "CylinderMeasure":
        """Extend to depth+1 using the tail rule."""
        out = {}
        for w, m in sorted(self.masses.items()):
            last = w[-1]
            for x in letter_order(self.d):
                if x == -last:
                    continue
                out[w + (x,)] = m * self.tail.conditional(last, x, self.d)
        return CylinderMeasure(self.d, self.depth + 1, out, self.tail)

    def refine_to(self, depth: int) -> "CylinderMeasure":
        nu = self
        while nu.depth < depth:
            nu = nu.refine()
        return nu

    def marginal(self, depth: int) -> "CylinderMeasure":
        """Sum masses over extensions down to the given smaller depth."""
        if depth > self.depth or depth < 1:
            raise DepthMismatch(f"cannot marginalize depth {self.depth} to {depth}")
        acc: dict = {}
        for w, m in self.masses.items():
            acc.setdefault(w[:depth], []).append(m)
        return CylinderMeasure(
            self.d, depth, {w: math.fsum(v) for w, v in sorted(acc.items())}, self.tail
        )

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
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad CylinderMeasure JSON: {exc}") from exc
        if kind == "harmonic":
            if "q" not in doc:
                raise ParseError("harmonic tail needs a 'q' object in JSON")
            qv = QVector(d, {int(k): float(v) for k, v in doc["q"].items()})
            tail = TailRule("harmonic", qv)
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
    must lie within 1e-3 of 1.
    """
    if lam.d != nu.d:
        raise DepthMismatch("lambda and nu have different ranks")
    engine = EntropyEngine(lam, f, nu.depth, nu.tail, normalise=True)
    return engine.entropy(engine.mass_vector(nu))


def closed_form_harmonic_entropy(lam: GeneratorMeasure, mu: GeneratorMeasure,
                                 f: ConvexGenerator) -> float:
    """sum_j lam_j (v_j f(1/q_j) + (1-v_j) f(q_j)) for nu = nu_mu."""
    qv = solve_q(mu)
    q, v = qv.q, qv.v
    return math.fsum(
        lam.p[j] * (v[j] * f.eval(1.0 / q[j]) + (1.0 - v[j]) * f.eval(q[j]))
        for j in letter_order(lam.d)
    )


def convolve(mu: GeneratorMeasure, nu: CylinderMeasure, target_depth: int) -> CylinderMeasure:
    """mu * nu on depth-m cylinders, m+1 <= nu.depth."""
    src = nu.marginal(target_depth + 1) if nu.depth > target_depth + 1 else nu
    acc: dict = {}
    for j in letter_order(mu.d):
        pushed = pushforward(ReducedWord((j,), mu.d), src, target_depth)
        for w, m in pushed.masses.items():
            acc.setdefault(w, []).append(mu.p[j] * m)
    out = {w: math.fsum(v) for w, v in sorted(acc.items())}
    return CylinderMeasure(nu.d, target_depth, out, nu.tail)


def stationarity_residual(mu: GeneratorMeasure, nu: CylinderMeasure,
                          target_depth: int) -> float:
    """max_w |(mu * nu)(C_w) - nu(C_w)| over depth-m cylinders."""
    conv = convolve(mu, nu, target_depth)
    marg = nu.marginal(target_depth)
    labels = set(conv.masses) | set(marg.masses)
    return max(abs(conv.mass(w) - marg.mass(w)) for w in labels)


# --- T map and its inverse ----------------------------------------------------

def psi(f: ConvexGenerator, z: float) -> float:
    """Psi_f(z) = f(z) - z f'(z) + f'(1/z)."""
    return f.eval(z) - z * f.deriv(z) + f.deriv(1.0 / z)


def _phi(f: ConvexGenerator, q: float) -> float:
    """Psi_f(q) - Psi_f(1/q); positive and decreasing on (0,1) for the builtin f."""
    return psi(f, q) - psi(f, 1.0 / q)


def t_map(mu: GeneratorMeasure, f: ConvexGenerator) -> GeneratorMeasure:
    """lambda_j = c / (Psi_f(q_j) - Psi_f(1/q_j)), normalized over the 2d generators."""
    qv = solve_q(mu)
    inv = {}
    for j in range(1, mu.d + 1):
        denom = _phi(f, qv.q[j])
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


def _phi_inverse(f: ConvexGenerator, y: float) -> float:
    lo, hi = 1e-14, 1.0 - 1e-14
    f_hi = _phi(f, hi) - y
    if f_hi >= 0.0:
        return hi
    f_lo = _phi(f, lo) - y
    if f_lo <= 0.0:
        return lo
    return _brent(lambda q: _phi(f, q) - y, lo, hi, f_lo, f_hi, xtol=1e-16)


def t_inverse(lam: GeneratorMeasure, f: ConvexGenerator,
              tol: float = 1e-10) -> GeneratorMeasure:
    """Invert the T map by solving for the normalization constant.

    Given c, q_j = Phi^{-1}(c/lam_j) where Phi(q) = Psi_f(q)-Psi_f(1/q); the
    admissibility constraint sum_i v_i = 1 pins c by Brent's method, and p
    is then recovered from the first-passage system in closed form.
    """
    if not 0 < tol < INF:
        raise ParseError(f"tol must be positive and finite, got {tol!r}")
    d = lam.d

    def vsum(c: float) -> float:
        return 2.0 * math.fsum(
            (lambda q: q / (1.0 + q))(_phi_inverse(f, c / lam.p[j]))
            for j in range(1, d + 1)
        )

    lo, hi = 1e-8, 1.0
    while (v_hi := vsum(hi)) > 1.0:
        hi *= 2.0
        if hi > 1e12:
            raise NoConvergence("could not bracket the normalization constant")
    while (v_lo := vsum(lo)) < 1.0:
        lo /= 2.0
        if lo < 1e-300:
            raise NoConvergence("could not bracket the normalization constant")
    c = _brent(lambda x: vsum(x) - 1.0, lo, hi, v_lo - 1.0, v_hi - 1.0, xtol=1e-300)

    q = {}
    for j in range(1, d + 1):
        q[j] = q[-j] = _phi_inverse(f, c / lam.p[j])
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
    refine_src and push_src[j] the source indices into x. With normalise,
    both depth-(n+1) measures are divided by their fsum totals, which must
    lie in (0.999, 1.001); cylinder_entropy uses this for arbitrary input.
    """

    def __init__(self, lam: GeneratorMeasure, f: ConvexGenerator, depth: int,
                 tail: TailRule, normalise: bool = False):
        import numpy as np

        if depth < 1:
            raise DepthMismatch("depth must be >= 1")
        self.lam = lam
        self.f = f
        self.depth = depth
        self.tail = tail
        self.normalise = normalise
        d = lam.d
        self.words_n = word_array(d, depth)
        words = word_array(d, depth + 1)
        m1 = len(words)
        c = tail.conditional_table(d)
        pos = letter_positions(words, d)

        self.refine_src = np.arange(m1) // (2 * d - 1)
        self.refine_matrix = c[pos[:, -2], pos[:, -1]]

        self.push_src = {}
        self.push_matrices = {}
        for j in letter_order(d):
            own = words[:, 0] == j
            src = np.empty(m1, dtype=np.int64)
            coef = np.ones(m1)
            src[own] = word_index(words[own, 1:], d)
            other = ~own
            u = np.hstack([np.full((int(other.sum()), 1), -j), words[other]])
            pu = letter_positions(u, d)
            src[other] = word_index(u[:, :depth], d)
            coef[other] = c[pu[:, -3], pu[:, -2]] * c[pu[:, -2], pu[:, -1]]
            self.push_src[j] = src
            self.push_matrices[j] = coef

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
        import numpy as np

        if x.ndim == 1:
            return self._entropy_rows(x[None, :])[0]
        step = max(1, ENTROPY_CELLS // len(self.refine_src))
        out = np.empty(len(x))
        for s in range(0, len(x), step):
            out[s:s + step] = self._entropy_rows(x[s:s + step])
        return out

    def _entropy_rows(self, x: np.ndarray) -> list:
        import numpy as np

        q1 = self.refined(x)
        if self.normalise:
            # both totals equal 1 in exact arithmetic; divide out the q solver's
            # roundoff, and refuse measures (such as user input) far from 1
            q1 = q1 / self._checked_totals(q1, "cylinder")
        terms = []
        for j in letter_order(self.lam.d):
            pj = self.translated(x, j)
            if self.normalise:
                # a row is infinite once one term is; its later totals go unchecked
                infinite = np.isinf(terms).any(axis=0)
                pj = pj / self._checked_totals(pj, "translated cylinder", infinite)
            terms.append(self.lam.p[j] * divergence_arrays(pj, q1, self.f))
        # the terms are >= 0 or inf, and fsum of a row with an inf term is inf
        return [math.fsum(row) for row in np.transpose(terms).tolist()]

    @staticmethod
    def _checked_totals(rows: np.ndarray, what: str, skip=False) -> np.ndarray:
        """fsum total of each row, as a column; rows not in skip must total within 1e-3 of 1."""
        import numpy as np

        totals = np.array([math.fsum(row) for row in rows.tolist()])
        bad = ~((0.999 < totals) & (totals < 1.001) | skip)
        if bad.any():
            raise NotProbability(f"{what} total {float(totals[bad][0])!r} is not near 1")
        return totals[:, None]


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


def gradient_of_masses(engine: EntropyEngine, x: np.ndarray, h_step: float) -> np.ndarray:
    """Central differences of the entropy along simplex-tangent pairs (i, i+1).

    All 2(m-1) shifted mass vectors go to the engine as one block.
    """
    import numpy as np

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


def entropy_gradient_at_harmonic(lam: GeneratorMeasure, f: ConvexGenerator,
                                 depth: int, h_step: float = 1e-5) -> np.ndarray:
    """Finite-difference entropy gradient at nu_mu; vanishes at the minimizer."""
    mu = t_inverse(lam, f)
    qv = solve_q(mu)
    engine = EntropyEngine(lam, f, depth, TailRule("harmonic", qv))
    x = engine.mass_vector(harmonic_measure(mu, depth))
    if not h_step < x.min() / 10.0:
        raise StepTooLarge(f"h_step {h_step} too large for min mass {x.min()}")
    return gradient_of_masses(engine, x, h_step)
