"""f-divergences between finite measures and Furstenberg (lambda,f)-entropy.

The divergence kernel is a convex f with f(1)=0; only the three builtin
generators (KL, chi-squared, power) are accepted so that f(0+) and the slope
at infinity stay exact instead of being estimated numerically.

`divergence_arrays` is the one place D_f is computed, with Csiszar's
conventions: a mass <= ZERO_MASS counts as zero, an atom with p = 0 < q adds
f(0+) q, mass p escaping to atoms with q = 0 adds f'(inf) p, and 0*inf = 0.
For the builtin generators f'(inf) is 0 or inf, so escaped mass adds exactly
0 or makes the value infinite. It also takes a 2-D p (one measure per row,
against one q or a q per row) and returns one value per row. Each call builds
one dense (rows, M) term matrix, zero outside an atom's branch, and reduces
each row by one math.fsum exactly as the 1-D call on that row, so the values
agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AtomMismatch, MissingTranslate, NotProbability, ParseError

# numpy is imported inside each function that uses it, so the scalar ConvexGenerator methods
# never load it; TYPE_CHECKING is spelled out so that typing stays unloaded too
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

INF = math.inf

PROB_TOL = 1e-12
# masses below this are treated as exact zeros in the p=0 / q=0 branches
ZERO_MASS = 1e-15


@dataclass(frozen=True)
class ConvexGenerator:
    """A convex function f on (0,inf) with f(1)=0, plus its exact boundary data."""

    kind: str  # "kl" | "chi2" | "power"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("kl", "chi2", "power"):
            raise ParseError(f"unknown generator kind {self.kind!r}")
        if self.kind == "power":
            if self.alpha is None or self.alpha in (0.0, 1.0):
                raise ParseError("power generator needs alpha not in {0,1}")
            if not math.isfinite(self.alpha):
                raise ParseError(f"power generator needs a finite alpha, got {self.alpha!r}")

    def eval(self, t: float) -> float:
        if t <= 0:
            raise ValueError("eval defined for t>0; use at_zero for the boundary")
        if self.kind == "kl":
            return t * math.log(t)
        if self.kind == "chi2":
            return (t - 1.0) ** 2
        a = self.alpha
        return (t**a - 1.0) / (a * (a - 1.0))

    def eval_array(self, t: np.ndarray) -> np.ndarray:
        """eval applied elementwise to an array of t > 0."""
        if self.kind == "kl":
            import numpy as np

            return t * np.log(t)
        if self.kind == "chi2":
            return (t - 1.0) ** 2
        a = self.alpha
        return (t**a - 1.0) / (a * (a - 1.0))

    def deriv(self, t: float) -> float:
        if t <= 0:
            raise ValueError("deriv defined for t>0")
        if self.kind == "kl":
            return math.log(t) + 1.0
        if self.kind == "chi2":
            return 2.0 * (t - 1.0)
        a = self.alpha
        return t ** (a - 1.0) / (a - 1.0)

    @property
    def at_zero(self) -> float:
        """f(0+), possibly +inf."""
        if self.kind == "kl":
            return 0.0
        if self.kind == "chi2":
            return 1.0
        a = self.alpha
        if a < 0:
            return INF
        return -1.0 / (a * (a - 1.0))

    @property
    def at_infinity_slope(self) -> float:
        """f'(inf) = lim f(t)/t, possibly +inf."""
        if self.kind in ("kl", "chi2"):
            return INF
        return INF if self.alpha > 1 else 0.0

    @property
    def spec_string(self) -> str:
        if self.kind == "power":
            return f"power:{self.alpha:.17g}"
        return self.kind


KL = ConvexGenerator("kl")
CHI2 = ConvexGenerator("chi2")


def generator_from_string(s: str) -> ConvexGenerator:
    """Parse "kl" | "chi2" | "power:<alpha>"."""
    s = s.strip().lower()
    if s == "kl":
        return KL
    if s == "chi2":
        return CHI2
    if s.startswith("power:"):
        try:
            alpha = float(s.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad power alpha in {s!r}") from exc
        return ConvexGenerator("power", alpha)
    raise ParseError(f"unknown generator spec {s!r}")


@dataclass(frozen=True)
class FiniteMeasure:
    """A finite non-negative measure on an opaque atom set."""

    atoms: dict = field(default_factory=dict)

    def __post_init__(self):
        for label, mass in self.atoms.items():
            if not 0.0 <= mass < INF:
                raise NotProbability(f"mass {mass} at atom {label!r} is negative or not finite")

    @property
    def total(self) -> float:
        return math.fsum(self.atoms.values())

    @property
    def is_probability(self) -> bool:
        return abs(self.total - 1.0) <= PROB_TOL

    def mass(self, label) -> float:
        return self.atoms.get(label, 0.0)

    def labels(self):
        return set(self.atoms)

    def pushforward(self, pi) -> "FiniteMeasure":
        """Image measure under the label map pi."""
        out: dict = {}
        for label, mass in self.atoms.items():
            key = pi(label)
            out[key] = out.get(key, 0.0) + mass
        return FiniteMeasure(out)

    def to_json(self) -> dict:
        return {"atoms": {str(k): v for k, v in self.atoms.items()}}

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteMeasure":
        if not isinstance(doc, dict) or "atoms" not in doc:
            raise ParseError("FiniteMeasure JSON needs an 'atoms' object")
        return cls(dict(doc["atoms"]))


def _require_probability(m: FiniteMeasure, name: str):
    if not m.is_probability:
        raise NotProbability(f"{name} has total {m.total!r}, expected 1")


def divergence_arrays(p: np.ndarray, q: np.ndarray, f: ConvexGenerator):
    """D_f(p||q) for aligned arrays of non-negative masses.

    Masses <= ZERO_MASS count as zero. Atoms where both masses vanish
    contribute nothing (0*inf = 0); p = 0 < q atoms add f(0+) q; the mass p
    escaping to q = 0 atoms adds f'(inf) p; every other atom adds f(p/q) q.

    p of shape (M,) gives a float. p of shape (rows, M), with q of shape (M,)
    or (rows, M), gives an array with one value per row, each equal bit for
    bit to the 1-D call on that row: a row's terms are reduced by one
    math.fsum, which rounds the exact sum once, so neither their order nor
    the zero terms of atoms outside a row's branch can change it.
    """
    import numpy as np

    if p.ndim == 1:
        return _divergence_rows(p[None, :], q[None, :], f)[0]
    if q.ndim == 1:
        q = np.broadcast_to(q, p.shape)
    return np.array(_divergence_rows(p, q, f))


def _divergence_rows(p: np.ndarray, q: np.ndarray, f: ConvexGenerator) -> list:
    """divergence_arrays of each row of 2-D p and q of one shape, as a list of floats.

    The terms form one dense (rows, M) matrix: f(p/q) q on atoms where both
    masses are positive, f(0+) q where p = 0 < q, and exact zeros elsewhere.
    Escaped mass needs no term, since f'(inf) is 0 or inf for every builtin f.
    """
    import numpy as np

    p_pos = p > ZERO_MASS
    q_pos = q > ZERO_MASS
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = f.eval_array(p / q) * q
    both = p_pos & q_pos
    infinite = np.zeros(len(p), dtype=bool)
    # skipped when every atom is in the f(p/q) q branch: each mask below is empty
    if not both.all():
        terms[~both] = 0.0
        if f.at_zero == INF:
            infinite |= (q_pos & ~p_pos).any(axis=1)
        elif f.at_zero != 0.0:  # f(0+) = 0 (KL) keeps the zeros just written
            p_zero = q_pos & ~p_pos
            terms[p_zero] = f.at_zero * q[p_zero]
        if f.at_infinity_slope == INF:
            infinite |= (p_pos & ~q_pos).any(axis=1)
    values = []
    for row, inf in zip(terms.tolist(), infinite.tolist()):
        if inf:
            values.append(INF)
            continue
        value = math.fsum(row)
        # the supporting line at 1 makes each term nonnegative in exact
        # arithmetic, so a tiny negative total is pure roundoff
        values.append(0.0 if -PROB_TOL < value < 0.0 else value)
    return values


def f_divergence(P: FiniteMeasure, Q: FiniteMeasure, f: ConvexGenerator) -> float:
    """D_f(P||Q) on a common finite atom set, with divergence_arrays' conventions."""
    import numpy as np

    if P.labels() != Q.labels():
        raise AtomMismatch("P and Q live on different atom sets")
    _require_probability(P, "P")
    _require_probability(Q, "Q")
    p = np.fromiter(P.atoms.values(), dtype=float, count=len(P.atoms))
    q = np.array([Q.atoms[label] for label in P.atoms], dtype=float)
    return divergence_arrays(p, q, f)


@dataclass(frozen=True)
class MeasureFamily:
    """A base measure, its group translates, and a weighting measure on the group."""

    base: FiniteMeasure
    translates: dict  # group-element key -> FiniteMeasure
    lam: FiniteMeasure  # probability measure over group-element keys

    def __post_init__(self):
        base_labels = self.base.labels()
        for g, nu_g in self.translates.items():
            if nu_g.labels() != base_labels:
                raise AtomMismatch(f"translate at {g!r} has a different atom set")
        _require_probability(self.lam, "lambda")


def furstenberg_entropy(fam: MeasureFamily, f: ConvexGenerator) -> float:
    """h_{lambda,f} = sum_g lambda(g) D_f(g.nu || nu)."""
    terms = []
    for g, weight in fam.lam.atoms.items():
        if weight == 0.0:
            continue
        if g not in fam.translates:
            raise MissingTranslate(f"lambda charges {g!r} but no translate is given")
        d = f_divergence(fam.translates[g], fam.base, f)
        if d == INF:
            return INF
        terms.append(weight * d)
    return math.fsum(terms)
