"""Matrix-valued time-dependent random walks (sigma-stochastic sequences).

Exact distribution propagation by matrix convolution, trajectory sampling,
harmonicity/martingale residuals, Abel-weighted measures on the level space,
and the Folner almost-invariance experiment on Z.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
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
from .words import (ELEMENT_BUDGET, ReducedWord, decode_word, encode_word, enumerate_words,
                    letter_order, letter_positions, reduce_letters, word_count, word_index)


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


class _Entries(Mapping):
    """A walk result's entries (*columns, element) -> mass in (sheet, key) order, read-only
    over its int columns, int64 keys of the call's key space and masses. len and values()
    read the masses; the first key access decodes every key once, into the dict that
    serves every later key access."""

    def __init__(self, space, columns: list, key: np.ndarray, mass: np.ndarray):
        self._space, self._columns, self._key, self._mass = space, columns, key, mass
        self._dict = None

    def _decoded(self) -> dict:
        if self._dict is None:
            self._dict = dict(zip(zip(*[c.tolist() for c in self._columns],
                                      self._space.decode(self._key)), self._mass.tolist()))
        return self._dict

    def __len__(self) -> int:
        return len(self._mass)

    def values(self) -> list:
        return self._mass.tolist()

    def __iter__(self):
        return iter(self._decoded())

    def __getitem__(self, k):
        return self._decoded()[k]

    def __contains__(self, k) -> bool:
        return k in self._decoded()

    def get(self, k, default=None):
        return self._decoded().get(k, default)

    def keys(self):
        return self._decoded().keys()

    def items(self):
        return self._decoded().items()

    def __eq__(self, other) -> bool:
        return self._decoded() == other

    def __repr__(self) -> str:
        return repr(self._decoded())


@dataclass(frozen=True)
class LeveledMeasure:
    n: int
    entries: Mapping  # (j, g) -> mass

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
        # a stored matrix k repeated past the horizon follows the matrix the
        # rule puts before it (k - 1 within a cycle, else the last stored one),
        # so whether its rows fit the width before it is the same at every level
        h = self.horizon
        self._misfits = {k for k in range(h) if len(self.matrices[k]) != self.ell[
            k - 1 if self.beyond == "cycle" and k >= 2 else h - 1]}

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
        k = self._beyond_index(n)
        if k in self._misfits:
            raise ValidationError(
                f"repetition rule {self.beyond!r} gives an incompatible shape at level {n}"
            )
        return self.matrices[k]

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


_INT64 = np.iinfo(np.int64)


def _check_key_range(lo: int, hi: int) -> None:
    """Raise BudgetExceeded where the keys lo..hi of Z leave int64."""
    if lo < _INT64.min or hi > _INT64.max:
        raise BudgetExceeded("a Z element leaves the int64 key range")


class _IntKeys:
    """Elements of Z as their own int64 keys: g x = x g = g + x."""

    identity = 0

    def right(self, keys: np.ndarray, elems) -> np.ndarray:
        """keys * x for each x in elems, as a (len(elems), len(keys)) array."""
        lo, hi = int(min(elems)), int(max(elems))
        if len(keys):
            lo, hi = min(lo, lo + int(keys.min())), max(hi, hi + int(keys.max()))
        _check_key_range(lo, hi)
        return np.array(elems, dtype=np.int64)[:, None] + keys

    left = right  # Z is abelian

    def decode(self, keys: np.ndarray) -> list:
        return keys.tolist()


class _WordTable:
    """Reduced words of F_d as ids of a trie grown on demand; id 0 is the identity.

    Word k is the word parent[k] followed by the letter last[k]. The cell
    k * 2d + p of word k and letter position p in letter_order(d) holds in
    child[cell] the id of word k followed by that letter, or -1 while that
    word has not been met.
    """

    identity = 0

    def __init__(self, d: int):
        self.d = d
        self.order = np.array(letter_order(d), dtype=np.int64)
        self.parent = np.array([-1])
        self.last = np.array([0])
        self.depth = np.array([0])
        self.child = np.full(2 * d, -1)
        self.size = 1

    def _add(self, cells: np.ndarray) -> None:
        """New ids, in cell order, for the words of the distinct sorted cells."""
        lo, self.size = self.size, self.size + len(cells)
        if self.size > len(self.parent):
            extra = max(self.size, 2 * len(self.parent)) - len(self.parent)
            self.parent = np.concatenate([self.parent, np.empty(extra, dtype=np.int64)])
            self.last = np.concatenate([self.last, np.empty(extra, dtype=np.int64)])
            self.depth = np.concatenate([self.depth, np.empty(extra, dtype=np.int64)])
            self.child = np.concatenate([self.child, np.full(extra * 2 * self.d, -1)])
        par = cells // (2 * self.d)
        self.parent[lo:self.size] = par
        self.last[lo:self.size] = self.order[cells % (2 * self.d)]
        self.depth[lo:self.size] = self.depth[par] + 1
        self.child[cells] = np.arange(lo, self.size)

    def _push(self, keys: np.ndarray, letters: np.ndarray) -> np.ndarray:
        """keys[k] * letters[k] for 1-D arrays; letter 0 leaves its key as it is.

        The cells (key * 2d + letter position) not met before get new ids in
        sorted cell order. One sort and a compare of neighbours drop their
        repeats: the sorted distinct cells of a unique() call, at a fraction
        of its cost on int64 under numpy >= 2.3.
        """
        out = keys.copy()
        live = letters != 0
        back = live & (self.last[keys] == -letters)
        out[back] = self.parent[keys[back]]
        fwd = np.flatnonzero(live & ~back)
        cells = keys[fwd] * (2 * self.d) + letter_positions(letters[fwd], self.d)
        ids = self.child[cells]
        new = ids < 0
        if new.any():
            fresh = np.sort(cells[new])
            self._add(fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))])
            ids = self.child[cells]
        out[fwd] = ids
        return out

    def letters(self, keys: np.ndarray) -> np.ndarray:
        """The words of keys as rows of letters, right-padded with 0."""
        depth = self.depth[keys]
        out = np.zeros((len(keys), int(depth.max(initial=0))), dtype=np.int64)
        rows = np.arange(len(keys))
        cur = keys.copy()
        for k in range(out.shape[1]):
            # peel the letters off from the end of each word still long enough
            live = depth > k
            out[rows[live], depth[live] - 1 - k] = self.last[cur[live]]
            cur[live] = self.parent[cur[live]]
        return out

    def right(self, keys: np.ndarray, elems) -> np.ndarray:
        """keys * x for each x in elems, as a (len(elems), len(keys)) array."""
        letters = _letter_rows(elems, self.d)
        out = np.tile(keys, len(letters))
        for col in letters.T:
            out = self._push(out, np.repeat(col, len(keys)))
        return out.reshape(len(letters), len(keys))

    def left(self, keys: np.ndarray, elems) -> np.ndarray:
        """x * keys for each x in elems, as a (len(elems), len(keys)) array."""
        out = np.repeat(self.right(np.array([self.identity]), elems)[:, 0], len(keys))
        for col in self.letters(keys).T:
            out = self._push(out, np.tile(col, len(elems)))
        return out.reshape(len(elems), len(keys))

    def decode(self, keys: np.ndarray) -> list:
        """The reduced words of keys as letter tuples."""
        # a word's id is larger than its parent's, so one pass in id order builds them all
        words = [()]
        append = words.append
        for par, x in zip(self.parent[1:self.size].tolist(), self.last[1:self.size].tolist()):
            append(words[par] + (x,))
        return list(map(words.__getitem__, keys.tolist()))


def _letter_rows(elems, d: int) -> np.ndarray:
    """The reduced words of the F_d elements elems as rows of letters, right-padded with the
    no-op letter 0 to the longest one."""
    words = [reduce_letters(g, d) for g in elems]
    out = np.zeros((len(words), max(map(len, words), default=0)), dtype=np.int64)
    for k, w in enumerate(words):
        out[k, :len(w)] = w
    return out


def _key_space(group: GroupSpec):
    """A fresh key space for one call: Z keys, or an empty word table on F_d."""
    return _WordTable(group.d) if group.kind == "free" else _IntKeys()


def _bounds(sheet: np.ndarray, ell: int) -> list:
    """Slice bounds of sheets 0..ell-1 in a level, which is in (sheet, key) order."""
    return np.searchsorted(sheet, np.arange(ell + 1)).tolist()


def _count_pairs(sheet: np.ndarray, key: np.ndarray, num) -> tuple:
    """The (sheet, key) pairs that occur, in (sheet, key) order, with the sums of
    num per pair (with num None, the number of times each pair occurs).

    Each sum is np.bincount of its terms in input order from 0.0, and a pair
    whose sum is 0 stays. The pairs are ranked by one sort of the keys and,
    where the terms lie on more than one sheet, a stable sort of their sheets,
    in O(terms) memory.
    """
    order = np.argsort(key)
    if (sheet != sheet[:1]).any():
        order = order[np.argsort(sheet[order], kind="stable")]
    sheet, key = sheet[order], key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = (sheet[1:] != sheet[:-1]) | (key[1:] != key[:-1])
    pair = np.empty(len(key), dtype=np.intp)
    pair[order] = np.cumsum(new) - 1
    new = np.flatnonzero(new)
    return sheet[new], key[new], np.bincount(pair, num, len(new))


def _row_cells(row) -> tuple:
    """A matrix row's cells as (elements, masses column, sheet of each element),
    in cell order."""
    xs, ws, js = [], [], []
    for j, cell in enumerate(row):
        xs.extend(cell)
        ws.extend(cell.values())
        js.extend([j] * len(cell))
    return tuple(xs), np.array(ws)[:, None], np.array(js, dtype=np.intp)


@dataclass(frozen=True)
class _Sparse:
    """A level as parallel (sheet, key, mass) arrays in (sheet, key) order."""

    sheet: np.ndarray
    key: np.ndarray
    mass: np.ndarray

    @property
    def size(self) -> int:
        return len(self.key)

    def triples(self) -> "_Sparse":
        return self

    def scaled(self, c: float) -> "_Sparse":
        return _Sparse(self.sheet, self.key, c * self.mass)

    def spans(self, rows: int) -> list:
        """(entries, least key, largest key) of sheets 0..rows-1; None for an empty sheet."""
        bounds = _bounds(self.sheet, rows)
        return [(hi - lo, int(self.key[lo]), int(self.key[hi - 1])) if hi > lo else None
                for lo, hi in zip(bounds, bounds[1:])]

    def row(self, i: int, span: tuple) -> tuple:
        """Sheet i on Z as (masses, reached flags) over its keys span[1]..span[2]."""
        count, kmin, kmax = span
        lo = int(np.searchsorted(self.sheet, i))
        at = self.key[lo:lo + count] - kmin
        mass = np.zeros(kmax - kmin + 1)
        reach = np.zeros(kmax - kmin + 1, dtype=bool)
        mass[at] = self.mass[lo:lo + count]
        reach[at] = True
        return mass, reach


@dataclass(frozen=True)
class _Dense:
    """A level on Z over its hull: (sheet j, key lo + k) has mass[j, k] and is in
    the support where reach[j, k]. A cell outside the support holds 0.0."""

    lo: int
    mass: np.ndarray  # (sheets, width)
    reach: np.ndarray  # (sheets, width), bool
    row_spans: list  # as _Sparse.spans
    size: int  # cells in the support

    @property
    def width(self) -> int:
        return self.mass.shape[1]

    def triples(self) -> _Sparse:
        sheet, at = np.nonzero(self.reach)
        return _Sparse(sheet, at + self.lo, self.mass[self.reach])

    def scaled(self, c: float) -> "_Dense":
        return _Dense(self.lo, c * self.mass, self.reach, self.row_spans, self.size)

    def spans(self, rows: int) -> list:
        return self.row_spans

    def row(self, i: int, span: tuple) -> tuple:
        """Sheet i as views (masses, reached flags) over its keys span[1]..span[2]."""
        _, kmin, kmax = span
        at = slice(kmin - self.lo, kmax - self.lo + 1)
        return self.mass[i, at], self.reach[i, at]


_EMPTY = _Sparse(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64), np.empty(0))


def _step(space, level: _Sparse, cells: list, ell: int) -> _Sparse:
    """One exact step: level n-1 -> level n, with ell sheets, by sorting keys.

    cells holds _row_cells of each row of sigma^(n). The terms are listed by
    source row, then by cell element, then by source key, and reduced once by
    _count_pairs; every (sheet, element) a cell reaches stays in the support,
    also with zero mass.
    """
    sheet, key, mass = level.sheet, level.key, level.mass
    sheets, keys, masses = [], [], []
    bounds = _bounds(sheet, len(cells))
    for lo, hi, (xs, ws, js) in zip(bounds, bounds[1:], cells):
        if lo == hi or not xs:
            continue
        sheets.append(np.repeat(js, hi - lo))
        keys.append(space.right(key[lo:hi], xs).ravel())
        masses.append((ws * mass[lo:hi]).ravel())
    if not keys:
        return _EMPTY
    return _Sparse(*_count_pairs(np.concatenate(sheets), np.concatenate(keys),
                                 np.concatenate(masses)))


def _int_step(space, level, cells: list, ell: int):
    """One exact step on Z: dense over the new level's hull where that is small.

    _step would build one (sheet, key) term per reached source entry and
    element of its row. A dense step takes one product per element of a row
    and key in the row's span, and holds the new level over its hull. Where
    both counts are at most twice the number of terms, the step is dense, so
    no dense array is larger than twice _step's term arrays; otherwise it is
    _step's. Either way a key past int64 raises at the same level.
    """
    spans = level.spans(len(cells))
    live, terms, products, lo, hi = [], 0, 0, None, None
    for i, span in enumerate(spans):
        xs = cells[i][0]
        if span and xs:
            count, kmin, kmax = span
            xmin, xmax = int(min(xs)), int(max(xs))
            _check_key_range(min(xmin, xmin + kmin), max(xmax, xmax + kmax))
            terms += count * len(xs)
            products += (kmax - kmin + 1) * len(xs)
            lo = kmin + xmin if lo is None else min(lo, kmin + xmin)
            hi = kmax + xmax if hi is None else max(hi, kmax + xmax)
            live.append(i)
    if live and max(products, ell * (hi - lo + 1)) <= 2 * terms:
        return _dense_step(level, spans, live, cells, ell, lo, hi)
    return _step(space, level.triples(), cells, ell)


def _dense_step(level, spans: list, live: list, cells: list, ell: int, lo: int,
                hi: int) -> _Dense:
    """The level after level over the keys lo..hi, from the source rows in live.

    For each source row i in order and each element x of its cells in cell
    order, the row j of x's cell gains w * mass[i] shifted by x: for every
    (sheet, key), the order of _step's terms, which _count_pairs sums with
    np.bincount. So every sum has the same terms in the same order from 0.0,
    and an unreached source cell adds only +0.0.
    """
    mass = np.zeros((ell, hi - lo + 1))
    reach = np.zeros(mass.shape, dtype=bool)
    first, last = [hi - lo + 1] * ell, [-1] * ell
    for i in live:
        xs, ws, js = cells[i]
        _, kmin, kmax = spans[i]
        size = kmax - kmin + 1
        row_mass, row_reach = level.row(i, spans[i])
        for x, j, term in zip(xs, js.tolist(), ws * row_mass):
            # in place on views: mass[j, a:b] += term would also copy the sum back
            at = int(x) + kmin - lo
            seg, seg_reach = mass[j, at:at + size], reach[j, at:at + size]
            seg += term
            seg_reach |= row_reach
            first[j], last[j] = min(first[j], at), max(last[j], at + size - 1)
    count = reach.sum(axis=1).tolist()
    return _Dense(lo, mass, reach, [(c, lo + f, lo + k) if c else None
                                    for c, f, k in zip(count, first, last)], sum(count))


def _walk(s: StochasticSequence, space, row: int, first: int, last: int, budget: int):
    """The levels first..last of the walk started at (row, e) before level first;
    a level of more than budget entries raises BudgetExceeded."""
    cells: dict = {}  # _row_cells per stored matrix, which repeats past the horizon
    step = _int_step if isinstance(space, _IntKeys) else _step
    level = _Sparse(np.array([row]), np.array([space.identity], dtype=np.int64), np.array([1.0]))
    for n in range(first, last + 1):
        mat = s.matrix(n)
        if id(mat) not in cells:
            cells[id(mat)] = [_row_cells(r) for r in mat]
        level = step(space, level, cells[id(mat)], len(mat[0]))
        if level.size > budget:
            raise BudgetExceeded(f"element budget {budget} exceeded at level {n}", level=n)
        yield level


def exact_distribution(s: StochasticSequence, n: int,
                       budget: int = ELEMENT_BUDGET) -> LeveledMeasure:
    """Distribution of X_n = (I_n, Y_n) by exact matrix convolution."""
    if n < 0:
        raise ParseError("level must be >= 0")
    space = _key_space(s.group)
    for level in _walk(s, space, 0, 0, n, budget):
        pass
    out = level.triples()
    return LeveledMeasure(n, _Entries(space, [out.sheet], out.key, out.mass))


def _row_choices(row):
    """Flatten a matrix row into parallel (sheet, element, cumulative mass) arrays."""
    choices = [(j, g, m) for j, cell in enumerate(row)
               for g, m in sorted(cell.items(), key=lambda kv: str(kv[0])) if m > 0]
    if not choices:
        raise NotProbability("a matrix row has no positive mass to sample from")
    sheets, elems, masses = map(list, zip(*choices))
    cum = np.cumsum(masses)
    cum /= cum[-1]
    return sheets, elems, cum


def _sample_tables(s: StochasticSequence, steps: int, block: int) -> list:
    """Per level 0..steps, its matrix's per-row sampling tables (cumulative
    masses, sheets, elements), built once per stored matrix from _row_choices;
    the elements are int64 on Z and _letter_rows on F_d.

    block x (steps + 1) uniforms past ELEMENT_BUDGET raise BudgetExceeded, and
    so does a Z element or partial sum past int64: each partial sum lies
    between the sums of each level's least and largest element.
    """
    if block * (steps + 1) > ELEMENT_BUDGET:
        raise BudgetExceeded(f"{block} x {steps + 1} uniforms exceed the element budget")
    built: dict = {}  # (tables, least, largest element) per stored matrix
    levels, lo, hi = [], 0, 0
    for n in range(steps + 1):
        mat = s.matrix(n)
        if id(mat) not in built:
            rows = [_row_choices(row) for row in mat]
            elems = [g for _, row_elems, _ in rows for g in row_elems]
            least, largest = (min(elems), max(elems)) if s.group.kind == "int" else (0, 0)
            _check_key_range(least, largest)
            elems = (np.array(elems, dtype=np.int64) if s.group.kind == "int"
                     else _letter_rows(elems, s.group.d))
            parts = np.split(elems, np.cumsum([len(row[1]) for row in rows])[:-1])
            built[id(mat)] = ([(cum, np.array(sheets), part) for (sheets, _, cum), part
                               in zip(rows, parts)], least, largest)
        table, least, largest = built[id(mat)]
        lo, hi = lo + least, hi + largest
        _check_key_range(lo, hi)
        levels.append(table)
    return levels


def _sampled_levels(tables: list, space, u: np.ndarray):
    """The (sheet, key) arrays of levels 0..len(tables)-1 of the len(u)
    trajectories from (0, e): at level n, row r takes the step that
    searchsorted(side="right") finds for u[r, n] in its sheet's table."""
    sheet = np.zeros(len(u), dtype=np.intp)
    key = np.full(len(u), space.identity, dtype=np.int64)
    for n, table in enumerate(tables):
        nxt = np.empty_like(sheet)
        step = np.empty((len(u),) + table[0][2].shape[1:], dtype=np.int64)
        for i, (cum, sheets, elems) in enumerate(table):
            on = sheet == i
            k = np.searchsorted(cum, u[on, n], side="right")
            nxt[on] = sheets[k]
            step[on] = elems[k]
        sheet = nxt
        if isinstance(space, _IntKeys):
            key = key + step
        else:
            for letters in step.T:
                key = space._push(key, letters)
        yield sheet, key


def sample_trajectory(s: StochasticSequence, steps: int, seed: int) -> list:
    """States X_0..X_steps: the one row of _sampled_levels that draws with
    default_rng(seed).random((1, steps + 1)), as steps + 1 calls of random() would.
    On F_d, the first level whose words take sum_n |g_n| (up to quadratic in steps)
    past ELEMENT_BUDGET raises BudgetExceeded before any word is decoded."""
    if steps < 1:
        raise ParseError("steps must be >= 1")
    if seed < 0:
        raise ParseError("seed must be >= 0")
    tables = _sample_tables(s, steps, 1)
    space = _key_space(s.group)
    u = np.random.default_rng(seed).random((1, steps + 1))
    levels, letters = [], 0
    for n, (sheet, key) in enumerate(_sampled_levels(tables, space, u)):
        if isinstance(space, _WordTable):
            letters += int(space.depth[key[0]])
            if letters > ELEMENT_BUDGET:
                raise BudgetExceeded(f"the words of levels 0..{n} hold {letters} letters, past "
                                     f"the element budget {ELEMENT_BUDGET}", level=n)
        levels.append((sheet, key))
    sheets, keys = zip(*levels)
    return [WalkState(n, i, g) for n, (i, g) in enumerate(zip(
        np.concatenate(sheets).tolist(), space.decode(np.concatenate(keys))))]


def sample_endpoints(s: StochasticSequence, steps: int, trajectories: int,
                     seed: int) -> Counter:
    """Empirical distribution of X_steps.

    Trajectories are drawn in blocks of SAMPLE_BLOCK: block b holds trajectories
    [b*B, (b+1)*B), and trajectory b*B + r is row r of _sampled_levels with
    default_rng([seed, b]).random((rows, steps + 1)), so its randomness depends
    only on (seed, its index). Keys are int64 (on F_d, ids in one _WordTable
    per call). Each block's (sheet, key) pairs are counted apart; the blocks
    are merged, and the keys decoded, once at the end. The Counter is in
    (sheet, key) order.

    With 0 trajectories nothing is drawn, and only levels
    0..min(steps, 2 * horizon) are tabulated: they reach every stored matrix
    the walk uses and the first level whose matrix misfits, so every row and
    element check still runs, but partial sums past them are not range-checked.
    """
    if steps < 0 or trajectories < 0 or seed < 0:
        raise ParseError("steps, trajectories and seed must be >= 0")
    if not trajectories:
        steps = min(steps, 2 * s.horizon)
    tables = _sample_tables(s, steps, min(trajectories, SAMPLE_BLOCK))
    space = _key_space(s.group)
    blocks = []  # per block: (sheets, keys, counts) of its distinct endpoints
    for start in range(0, trajectories, SAMPLE_BLOCK):
        rows = min(SAMPLE_BLOCK, trajectories - start)
        u = np.random.default_rng([seed, start // SAMPLE_BLOCK]).random((rows, steps + 1))
        for sheet, key in _sampled_levels(tables, space, u):
            pass
        blocks.append(_count_pairs(sheet, key, None))
    if not blocks:
        return Counter()
    sheet, key, num = _count_pairs(*(np.concatenate(part) for part in zip(*blocks)))
    return Counter(dict(zip(zip(sheet.tolist(), space.decode(key)),
                            num.astype(np.int64).tolist())))


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


def boundary_empirical(mu: GeneratorMeasure, steps: int, trajectories: int,
                       seed: int, depth: int, max_attempts: int = 8) -> dict:
    """Empirical depth-n cylinder frequencies of the walk's exit direction.

    Trajectories are drawn in blocks of SAMPLE_BLOCK as in sample_endpoints,
    under the same element budget. A trajectory whose endpoint is shorter
    than `depth` is discarded and redrawn: attempt k of trajectory b*B + r
    takes row r of default_rng([seed, b, k]).random((rows, steps)), one
    uniform per step.
    """
    if depth < 1:
        raise DepthMismatch("depth must be >= 1")
    if steps < 4 * depth:
        raise ParseError("need steps >= 4 * depth for a reliable exit prefix")
    if trajectories < 0 or seed < 0:
        raise ParseError("trajectories and seed must be >= 0")
    if min(trajectories, SAMPLE_BLOCK) * (steps + 1) > ELEMENT_BUDGET:
        raise BudgetExceeded(f"{min(trajectories, SAMPLE_BLOCK)} x {steps + 1} uniforms exceed "
                             "the element budget")
    letters = np.array(letter_order(mu.d), dtype=np.int32)
    cum = np.cumsum([mu.p[int(j)] for j in letters])
    cum /= cum[-1]
    # exit prefixes counted by their enumerate_words index
    hits = np.zeros(word_count(mu.d, depth), dtype=np.int64)
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
        # hits and the masses are both in enumerate_words order, which is sorted order
        expected = harmonic_measure(mu, depth).masses
        for (wkey, exp), hit in zip(expected.items(), hits.tolist()):
            table[encode_word(wkey)] = {"freq": hit / n, "expected": exp,
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
    entries: Mapping  # (n, j, g) -> mass
    tail_mass: float
    group: GroupSpec

    @property
    def stored_total(self) -> float:
        return math.fsum(self.entries.values())


def _tail_exponent(a: float, eps: float) -> int:
    """Least m >= 1 with a^m < eps."""
    if not eps > 0:
        raise ParseError("eps must be positive")
    if not a >= eps:
        return 1
    if a >= 1.0:
        # a^m >= a >= eps for every m
        raise BudgetExceeded("geometric tail will not reach eps")
    # the closed form can be off by one either way where a^m rounds near eps
    m = max(1, math.ceil(math.log(eps) / math.log(a)))
    while m > 1 and a ** (m - 1) < eps:
        m -= 1
    while a**m >= eps:
        m += 1
    if m > ELEMENT_BUDGET:
        raise BudgetExceeded("geometric tail will not reach eps")
    return m


def _abel_levels(s: StochasticSequence, space, t: int, r: int, a: float, K: int,
                 eps: float, N: int | None, budget: int) -> tuple:
    """(N, levels) of nu_{r,a;K}^{(t)}: one walk level per n = t+1+K..N, with
    the masses already scaled by (1-a) a^(n-t-1-K)."""
    if not (0.0 < a < 1.0):
        raise ParseError("a must be in (0,1)")
    if not eps > 0 or t < -1 or K < 0:
        raise ParseError("need eps > 0, t >= -1, K >= 0")
    if r < 0 or r >= s.ell_at(t):
        raise ParseError(f"row {r} out of range for level {t}")
    if N is None:
        N = t + K + _tail_exponent(a, eps)
    first = t + 1 + K
    levels, stored = [], 0
    for n, level in enumerate(_walk(s, space, r, t + 1, N, budget), t + 1):
        if n >= first:
            levels.append(level.scaled((1.0 - a) * a ** (n - first)))
            stored += level.size
            if stored > budget:
                raise BudgetExceeded(f"abel entry budget exceeded at level {n}", level=n)
    return N, levels


def abel_measure(s: StochasticSequence, t: int, r: int, a: float, K: int,
                 eps: float, N: int | None = None,
                 budget: int = ELEMENT_BUDGET) -> AbelMeasure:
    """nu_{r,a;K}^{(t)} truncated at level N with the exact geometric tail mass.

    mass(n,j,g) = (1-a)/a^{t+1+K} * 1_{n >= t+1+K} * a^n * (sigma^{(t+1)} * ... *
    sigma^{(n)})_{r,j}(g); stored total + tail = 1 with tail = a^{N-t-K}.
    """
    space = _key_space(s.group)
    N, levels = _abel_levels(s, space, t, r, a, K, eps, N, budget)
    levels = [level.triples() for level in levels] or [_EMPTY]
    sheet = np.concatenate([level.sheet for level in levels])
    key = np.concatenate([level.key for level in levels])
    mass = np.concatenate([level.mass for level in levels])
    first = t + 1 + K
    n = np.repeat(np.arange(first, first + len(levels)), [level.size for level in levels])
    tail = a ** (N - t - K)
    return AbelMeasure(t, r, a, K, N, _Entries(space, [n, sheet], key, mass), tail, s.group)


def _dense_difference(lhs: list, rhs) -> np.ndarray | None:
    """The sum of w * nu shifted by x over the (x, w, nu) of lhs, minus rhs, on
    one hull of a level on Z.

    Each cell takes the lhs terms in order and -rhs last, the order of the
    sparse comparison's terms, which _count_pairs sums with np.bincount. None
    where a level is sparse, or where the hull holds more than twice as many
    cells as that comparison has terms.
    """
    levels = [nu for _, _, nu in lhs] + [rhs]
    if not all(isinstance(level, _Dense) for level in levels):
        return None
    lo = min([rhs.lo] + [nu.lo + x for x, _, nu in lhs])
    end = max([rhs.lo + rhs.width] + [nu.lo + x + nu.width for x, _, nu in lhs])
    sheets = rhs.mass.shape[0]
    if sheets * (end - lo) > 2 * sum(level.size for level in levels):
        return None
    out = np.zeros((sheets, end - lo))
    for x, w, nu in lhs:
        seg = out[:, nu.lo + x - lo:nu.lo + x - lo + nu.width]
        seg += w * nu.mass
    seg = out[:, rhs.lo - lo:rhs.lo - lo + rhs.width]
    seg -= rhs.mass
    return out


def abel_identity_residual(s: StochasticSequence, t: int, a: float, K: int,
                           eps: float, budget: int = ELEMENT_BUDGET) -> float:
    """Residual of sum_r sigma^(t)_{s,r} * nu^{(t)}_{r,a;K} = nu^{(t-1)}_{s,a;K+1}.

    Both sides are truncated at the same level so the geometric tails match,
    and they are compared level by level on the union of their supports: on
    one dense hull where the levels are dense (on Z), else by sorting keys.
    """
    if t < 0:
        raise ParseError("the identity needs t >= 0")
    if not (0.0 < a < 1.0):
        raise ParseError("a must be in (0,1)")
    N = t + K + _tail_exponent(a, eps)
    mat = s.matrix(t)
    space = _key_space(s.group)
    nus = [_abel_levels(s, space, t, r, a, K, eps, N, budget)[1]
           for r in range(s.ell_at(t))]
    worst = 0.0
    for srow in range(s.ell_at(t - 1)):
        rhs = _abel_levels(s, space, t - 1, srow, a, K + 1, eps, N, budget)[1]
        cells = []
        for r, cell in enumerate(mat[srow]):
            live = {x: w for x, w in cell.items() if w != 0.0}
            if live:
                cells.append((r, tuple(live), np.array(list(live.values()))[:, None]))
        shifts = [(r, int(x), w) for r, xs, ws in cells
                  for x, w in zip(xs, ws[:, 0].tolist())] if isinstance(space, _IntKeys) else None
        for lvl, level in enumerate(rhs):
            diff = None if shifts is None else _dense_difference(
                [(x, w, nus[r][lvl]) for r, x, w in shifts], level)
            if diff is not None:
                worst = max(worst, float(np.abs(diff).max(initial=0.0)))
                continue
            # the lhs terms in cell order and -rhs last, so each sum ends in lhs - rhs
            sheets, keys, masses = [], [], []
            for r, xs, ws in cells:
                nu = nus[r][lvl].triples()
                sheets.append(np.tile(nu.sheet, len(xs)))
                keys.append(space.left(nu.key, xs).ravel())
                masses.append((ws * nu.mass).ravel())
            level = level.triples()
            sheets.append(level.sheet)
            keys.append(level.key)
            masses.append(-level.mass)
            *_, diff = _count_pairs(np.concatenate(sheets), np.concatenate(keys),
                                    np.concatenate(masses))
            worst = max(worst, float(np.abs(diff).max(initial=0.0)))
    return worst


# --- Folner experiment on Z ---------------------------------------------------

GEOM_B = 0.5  # ratio of the two-sided geometric sigma^(0) of the Folner experiment
WINDOW_MARGIN = 64  # positions kept beyond the support of lambda_a's stored levels


def _geometric_prefix(x: np.ndarray, b: float) -> None:
    """Overwrite each row of x with L[k] = b L[k-1] + x[k], L[-1] = 0, for 0 < b < 1.

    Blocks of positions compute L = b^j cumsum(x b^-j) with the carry from
    the block before folded into the first term, so that at b = 1/2 every
    product is exact and the sums are the recurrence's own. A block is as
    long as b^-j <= 2^600 allows: 601 positions at b = 1/2. Every block is
    scaled, summed and scaled back in place, so no row-sized temporary is made.
    """
    size = 1 + int(600 * math.log(2.0) / -math.log(b))
    j = np.arange(size, dtype=float)
    up, down = b ** -j, b ** j
    carry = np.zeros(x.shape[:-1])
    for s in range(0, x.shape[-1], size):
        seg = x[..., s:s + size]
        n = seg.shape[-1]
        seg[..., 0] += b * carry
        seg *= up[:n]
        np.cumsum(seg, axis=-1, out=seg)
        seg *= down[:n]
        carry = seg[..., -1]


def _geometric_tails(m: np.ndarray, lo: int, window_lo: int, window_hi: int,
                     b: float) -> np.ndarray:
    """Convolve a finitely supported array with c*b^|k| exactly on a window.

    m[j] is the mass at integer lo+j. Uses the prefix recurrences
    L[k] = b L[k-1] + m[k], R[k] = b R[k+1] + m[k], run as one two-row batch:
    the window and its reverse.
    """
    c = (1.0 - b) / (1.0 + b)
    at = lo - window_lo
    rows = np.zeros((2, window_hi - window_lo + 1))
    rows[0, at: at + len(m)] = m
    rows[1] = rows[0, ::-1]
    _geometric_prefix(rows, b)
    out = rows[0] + rows[1, ::-1]
    out[at: at + len(m)] -= m
    out *= c
    return out


def _folner_levels(max_level: int):
    """rho_0..rho_max_level on Z, one at a time, as (array, lo) pairs where
    array[j] is the mass at lo+j.

    rho_n = u_1 * ... * u_n with u_n uniform on [-2^n, 2^n]; rho_0 is the
    point mass at 0.
    """
    arr, lo = np.array([1.0]), 0
    yield arr, lo
    for n in range(1, max_level + 1):
        width = 2 ** n
        # convolution with a uniform kernel is a sliding-window mean, which a
        # prefix-sum difference computes in linear time
        win = 2 * width + 1
        padded = np.zeros(len(arr) + 2 * win)
        padded[win: win + len(arr)] = arr
        csum = np.cumsum(padded)
        out_len = len(arr) + win - 1
        arr = (csum[win:win + out_len] - csum[:out_len]) / win
        lo = lo - width
        yield arr, lo


def folner_entropy_curve(lam: FiniteMeasure, f: ConvexGenerator, a_values,
                         eps: float, max_level: int | None = None) -> dict:
    """Entropy h_{lam,f} of the Abel projections lambda_a on Z.

    sigma^(0) is the two-sided geometric with ratio GEOM_B (full support, so
    lambda_a is strictly positive and all shift divergences are finite);
    sigma^(n) is uniform on [-2^n, 2^n]. When max_level caps the truncation
    below what eps asks for, the dropped geometric weight is renormalized into
    the stored levels and reported. A truncation level past 21 raises
    BudgetExceeded before any array is built.

    Every a and its truncation level N_a are checked first; then each rho_n is
    built once and added, weighted, into the m_a of every a with n <= N_a.

    The far tails of lambda_a are prefix-sum noise: positions where either
    shifted mass is at or below ZERO_MASS are dropped before D_f is taken,
    since their masses are below the float resolution of lambda_a's total.
    """
    if max_level is not None and max_level < 0:
        raise ParseError(f"max_level must be >= 0, got {max_level}")
    smax = max((abs(int(k)) for k in lam.atoms), default=0)
    if not lam.is_probability:
        raise ParseError("lambda on Z must be a probability measure")
    plan = []  # (a, N_a) per a value
    hard_cap = (ELEMENT_BUDGET + 3).bit_length() - 3  # largest N with 2^(N+2) - 3 entries in rho_N
    for a in a_values:
        if not (0.0 < a < 1.0):
            raise ParseError("a values must lie in (0,1)")
        N = _tail_exponent(a, eps) - 1  # minimal N with a^{N+1} < eps
        if max_level is not None:
            N = min(N, max_level)
        if N > hard_cap:
            raise BudgetExceeded(f"a={a} with eps={eps} needs truncation level {N}", level=N)
        plan.append((a, N))
    weights = [np.array([(1.0 - a) * a**n for n in range(N + 1)]) for a, N in plan]
    weights = [w / w.sum() for w in weights]
    mixes = [np.zeros(2 ** (N + 2) - 3) for _, N in plan]
    for n, (arr, lo) in enumerate(_folner_levels(max((N for _, N in plan), default=-1))):
        for (_, N), w, m_a in zip(plan, weights, mixes):
            if n <= N:
                at = lo + 2 ** (N + 1) - 2  # rho_N starts at 2 - 2^(N+1)
                m_a[at: at + len(arr)] += w[n] * arr
    results = []
    for (a, N), m_a in zip(plan, mixes):
        tail_mass = a ** (N + 1)
        lo_all = 2 - 2 ** (N + 1)
        hi_all = -lo_all
        window_lo = lo_all - WINDOW_MARGIN - smax
        window_hi = hi_all + WINDOW_MARGIN + smax
        lam_a = _geometric_tails(m_a, lo_all, window_lo, window_hi, GEOM_B)
        # far tails cancel below float resolution in the prefix sums; the true
        # values there are strictly positive but smaller than the noise floor
        np.clip(lam_a, 0.0, None, out=lam_a)
        lam_a = lam_a / lam_a.sum()
        h_terms = []
        q = lam_a[smax:len(lam_a) - smax]
        for skey, wgt in sorted(lam.atoms.items(), key=lambda kv: int(kv[0])):
            sft = int(skey)
            if wgt == 0.0:
                continue
            p = lam_a[smax - sft:len(lam_a) - smax - sft]
            # a tail position just above the floor in p but not in q would
            # count as escaped mass, which is infinite for KL
            keep = (p > ZERO_MASS) & (q > ZERO_MASS)
            h_terms.append(wgt * divergence_arrays(p[keep], q[keep], f))
        results.append({"a": a, "h": math.fsum(h_terms), "truncation_level": N,
                        "tail_mass": tail_mass})
    return {"curve": results}
