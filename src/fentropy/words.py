"""Free-group word kernel: cancellation-free letter sequences.

Letters are nonzero integers in {-d,...,-1,1,...,d}; the inverse of letter j
is -j. Words are stored reduced (no adjacent j,-j pair).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadLetter, RankMismatch

# numpy is imported inside each function that uses it, so reduction and word arithmetic
# never load it; TYPE_CHECKING is spelled out so that typing stays unloaded too
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


def _check_letters(letters, d: int):
    for x in letters:
        if x == 0 or abs(x) > d:
            raise BadLetter(f"letter {x} out of range for rank {d}")


def reduce_letters(letters, d: int) -> tuple:
    """Free reduction by stack cancellation; idempotent."""
    _check_letters(letters, d)
    stack: list = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


@dataclass(frozen=True)
class ReducedWord:
    letters: tuple
    d: int

    def __post_init__(self):
        _check_letters(self.letters, self.d)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise BadLetter(f"word {self.letters} is not reduced")

    def __len__(self):
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters


def word(letters, d: int) -> ReducedWord:
    """Reduce an arbitrary letter sequence into a ReducedWord."""
    return ReducedWord(reduce_letters(letters, d), d)


def identity(d: int) -> ReducedWord:
    return ReducedWord((), d)


def multiply(g: ReducedWord, h: ReducedWord) -> ReducedWord:
    if g.d != h.d:
        raise RankMismatch(f"ranks differ: {g.d} vs {h.d}")
    return ReducedWord(reduce_letters(g.letters + h.letters, g.d), g.d)


def inverse(g: ReducedWord) -> ReducedWord:
    return ReducedWord(tuple(-x for x in reversed(g.letters)), g.d)


def letter_order(d: int) -> list:
    """Canonical letter order -d,...,-1,1,...,d used for deterministic iteration."""
    return list(range(-d, 0)) + list(range(1, d + 1))


def enumerate_words(d: int, depth: int) -> list:
    """All reduced words of exact length `depth`, in lexicographic order."""
    if depth == 0:
        return [()]
    order = letter_order(d)
    out = [(x,) for x in order]
    for _ in range(depth - 1):
        nxt = []
        for w in out:
            last = w[-1]
            for x in order:
                if x != -last:
                    nxt.append(w + (x,))
        out = nxt
    return out


def letter_positions(letters: np.ndarray, d: int) -> np.ndarray:
    """Position of each letter in letter_order(d); the inverse of position p is 2d-1-p."""
    import numpy as np

    return np.where(letters < 0, letters + d, letters + d - 1)


def word_array(d: int, depth: int) -> np.ndarray:
    """The reduced words of length depth >= 1 as rows of an int array, in
    enumerate_words order."""
    import numpy as np

    order = np.array(letter_order(d))
    # allowed[p] lists, in order, the letters that may follow the letter at position p
    allowed = np.array([[x for x in order if x != -y] for y in order])
    words = order[:, None]
    for _ in range(depth - 1):
        nxt = allowed[letter_positions(words[:, -1], d)].reshape(-1, 1)
        words = np.hstack([np.repeat(words, 2 * d - 1, axis=0), nxt])
    return words


def word_index(words: np.ndarray, d: int) -> np.ndarray:
    """Row positions of reduced words (rows of a letter array) in enumerate_words order.

    The index is mixed-radix: the first letter's position among the 2d
    letters, then each later letter's rank among the 2d-1 letters allowed
    after the one before it.
    """
    import numpy as np

    pos = letter_positions(words, d)
    index = pos[:, 0].astype(np.int64)
    for k in range(1, words.shape[1]):
        # the inverse of the previous letter is skipped, so later letters move down one rank
        rank = pos[:, k] - (pos[:, k] > 2 * d - 1 - pos[:, k - 1])
        index = index * (2 * d - 1) + rank
    return index


def encode_word(letters) -> str:
    """Comma-joined signed letters; empty string is the identity."""
    return ",".join(str(x) for x in letters)


def decode_word(s: str, d: int) -> tuple:
    if s == "":
        return ()
    try:
        letters = tuple(int(tok) for tok in s.split(","))
    except ValueError as exc:
        raise BadLetter(f"cannot parse word {s!r}") from exc
    _check_letters(letters, d)
    return letters
