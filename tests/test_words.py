import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fentropy.errors import BadLetter, RankMismatch
from fentropy.words import (
    ReducedWord,
    decode_word,
    encode_word,
    enumerate_words,
    identity,
    inverse,
    letter_order,
    multiply,
    reduce_letters,
    word,
    word_array,
    word_index,
)

letters_f2 = st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=12)


class TestReduce:
    def test_inverse_pair(self):
        assert reduce_letters([1, -1], 2) == ()

    def test_inner_cancellation(self):
        assert reduce_letters([1, 2, -2, 1], 2) == (1, 1)

    def test_cascading_cancellation(self):
        assert reduce_letters([2, -1, 1, -2, 2], 2) == (2,)

    def test_rejects_bad_letters(self):
        with pytest.raises(BadLetter):
            reduce_letters([0], 2)
        with pytest.raises(BadLetter):
            reduce_letters([3], 2)

    @settings(max_examples=200, deadline=None)
    @given(letters_f2)
    def test_idempotent_and_parity(self, ls):
        r = reduce_letters(ls, 2)
        assert reduce_letters(r, 2) == r
        assert (len(ls) - len(r)) % 2 == 0

    def test_unreduced_word_rejected(self):
        with pytest.raises(BadLetter):
            ReducedWord((1, -1), 2)


class TestMultiply:
    def test_cancel_to_identity(self):
        assert multiply(word([1], 2), word([-1], 2)).is_identity

    def test_single_cancellation(self):
        assert multiply(word([1, 2], 2), word([-2, 1], 2)).letters == (1, 1)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            multiply(word([1], 2), word([1], 3))

    def test_inverse_involution_and_identity(self):
        g = word([1, 2, -1], 2)
        assert inverse(inverse(g)) == g
        assert multiply(g, inverse(g)) == identity(2)

    @settings(max_examples=200, deadline=None)
    @given(letters_f2, letters_f2, letters_f2)
    def test_associativity(self, a, b, c):
        g, h, k = word(a, 2), word(b, 2), word(c, 2)
        assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))

    @settings(max_examples=200, deadline=None)
    @given(letters_f2, letters_f2)
    def test_length_bounds(self, a, b):
        g, h = word(a, 2), word(b, 2)
        n = len(multiply(g, h))
        assert abs(len(g) - len(h)) <= n <= len(g) + len(h)
        assert (n - len(g) - len(h)) % 2 == 0


class TestEnumeration:
    def test_letter_order(self):
        assert letter_order(2) == [-2, -1, 1, 2]
        assert letter_order(3) == [-3, -2, -1, 1, 2, 3]

    def test_counts(self):
        # 2d * (2d-1)^(n-1) reduced words of length n
        for d in (2, 3):
            for n in (1, 2, 3):
                ws = enumerate_words(d, n)
                assert len(ws) == 2 * d * (2 * d - 1) ** (n - 1)
                assert len(set(ws)) == len(ws)
                assert ws == sorted(ws)

    def test_encode_decode(self):
        for w in enumerate_words(2, 3):
            assert decode_word(encode_word(w), 2) == w
        assert encode_word(()) == ""
        assert decode_word("", 2) == ()


class TestWordArray:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_rows_and_index_match_enumerate_words(self, d, depth):
        words = enumerate_words(d, depth)
        arr = word_array(d, depth)
        assert arr.tolist() == [list(w) for w in words]
        perm = np.random.default_rng(10 * d + depth).permutation(len(words))
        assert word_index(arr[perm], d).tolist() == perm.tolist()
