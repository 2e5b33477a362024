import random

import pytest
from hypothesis import given, strategies as st

from diffgraph.simon import (
    CipherParams,
    ParameterError,
    WordState,
    all_variants,
    decrypt,
    encrypt,
    feistel_round,
    feistel_round_inverse,
    rotl,
    round_fn,
)


class TestCipherParams:
    @pytest.mark.parametrize("n,m", [(16, 4), (24, 3), (24, 4), (32, 3), (32, 4),
                                     (48, 2), (48, 3), (64, 2), (64, 3), (64, 4)])
    def test_legal_variants(self, n, m):
        p = CipherParams(n, m)
        assert p.block_size == 2 * n
        assert p.key_size == m * n

    @pytest.mark.parametrize("n,m", [(16, 2), (16, 3), (24, 2), (32, 2),
                                     (48, 4), (8, 2), (20, 3)])
    def test_illegal_variants(self, n, m):
        with pytest.raises(ParameterError):
            CipherParams(n, m)

    @pytest.mark.parametrize("params", all_variants(),
                             ids=lambda p: f"simon{p.block_size}_{p.key_size}")
    def test_mask_is_the_word(self, params):
        assert params.mask == 2**params.word_size - 1

    def test_all_variants_count(self):
        assert len(all_variants()) == 10


class TestRotl:
    def test_zero_word(self):
        assert rotl(0, 5, 16) == 0

    def test_single_bit(self):
        assert rotl(1, 1, 16) == 2

    def test_wraparound(self):
        # recompute by bit enumeration: bit 15 moves to bit (15+1) mod 16
        x = 0x8000
        expected = sum(1 << ((i + 1) % 16) for i in range(16) if (x >> i) & 1)
        assert expected == 1
        assert rotl(x, 1, 16) == expected

    def test_rotation_out_of_range(self):
        with pytest.raises(ParameterError):
            rotl(1, 16, 16)
        with pytest.raises(ParameterError):
            rotl(1, -1, 16)

    def test_word_too_wide(self):
        with pytest.raises(ParameterError):
            rotl(1 << 16, 1, 16)

    @given(st.integers(0, 2**16 - 1), st.integers(1, 15))
    def test_inverse_rotation(self, x, i):
        assert rotl(rotl(x, i, 16), 16 - i, 16) == x

    @given(st.integers(0, 2**24 - 1), st.integers(0, 23))
    def test_output_in_range(self, x, i):
        assert 0 <= rotl(x, i, 24) < 2**24


class TestRoundFn:
    def test_zero(self):
        assert round_fn(0, 16) == 0

    def test_one(self):
        # rotl1=2, rotl8=0x0100, AND=0, rotl2=4 (verified by bit enumeration)
        assert (rotl(1, 1, 16) & rotl(1, 8, 16)) == 0
        assert round_fn(1, 16) == 4

    def test_all_ones(self):
        assert round_fn(0xFFFF, 16) == 0

    @given(st.integers(0, 2**32 - 1))
    def test_masked(self, x):
        assert 0 <= round_fn(x, 32) < 2**32


class TestFeistel:
    def test_zero_fixed_point(self):
        assert feistel_round(WordState(0, 0), 0, 16) == WordState(0, 0)

    def test_known_round(self):
        assert feistel_round(WordState(1, 0), 0, 16) == WordState(4, 1)

    @pytest.mark.parametrize("params", all_variants(),
                             ids=lambda p: f"simon{p.block_size}_{p.key_size}")
    def test_roundtrip_all_variants(self, params):
        n = params.word_size
        rng = random.Random(f"roundtrip:{n}:{params.key_words}")
        for _ in range(10_000):
            s = WordState(rng.getrandbits(n), rng.getrandbits(n))
            k = rng.getrandbits(n)
            assert feistel_round_inverse(feistel_round(s, k, n), k, n) == s

    def test_multi_round_fold(self):
        rng = random.Random("fold")
        keys = [rng.getrandbits(32) for _ in range(12)]
        s = WordState(rng.getrandbits(32), rng.getrandbits(32))
        assert decrypt(encrypt(s, keys, 32), keys, 32) == s

    def test_outputs_masked(self):
        rng = random.Random("mask")
        for _ in range(100):
            s = WordState(rng.getrandbits(16), rng.getrandbits(16))
            out = feistel_round(s, rng.getrandbits(16), 16)
            assert 0 <= out.left < 2**16 and 0 <= out.right < 2**16
