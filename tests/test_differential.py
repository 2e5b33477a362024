import itertools
import random

import pytest
from hypothesis import given, strategies as st

from diffgraph.differential import (
    InvalidDifferentialError,
    brute_force_dp,
    differential_probability,
    differential_weight,
    dyadic_str,
    eq_mask,
    is_valid_differential,
)
from diffgraph.simon import ParameterError


class TestEqMask:
    def test_all_zero(self):
        assert eq_mask(0, 0, 0, 4) == 0b1111

    def test_bit_zero_disagrees(self):
        assert eq_mask(1, 0, 0, 4) == 0b1110

    def test_identical_inputs(self):
        assert eq_mask(0xF, 0xF, 0xF, 4) == 0b1111

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_per_bit_enumeration(self, p, q, r):
        expected = sum(
            1 << i for i in range(8)
            if ((p >> i) & 1) == ((q >> i) & 1) == ((r >> i) & 1)
        )
        assert eq_mask(p, q, r, 8) == expected


    @pytest.mark.parametrize("words, fault", [((16, 0, 0), "p 0x10"), ((0, -1, 0), "q -0x1"),
                                              ((0, 0, 16), "r 0x10")],
                             ids=["p too wide", "negative q", "r too wide"])
    def test_word_outside_n_bits_rejected(self, words, fault):
        with pytest.raises(ParameterError, match=f"^{fault} does not fit in 4 bits$"):
            eq_mask(*words, 4)


class TestValidity:
    def test_zero_differential(self):
        assert is_valid_differential(0, 0, 0, 4)

    def test_known_invalid(self):
        assert not is_valid_differential(1, 0, 0, 4)
        assert brute_force_dp(1, 0, 0, 4) == 0.0

    def test_known_valid(self):
        assert is_valid_differential(1, 1, 0, 4)
        assert brute_force_dp(1, 1, 0, 4) == 128 / 256


class TestWeight:
    def test_zero(self):
        assert differential_weight(0, 0, 0, 4) == 0
        assert differential_probability(0, 0, 0, 4) == 1.0

    def test_one_bit(self):
        assert differential_weight(1, 1, 0, 4) == 1
        assert differential_probability(1, 1, 0, 4) == 0.5

    def test_two_bits(self):
        # oracle: 64 of 256 pairs satisfy (3, 3 -> 0)
        assert brute_force_dp(3, 3, 0, 4) == 0.25
        assert differential_weight(3, 3, 0, 4) == 2

    def test_invalid_raises(self):
        with pytest.raises(InvalidDifferentialError):
            differential_weight(1, 0, 0, 4)

    def test_bounds_n4(self):
        for a, b, c in itertools.product(range(16), repeat=3):
            if is_valid_differential(a, b, c, 4):
                assert 0 <= differential_weight(a, b, c, 4) <= 3


@pytest.mark.parametrize("function", [is_valid_differential, differential_weight,
                                      differential_probability])
class TestWordChecks:
    @pytest.mark.parametrize("words, fault", [((16, 0, 0), "a 0x10"), ((0, -1, 0), "b -0x1"),
                                              ((0, 0, 16), "c 0x10")],
                             ids=["a too wide", "negative b", "c too wide"])
    def test_word_outside_n_bits_rejected(self, function, words, fault):
        with pytest.raises(ParameterError, match=f"^{fault} does not fit in 4 bits$"):
            function(*words, 4)

    @pytest.mark.parametrize("n", [0, -1])
    def test_word_size_below_one_rejected(self, function, n):
        with pytest.raises(ParameterError, match=f"^word size {n} below 1$"):
            function(1, 1, 0, n)


class TestOracle:
    def test_identity(self):
        assert brute_force_dp(0, 0, 0, 4) == 1.0
        assert brute_force_dp(0, 0, 0, 8) == 1.0

    def test_cost_guard(self):
        with pytest.raises(ParameterError):
            brute_force_dp(0, 0, 0, 11)

    @pytest.mark.parametrize("words, fault", [((16, 0, 0), "a 0x10"), ((0, -1, 0), "b -0x1"),
                                              ((0, 0, 16), "c 0x10")],
                             ids=["a too wide", "negative b", "c too wide"])
    def test_word_outside_n_bits_rejected(self, words, fault):
        with pytest.raises(ParameterError, match=f"^{fault} does not fit in 4 bits$"):
            brute_force_dp(*words, 4)

    def test_exhaustive_equivalence_n4(self):
        for a, b, c in itertools.product(range(16), repeat=3):
            dp = brute_force_dp(a, b, c, 4)
            assert is_valid_differential(a, b, c, 4) == (dp > 0)
            if dp > 0:
                assert 2.0 ** -differential_weight(a, b, c, 4) == dp

    def test_seeded_equivalence_n8(self):
        rng = random.Random("oracle-n8")
        for _ in range(2_000):
            a, b, c = (rng.getrandbits(8) for _ in range(3))
            dp = brute_force_dp(a, b, c, 8)
            assert is_valid_differential(a, b, c, 8) == (dp > 0)
            if dp > 0:
                assert 2.0 ** -differential_weight(a, b, c, 8) == dp


class TestShiftAdjudication:
    def test_circular_shift_contradicts_oracle(self):
        # the circular reading misclassifies at least one n=4 triple,
        # so the plain-shift default is the one the oracle endorses
        mismatches = sum(
            1 for a, b, c in itertools.product(range(16), repeat=3)
            if is_valid_differential(a, b, c, 4, shift="circular")
            != (brute_force_dp(a, b, c, 4) > 0)
        )
        assert mismatches > 0

    def test_unknown_shift_rejected(self):
        with pytest.raises(ParameterError):
            is_valid_differential(0, 0, 0, 4, shift="bogus")


class TestSymmetry:
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_swap_inputs(self, a, b, c):
        assert is_valid_differential(a, b, c, 8) == is_valid_differential(b, a, c, 8)
        if is_valid_differential(a, b, c, 8):
            assert differential_weight(a, b, c, 8) == differential_weight(b, a, c, 8)


class TestDyadicStr:
    @pytest.mark.parametrize("hw,text", [(0, "1"), (1, "0.5"), (2, "0.25"),
                                         (3, "0.125"), (4, "0.0625"),
                                         (7, "0.0078125")])
    def test_exact_expansions(self, hw, text):
        assert dyadic_str(hw) == text
        assert float(text) == 2.0**-hw

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            dyadic_str(-1)
