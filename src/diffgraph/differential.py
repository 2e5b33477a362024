"""XOR differentials of addition modulo 2^n: validity, weight, probability.

The validity condition and weight formula operate on n-bit words; the
`shift` argument selects how the <<1 in the validity condition is read
(plain left shift, the conventional reading, or circular rotation).  The
default was adjudicated against the brute-force oracle over every n=4
triple: only the plain shift reproduces the oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .simon import _check_word, rotl

SHIFT_LOGICAL = "logical"
SHIFT_CIRCULAR = "circular"

ORACLE_MAX_BITS = 10


class InvalidDifferentialError(ValueError):
    """Weight/probability requested for a triple with zero probability."""


def _shl(x: int, n: int, shift: str) -> int:
    if shift == SHIFT_LOGICAL:
        return (x << 1) & ((1 << n) - 1)
    if shift == SHIFT_CIRCULAR:
        return rotl(x, 1, n)
    raise ParameterError(f"unknown shift semantics {shift!r}")


def eq_mask(p: int, q: int, r: int, n: int) -> int:
    """Bit i of the result is 1 exactly where p, q and r agree at bit i."""
    for x, name in ((p, "p"), (q, "q"), (r, "r")):
        _check_word(x, n, name)
    return ~(p ^ q) & ~(p ^ r) & ((1 << n) - 1)


def is_valid_differential(a: int, b: int, c: int, n: int, shift: str = SHIFT_LOGICAL) -> bool:
    """True iff the differential (a, b -> c) of n-bit words has nonzero probability."""
    if n < 1:
        raise ParameterError(f"word size {n} below 1")
    for x, name in ((a, "a"), (b, "b"), (c, "c")):
        _check_word(x, n, name)
    e = eq_mask(_shl(a, n, shift), _shl(b, n, shift), _shl(c, n, shift), n)
    return e & (a ^ b ^ c ^ _shl(b, n, shift)) == 0


def differential_weight(a: int, b: int, c: int, n: int, shift: str = SHIFT_LOGICAL) -> int:
    """Popcount of the disagreement mask of (a, b, c) excluding bit n-1.

    Defined only for valid differentials; the probability is 2^-weight.
    """
    if not is_valid_differential(a, b, c, n, shift):
        raise InvalidDifferentialError(
            f"({a:#x}, {b:#x} -> {c:#x}) has probability 0 at n={n}"
        )
    disagree = ~eq_mask(a, b, c, n) & ((1 << (n - 1)) - 1)
    return disagree.bit_count()


def differential_probability(a: int, b: int, c: int, n: int, shift: str = SHIFT_LOGICAL) -> float:
    """Exact dyadic probability 2^-weight of a valid differential."""
    return 2.0 ** -differential_weight(a, b, c, n, shift)


def dyadic_str(hw: int) -> str:
    """Exact decimal expansion of 2^-hw (e.g. 3 -> "0.125")."""
    if hw < 0:
        raise ParameterError(f"negative weight {hw}")
    if hw == 0:
        return "1"
    return "0." + str(5**hw).zfill(hw)


def brute_force_dp(a: int, b: int, c: int, n: int) -> float:
    """Exhaustive oracle: fraction of (x, y) pairs realising (a, b -> c).

    Counts pairs with ((x^a) + (y^b)) ^ (x + y) == c mod 2^n.  Cost is
    2^(2n), so word sizes above ORACLE_MAX_BITS are refused.
    """
    if n > ORACLE_MAX_BITS:
        raise ParameterError(f"oracle cost 2^{2 * n} refused; word size limit is {ORACLE_MAX_BITS}")
    mask = (1 << n) - 1
    for d, name in ((a, "a"), (b, "b"), (c, "c")):
        _check_word(d, n, name)
    x = np.arange(1 << n, dtype=np.uint32)[:, None]
    y = np.arange(1 << n, dtype=np.uint32)[None, :]
    out = (((x ^ a) + (y ^ b)) ^ (x + y)) & mask
    return int(np.count_nonzero(out == c)) / float(1 << (2 * n))
