"""SIMON cipher core: variant parameters, rotations and the Feistel round.

The key schedule is deliberately absent; rounds take explicit round keys
and multi-round encryption folds over a caller-supplied key list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import ParameterError

# word size -> allowed numbers of key words
VALID_KEY_WORDS = {
    16: (4,),
    24: (3, 4),
    32: (3, 4),
    48: (2, 3),
    64: (2, 3, 4),
}


@dataclass(frozen=True)
class CipherParams:
    """One SIMON variant, e.g. CipherParams(16, 4) is SIMON32/64."""

    word_size: int
    key_words: int

    def __post_init__(self):
        allowed = VALID_KEY_WORDS.get(self.word_size)
        if allowed is None:
            raise ParameterError(f"unsupported word size {self.word_size}")
        if self.key_words not in allowed:
            raise ParameterError(
                f"word size {self.word_size} requires key words in {allowed}, "
                f"got {self.key_words}"
            )

    @property
    def block_size(self) -> int:
        return 2 * self.word_size

    @property
    def key_size(self) -> int:
        return self.key_words * self.word_size

    @property
    def mask(self) -> int:
        return (1 << self.word_size) - 1


def all_variants() -> Tuple[CipherParams, ...]:
    """All ten legal (word_size, key_words) combinations."""
    return tuple(
        CipherParams(n, m) for n in sorted(VALID_KEY_WORDS) for m in VALID_KEY_WORDS[n]
    )


@dataclass(frozen=True)
class WordState:
    """A 2n-bit cipher state as a (left, right) pair of n-bit words."""

    left: int
    right: int


def _check_word(x: int, n: int, name: str = "word") -> None:
    if not 0 <= x < (1 << n):
        raise ParameterError(f"{name} {x:#x} does not fit in {n} bits")


def rotl(x: int, i: int, n: int) -> int:
    """Left circular shift of the n-bit word x by i bits."""
    if not 0 <= i < n:
        raise ParameterError(f"rotation {i} out of range for word size {n}")
    _check_word(x, n)
    return ((x << i) | (x >> (n - i))) & ((1 << n) - 1) if i else x


def round_fn(x: int, n: int) -> int:
    """SIMON round function f(x) = (x <<< 1) & (x <<< 8) ^ (x <<< 2)."""
    _check_word(x, n)
    return (rotl(x, 1, n) & rotl(x, 8, n)) ^ rotl(x, 2, n)


def feistel_round(state: WordState, round_key: int, n: int) -> WordState:
    """One forward Feistel round with an explicit round key."""
    _check_word(round_key, n, "round key")
    _check_word(state.left, n, "left word")
    _check_word(state.right, n, "right word")
    return WordState(state.right ^ round_fn(state.left, n) ^ round_key, state.left)


def feistel_round_inverse(state: WordState, round_key: int, n: int) -> WordState:
    """Exact inverse of feistel_round."""
    _check_word(round_key, n, "round key")
    _check_word(state.left, n, "left word")
    _check_word(state.right, n, "right word")
    return WordState(state.right, state.left ^ round_fn(state.right, n) ^ round_key)


def encrypt(state: WordState, round_keys: Sequence[int], n: int) -> WordState:
    """Fold feistel_round over an explicit round-key list."""
    for k in round_keys:
        state = feistel_round(state, k, n)
    return state


def decrypt(state: WordState, round_keys: Sequence[int], n: int) -> WordState:
    """Inverse of encrypt for the same round-key list."""
    for k in reversed(round_keys):
        state = feistel_round_inverse(state, k, n)
    return state
