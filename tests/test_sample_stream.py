"""The quota sampler draws from the Mersenne Twister's words as
`Random.sample` does, which rests on CPython's sample and getrandbits:
these tests also run on each other supported Python version."""

import random

import numpy as np
import pytest

from diffgraph.errors import ParameterError
from diffgraph.pddt import (PddtConfig, SampleSpec, _sample_positions, build_pddt, sample_pddt,
                            stable_order)


def word_by_word(rng: random.Random):
    """rng's 32-bit words one getrandbits(32) call at a time, so that rng's
    state is just past the last word taken."""
    return iter(lambda: rng.getrandbits(32), None)


def check_positions(seed: str, classes) -> None:
    """_sample_positions of the (n, k) classes takes the sets that one
    Random.sample(range(n), k) per class takes, and leaves the stream where
    those calls leave it."""
    rng, words_rng = random.Random(seed), random.Random(seed)
    sizes, takes = [n for n, _ in classes], [k for _, k in classes]
    picks = _sample_positions(sizes, takes, word_by_word(words_rng))
    assert len(picks) == sum(takes)
    at = 0
    for n, k in classes:
        got = picks[at:at + k]
        at += k
        assert len(set(got)) == k and all(0 <= j < n for j in got)
        assert set(got) == set(rng.sample(range(n), k)), (n, k)
    assert words_rng.getstate() == rng.getstate()


class TestSamplePositions:
    # 21 and 22 are the two sides of the pool-or-set choice for k <= 5, and
    # 85 and 86 for k = 6, whose set table adds 4^3 = 64
    @pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 21, 22, 85, 86, 2 ** 31 - 1)
                                     for k in (0, 1, 5, 6) if k <= n])
    @pytest.mark.parametrize("seed", ["pddt-sample:0", "pddt-sample:7"])
    def test_each_regime_equals_random_sample(self, n, k, seed):
        check_positions(seed, [(n, k)] * 20)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_classes_equal_random_sample(self, seed):
        picker = random.Random(f"classes:{seed}")
        classes = []
        for _ in range(300):
            n = picker.choice([picker.randint(1, 100), picker.randint(1, 5000),
                               picker.randrange(1, 2 ** 31)])
            classes.append((n, min(n, picker.choice([0, 1, 2, 5, 6, picker.randint(0, 400)]))))
        check_positions(f"pddt-sample:{seed}", classes)


def parent_sample(table, spec):
    """The rows that one rng.sample per output class keeps, in table order:
    the sampler as it drew before it read the generator's words."""
    rng = random.Random(f"pddt-sample:{spec.seed}")
    order = stable_order(table.c)
    by_output = table.c[order]
    starts = np.flatnonzero(np.r_[True, by_output[1:] != by_output[:-1]])
    sizes = np.diff(np.r_[starts, len(order)])
    takes = np.minimum(np.maximum(int(spec.quota_rule), np.round(spec.fraction * sizes)), sizes)
    takes = takes.astype(np.int64)
    picks = []
    for size, take in zip(sizes.tolist(), takes.tolist()):
        picks.extend(rng.sample(range(size), take))
    return np.sort(order[np.repeat(starts, takes) + np.array(picks, dtype=np.int64)])


@pytest.fixture(scope="module", params=[4, 8, 12])
def table(request):
    return build_pddt(PddtConfig(request.param, 0.1))


@pytest.mark.parametrize("fraction", [0.001, 0.03, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("seed", [0, 7, 123456])
@pytest.mark.parametrize("quota", [True, False])
def test_sample_equals_one_random_sample_per_class(table, fraction, seed, quota):
    spec = SampleSpec(fraction, quota, seed)
    idx = parent_sample(table, spec)
    if not len(idx):
        with pytest.raises(ParameterError, match="keeps none"):
            sample_pddt(table, spec)
        return
    sample = sample_pddt(table, spec)
    for col in ("a", "b", "c", "hw"):
        assert np.array_equal(getattr(sample, col), getattr(table, col)[idx]), col
