"""Two properties of numpy's Generator that the tick relies on for exact
reproduction. If a numpy release changes either, these fail by name
instead of only as a golden-trajectory mismatch.

- ``rng.integers(1)`` returns 0 and consumes nothing, so ``select_target``
  and the fusion phase take a lone Unknown or a lone partner without a
  draw.
- ``rng.shuffle(list)`` makes the same draws, and gives the same order, as
  indexing the list through ``rng.permutation(len(list))``, so the fusion
  phase shuffles its broadcaster list in place.
"""

import numpy as np
import pytest

LENGTHS = [*range(71), 127, 200, 257, 1000]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
@pytest.mark.parametrize("odd_draws", [0, 1])
def test_integers_of_one_consumes_nothing(seed, odd_draws):
    rng = np.random.default_rng(seed)
    for _ in range(odd_draws):
        rng.integers(5)  # a 32-bit draw leaves half a 64-bit word buffered
    state = rng.bit_generator.state
    assert state["has_uint32"] == odd_draws
    for _ in range(3):
        value = rng.integers(1)
        assert value == 0
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("odd_draws", [0, 1])
def test_list_shuffle_matches_index_permutation(length, odd_draws):
    rng, ref_rng = np.random.default_rng(length), np.random.default_rng(length)
    for generator in (rng, ref_rng):
        for _ in range(odd_draws):
            generator.integers(5)
    items = [3 * k + 1 for k in range(length)]
    shuffled = items.copy()
    rng.shuffle(shuffled)
    assert shuffled == [items[k] for k in ref_rng.permutation(length).tolist()]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
