"""Properties of numpy's Generator that the tick relies on for exact
reproduction. If a numpy release changes one, these fail by name instead
of only as a golden-trajectory mismatch.

- ``rng.integers(1)`` returns 0 and consumes nothing, so ``select_target``
  and the fusion phase take a lone Unknown or a lone partner without a
  draw.
- ``rng.shuffle(list)`` makes the same draws, and gives the same order, as
  indexing the list through ``rng.permutation(len(list))``, so the fusion
  phase shuffles its broadcaster list in place.
- ``integers(n)`` for an int n in [2, 2**32 - 1] is 32-bit Lemire rejection
  over the bit generator's ``next_uint32``, which ``engine.LemireGenerator``
  reproduces: same values, same state after every call, so ``random`` and
  ``shuffle`` may come between its draws. Every other call is numpy's.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexswarm import engine
from hexswarm.engine import LemireGenerator, SimConfig, initialize, run

LENGTHS = [*range(71), 127, 200, 257, 1000]
# Small bounds, powers of two and their neighbours (2**31 + 1 rejects about
# half its draws), the simulator's own bounds (126 cells, 270900 cells at
# the hex_disc_radius cap) and the largest bound of the fast path.
BOUNDS = sorted(
    {2, 3, 126, 999, 270900, 2**32 - 1}
    | {2**k + d for k in (2, 3, 7, 8, 16, 24, 31) for d in (-1, 0, 1)}
)


def pair(seed, odd_draws):
    """A LemireGenerator and a plain Generator in the same state, after
    ``odd_draws`` 32-bit draws that leave half a 64-bit word buffered."""
    fast, plain = LemireGenerator(np.random.PCG64(seed)), np.random.default_rng(seed)
    for generator in (fast, plain):
        for _ in range(odd_draws):
            generator.integers(5)
    assert fast.bit_generator.state == plain.bit_generator.state
    assert plain.bit_generator.state["has_uint32"] == odd_draws
    return fast, plain


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
@pytest.mark.parametrize("odd_draws", [0, 1])
def test_integers_of_one_consumes_nothing(seed, odd_draws):
    for rng in pair(seed, odd_draws):
        state = rng.bit_generator.state
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


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("odd_draws", [0, 1])
def test_bounded_draws_match_numpy(bound, odd_draws):
    fast, plain = pair(bound, odd_draws)
    for _ in range(200):
        value = fast.integers(bound)
        assert type(value) is int
        assert value == plain.integers(bound)
        assert fast.bit_generator.state == plain.bit_generator.state


CALLS = st.one_of(
    st.tuples(st.just("integers"), st.one_of(st.integers(1, 300), st.integers(1, 2**32 - 1))),
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("shuffle"), st.integers(0, 40)),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=st.lists(CALLS, max_size=60))
def test_mixed_calls_match_numpy(seed, calls):
    fast, plain = LemireGenerator(np.random.PCG64(seed)), np.random.default_rng(seed)
    for kind, arg in calls:
        if kind == "integers":
            assert fast.integers(arg) == plain.integers(arg)
        elif kind == "random":
            assert fast.random() == plain.random()
        else:
            items, ref_items = list(range(arg)), list(range(arg))
            fast.shuffle(items)
            plain.shuffle(ref_items)
            assert items == ref_items
    assert fast.bit_generator.state == plain.bit_generator.state


# Calls outside the fast path: numpy must answer them, values and errors alike.
OTHER_CALLS = [
    ((0,), {}),
    ((-5,), {}),
    ((2**32,), {}),
    ((2**32 + 1,), {}),
    ((2**64,), {}),
    ((37.0,), {}),
    ((37.5,), {}),
    ((True,), {}),
    ((False,), {}),
    ((np.int64(37),), {}),
    ((np.uint32(2**32 - 1),), {}),
    (("37",), {}),
    ((37,), {"size": 4}),
    ((37,), {"size": None}),
    ((37, None), {}),
    ((5, 41), {}),
    ((5,), {"high": 41}),
    ((), {"low": 37}),
    ((), {"high": 37, "low": 5}),
    ((37,), {"endpoint": True}),
    ((37,), {"dtype": np.int32}),
    ((37,), {"dtype": np.uint8}),
    ((300,), {"dtype": np.uint8}),
    ((37,), {"dtype": np.int64}),
    ((37, 5), {}),
    ((), {}),
]


@pytest.mark.parametrize("args,kwargs", OTHER_CALLS, ids=repr)
@pytest.mark.parametrize("odd_draws", [0, 1])
def test_other_calls_are_numpys(args, kwargs, odd_draws):
    outcomes = []
    for rng in pair(7, odd_draws):
        try:
            value = rng.integers(*args, **kwargs)
        except Exception as exc:  # compared below: numpy's own error
            outcome = (type(exc), str(exc))
        else:
            outcome = (type(value), np.asarray(value).dtype, np.asarray(value).tolist())
        outcomes.append((outcome, rng.bit_generator.state, rng.random()))
    assert outcomes[0] == outcomes[1]


def test_copy_is_an_independent_generator_in_the_same_state():
    fast = LemireGenerator(np.random.PCG64(3))
    fast.integers(99)
    copied = copy.deepcopy(fast)
    assert copied.bit_generator.state == fast.bit_generator.state
    assert copied.integers(99) == fast.integers(99)
    copied.random()
    assert copied.bit_generator.state != fast.bit_generator.state


WHOLE_RUNS = [
    # asocial: it idles once saturated unless a callback is given
    dict(m=5, hex_disc_radius=2, C_f=0.0, epsilon=0.3, seed=7, max_ticks=1237),
    dict(m=10, hex_disc_radius=2, C_f=1.0, epsilon=0.3, topology="lattice:2", seed=3),
    dict(m=12, hex_disc_radius=2, C_r=100.0, C_f=1.0, epsilon=0.1, seed=5),
    dict(seed=42, max_ticks=3000),
]


@pytest.mark.parametrize("overrides", WHOLE_RUNS)
def test_whole_run_matches_plain_generator(overrides, monkeypatch):
    config = SimConfig(**{"sample_every": 10, **overrides})
    assert type(initialize(config).rng) is LemireGenerator

    def traced_run():
        states = []
        record = run(config, on_tick=lambda state, sampled: states.append(state)).to_json()
        return record, states[-1].rng.bit_generator.state, run(config).to_json()

    fast = traced_run()
    monkeypatch.setattr(engine, "LemireGenerator", np.random.Generator)
    assert type(initialize(config).rng) is np.random.Generator
    assert fast == traced_run()
    assert json.loads(fast[0])["summary"]["terminal_tick"] > 0
