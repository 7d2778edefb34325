"""``PCG64Stream`` against its oracle, ``np.random.default_rng``: for every
call, the same values, dtype and shape, and the same bit-generator state
afterwards (the LCG state, its increment, and the kept 32-bit half), so a
stream that draws the right values from the wrong words fails too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impforecast.seeding import PCG64Stream

# Seeds of one to seven 32-bit words, around each word boundary; from 2**128
# on, SeedSequence mixes the words beyond its pool of four in a loop of its own.
SEEDS = [*range(300), 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1, 2**64, 2**96 + 7,
         2**128 - 1, 2**200 + 3, 10**40]
WIDE_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**200 + 3, 10**40]


def assert_same_draws(seed, calls):
    """Make each ``(method, args)`` call on a stream and on
    ``default_rng(seed)``; both must return the same array and end in the
    same state, call after call."""
    stream, rng = PCG64Stream(seed), np.random.default_rng(seed)
    assert stream.state == rng.bit_generator.state
    for method, args in calls:
        ours, theirs = getattr(stream, method)(*args), getattr(rng, method)(*args)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), (method, args)
        assert ours.tobytes() == theirs.tobytes(), (method, args)
        assert stream.state == rng.bit_generator.state, (method, args)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_study_draws_numpy_values(seed):
    """The three calls a study makes, in the forms it makes them: a holdout
    split's permutation, a network's two weight blocks (G2, 16 hidden
    units) and a forest's bootstrap samples (100 trees of 56 rows)."""
    assert_same_draws(seed, [
        ("permutation", (80,)),
        ("uniform", (-1 / np.sqrt(13), 1 / np.sqrt(13), (13, 16))),
        ("uniform", (-0.25, 0.25, 16)),
        ("integers", (0, 56, (100, 56))),
    ])


# 2**31 + 11 rejects almost half its draws. At 2**31 and 3 * 2**30, a half and
# a quarter of the draws fall exactly on the rejection threshold and are kept.
@pytest.mark.parametrize("span", [1, 2, 3, 7, 56, 1000, 2**31, 3 * 2**30, 2**31 + 11, 2**32 - 1])
@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_integers_of_every_span(seed, span):
    assert_same_draws(seed, [("integers", (0, span, (100, 56))), ("integers", (0, span, 7))])


def test_integers_with_an_offset():
    assert_same_draws(5, [("integers", (10, 66, 9)), ("integers", (-3, 4, (2, 5)))])


@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_the_kept_half_carries_over(seed):
    """Odd counts of 32-bit draws, back to back: each call starts on the high
    half that the last one kept, or on a new word. A span of 1 draws
    nothing, 64-bit draws leave the kept half alone, and a permutation of 65
    masks its draws to 127 and redraws about half of them."""
    assert_same_draws(seed, [
        ("integers", (0, 7, 5)),
        ("integers", (0, 1, 4)),
        ("integers", (0, 7, (3, 3))),
        ("uniform", (0.0, 1.0, 3)),
        ("permutation", (65,)),
        ("integers", (0, 56, 1)),
        ("permutation", (2,)),
        ("integers", (0, 3, 1)),
        ("permutation", (1,)),
        ("permutation", (0,)),
        ("integers", (0, 2**31 + 11, (5, 7))),
        ("permutation", (80,)),
    ])


@pytest.mark.parametrize("low, high", [(13.0, 16.0), (-5.5, -0.25), (-1e-3, 7.0), (-2.0, 0.0),
                                       (3.0, 3.0), (-1e300, 1e300)])
@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_uniform_ranges(seed, low, high):
    assert_same_draws(seed, [("uniform", (low, high, (13, 16))), ("uniform", (low, high, 16))])


SIZES = st.one_of(st.integers(0, 40), st.tuples(st.integers(0, 9), st.integers(0, 9)))
BOUNDS = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2).map(sorted)  # numpy refuses high < low
CALLS = st.one_of(
    st.tuples(st.just("permutation"), st.tuples(st.integers(0, 130))),
    st.tuples(st.just("uniform"), st.builds(lambda bounds, size: (*bounds, size), BOUNDS, SIZES)),
    st.tuples(st.just("integers"), st.tuples(
        st.just(0), st.one_of(st.integers(1, 100), st.integers(1, 2**32 - 1)), SIZES,
    )),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**200 - 1), calls=st.lists(CALLS, max_size=6))
def test_any_seed_and_any_calls(seed, calls):
    assert_same_draws(seed, calls)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        PCG64Stream(-1)


@pytest.mark.parametrize("low, high", [(0, 0), (5, 2), (0, 2**32), (-(2**32), 1)])
def test_a_span_outside_32_bits_is_refused(low, high):
    with pytest.raises(ValueError, match="high - low must be in"):
        PCG64Stream(0).integers(low, high, 3)
