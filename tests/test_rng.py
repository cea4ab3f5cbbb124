"""Stream identity and reproducibility of the named RNG substreams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath import rng
from finitebath.bath import realize_bath
from finitebath.model import BathSpec
from finitebath.stats import SamplingPlan, make_sampling_times

PURPOSES = (rng.FREQUENCIES, rng.ENERGIES, rng.PHASES, rng.SAMPLING_TIMES)


def _stream(seed, stream_id):
    """The generator that stream id stream_id of seed is defined to be."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


def test_substream_returns_a_generator():
    assert isinstance(rng.substream(7, rng.PHASES), np.random.Generator)


def test_same_stream_reproduces():
    a = rng.substream(7, rng.SAMPLING_TIMES).random(16)
    b = rng.substream(7, rng.SAMPLING_TIMES).random(16)
    np.testing.assert_array_equal(a, b)


def test_purposes_are_independent_streams():
    draws = {purpose: rng.substream(1, purpose).random(8).tolist() for purpose in PURPOSES}
    values = list(draws.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert values[i] != values[j]


def test_bath_index_shifts_stream_id():
    draw = rng.substream(5, rng.ENERGIES, index=3).random(8)
    np.testing.assert_array_equal(
        draw, _stream(5, rng.ENERGIES + rng.STREAM_STRIDE * 3).random(8))
    assert not np.array_equal(draw, rng.substream(5, rng.ENERGIES).random(8))


def test_negative_identifiers_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        rng.substream(-1, rng.FREQUENCIES)
    with pytest.raises(ValueError, match="non-negative"):
        rng.substream(0, -2)


@given(seed=st.integers(min_value=0, max_value=2**31),
       purpose=st.sampled_from([rng.FREQUENCIES, rng.ENERGIES, rng.PHASES]),
       index=st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_stream_ids_never_collide_across_purposes(seed, purpose, index):
    """(purpose, index) draws from stream id purpose + STREAM_STRIDE * index, and no other pair does."""
    draw = rng.substream(seed, purpose, index).random(4)
    np.testing.assert_array_equal(
        draw, _stream(seed, purpose + rng.STREAM_STRIDE * index).random(4))
    for other in PURPOSES:
        for other_index in range(5):
            if (other, other_index) != (purpose, index):
                assert not np.array_equal(
                    draw, rng.substream(seed, other, other_index).random(4))


# the first draws of seed 1, held as literals: a change to any stream,
# or to the order of the calls on it, changes every output of a run
PINNED_BATHS = {
    0: {"frequencies": ["0x1.84b97c266cb22p-1", "0x1.5b9d9bd5d9f3ep-2", "0x1.6ea3fb22edf02p-1"],
        "positions": ["0x1.c442f647961d2p+1", "0x1.557fafc16848ap+6", "-0x1.498b0ebb43cbep+4"],
        "momenta": ["0x1.02c6221a2c28cp-2", "0x1.694c5d504f621p-4", "0x1.46b3a178d6c23p-4"]},
    1: {"frequencies": ["0x1.cf1c03f378b12p-1", "0x1.75934b5e805d5p-2", "0x1.12df73c317472p-1"],
        "positions": ["-0x1.ad34b233c1867p+4", "-0x1.4cb090ae33cd1p+6", "-0x1.e2d675d0107bbp+5"],
        "momenta": ["0x1.cbbee0783d9a0p-4", "-0x1.628e66f1f4ed0p-3", "-0x1.c94a3d1cf3e60p-3"]},
}
PINNED_TIMES = ["0x1.2428bb89d3355p+1", "0x1.3598a5742ceb6p+4", "0x1.e5f01fb9d200fp+4"]


@pytest.mark.parametrize("bath_index", [0, 1])
def test_a_default_bath_draws_the_pinned_values(bath_index):
    real = realize_bath(BathSpec(), 1, bath_index)
    for name, pinned in PINNED_BATHS[bath_index].items():
        assert [float(x).hex() for x in getattr(real, name)[:3]] == pinned, name


def test_default_sampling_times_draw_the_pinned_values():
    times = make_sampling_times(SamplingPlan(), rng.substream(1, rng.SAMPLING_TIMES))
    assert [float(t).hex() for t in times[:3]] == PINNED_TIMES
