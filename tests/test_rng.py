"""Stream identity and reproducibility of the named RNG substreams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath import rng


def test_same_stream_reproduces():
    a = rng.RngStream(seed=7, stream_id=3).generator().random(16)
    b = rng.RngStream(seed=7, stream_id=3).generator().random(16)
    np.testing.assert_array_equal(a, b)


def test_purposes_are_independent_streams():
    draws = {
        purpose: rng.substream(1, purpose).generator().random(8).tolist()
        for purpose in (rng.FREQUENCIES, rng.ENERGIES, rng.PHASES,
                        rng.SAMPLING_TIMES)
    }
    values = list(draws.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert values[i] != values[j]


def test_bath_index_shifts_stream_id():
    s = rng.substream(5, rng.ENERGIES, index=3)
    assert s.stream_id == rng.ENERGIES + rng.STREAM_STRIDE * 3
    assert s.seed == 5


def test_negative_identifiers_rejected():
    with pytest.raises(ValueError, match="seed"):
        rng.RngStream(seed=-1)
    with pytest.raises(ValueError, match="stream_id"):
        rng.RngStream(seed=0, stream_id=-2)


@given(seed=st.integers(min_value=0, max_value=2**31),
       purpose=st.sampled_from([rng.FREQUENCIES, rng.ENERGIES, rng.PHASES]),
       index=st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_stream_ids_never_collide_across_purposes(seed, purpose, index):
    """No (purpose, index) pair maps onto another purpose's stream."""
    sid = rng.substream(seed, purpose, index).stream_id
    assert sid % rng.STREAM_STRIDE == purpose
    assert sid // rng.STREAM_STRIDE == index
