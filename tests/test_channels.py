import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shuffledp import (
    Support,
    ValidationError,
    channel_from_json,
    channel_to_json,
    rr_channel,
    score_stats,
    validate_channel,
)
from conftest import full_channel


def test_rr_channel_ln3():
    ch = rr_channel(math.log(3.0))
    assert ch.d == 2
    assert ch.support is Support.FULL
    assert ch.W0[0] == pytest.approx(0.75, rel=1e-12)
    assert ch.W0[1] == pytest.approx(0.25, rel=1e-12)
    # W1 is W0 reversed
    assert ch.W1[0] == pytest.approx(ch.W0[1], abs=0.0)
    assert ch.W1[1] == pytest.approx(ch.W0[0], abs=0.0)


@pytest.mark.parametrize("zero", [0, 0.0, np.float32(0.0)])  # any finite real
def test_rr_channel_zero_is_uniform(zero):
    ch = rr_channel(zero)
    assert np.array_equal(ch.W0, ch.W1)
    assert ch.W0[0] == 0.5


@pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan, "x", None])
def test_rr_channel_rejects(bad):
    with pytest.raises(ValidationError):
        rr_channel(bad)


def test_validate_renormalizes_within_tolerance():
    # off by 5e-10: accepted, then renormalized to an exact unit sum
    ch = validate_channel([0.5 + 5e-10, 0.5], [0.25, 0.75])
    assert ch.W0.sum() == pytest.approx(1.0, abs=1e-15)


def test_validate_rejects_bad_sum():
    with pytest.raises(ValidationError, match="sums to"):
        validate_channel([0.7, 0.2], [0.5, 0.5])


def test_validate_rejects_negative_and_nonfinite():
    with pytest.raises(ValidationError, match="negative"):
        validate_channel([1.1, -0.1], [0.5, 0.5])
    with pytest.raises(ValidationError, match="non-finite"):
        validate_channel([math.nan, 1.0], [0.5, 0.5])


def test_validate_rejects_short_or_mismatched():
    with pytest.raises(ValidationError):
        validate_channel([1.0], [1.0])
    with pytest.raises(ValidationError, match="mismatch"):
        validate_channel([0.5, 0.5], [0.2, 0.3, 0.5])


def test_support_classification():
    assert validate_channel([0.5, 0.5], [0.3, 0.7]).support is Support.FULL
    assert validate_channel([0.5, 0.5], [0.0, 1.0]).support is Support.NULL_SUPPORT
    # a zero in W0 dominates the classification
    assert validate_channel([0.0, 1.0], [0.0, 1.0]).support is Support.SINGULAR
    assert validate_channel([0.0, 1.0], [0.5, 0.5]).support is Support.SINGULAR


def test_validate_refuses_a_ratio_beyond_the_double_range():
    # W1/W0 = 1.05e-12 / 5e-324 overflows: refused, naming the symbol
    with pytest.raises(ValidationError, match=r"W1\[0\] / W0\[0\] = 1.05e-12 / 5e-324 overflows"):
        validate_channel([5e-324, 1.0], [1.05e-12, 1.0 - 1.05e-12])
    with pytest.raises(ValidationError, match=r"W1\[1\] / W0\[1\]"):
        validate_channel([1.0, 4.94e-318], [0.6901211876677521, 0.30987881233224784])
    # a ratio just inside the range, a tiny mass on both sides and a zero in
    # W0 (SINGULAR, no ratio) are accepted
    assert validate_channel([1.0, 1e-308], [0.5, 0.5]).support is Support.FULL
    assert validate_channel([1.0, 5e-324], [1.0, 5e-324]).support is Support.FULL
    assert validate_channel([0.0, 1.0], [0.5, 0.5]).support is Support.SINGULAR


def test_channel_arrays_are_read_only():
    ch = rr_channel(1.0)
    with pytest.raises(ValueError):
        ch.W0[0] = 0.0


def test_score_stats_rr_ln3():
    st_ = score_stats(rr_channel(math.log(3.0)))
    assert st_.w == pytest.approx([1 / 3, 3.0], rel=1e-12)
    assert st_.chi2 == pytest.approx(4 / 3, rel=1e-12)
    assert st_.mu3 == pytest.approx(16 / 9, rel=1e-12)
    assert st_.w_max == pytest.approx(3.0, rel=1e-12)
    assert st_.delta_star == pytest.approx(0.25, rel=1e-12)


def test_score_stats_moments_beyond_the_square_range():
    # r = 2.9e223 squares beyond the double range, but chi2 = v . r does not:
    # it is finite, and mu3, whose true value is above 1e347, is inf, with
    # no overflow warning
    ch = validate_channel([5e-324, 1.0], [1.45e-100, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st_ = score_stats(ch)
    assert st_.chi2 == 4.255507375786205e123
    assert st_.mu3 == math.inf


def test_score_stats_rejects_singular():
    ch = validate_channel([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError, match="SINGULAR"):
        score_stats(ch)


def test_json_round_trip():
    ch = rr_channel(math.log(3.0))
    back = channel_from_json(channel_to_json(ch))
    assert np.array_equal(back.W0, ch.W0)
    assert np.array_equal(back.W1, ch.W1)
    assert back.support is ch.support


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        "[1, 2]",
        '{"d": 2, "W0": [0.5, 0.5]}',
        '{"d": 2, "W0": "oops", "W1": [0.5, 0.5]}',
        '{"d": 3, "W0": [0.5, 0.5], "W1": [0.5, 0.5]}',
    ],
)
def test_json_schema_errors(payload):
    with pytest.raises(ValidationError):
        channel_from_json(payload)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_random_channels_validate(seed, d):
    ch = full_channel(np.random.default_rng(seed), d)
    assert ch.support is Support.FULL
    assert ch.W0.sum() == pytest.approx(1.0, abs=1e-12)
    assert ch.W1.sum() == pytest.approx(1.0, abs=1e-12)
    st_ = score_stats(ch)
    # centered score has mean zero under W0, and chi2 is its variance
    assert float(np.dot(ch.W0, st_.r)) == pytest.approx(0.0, abs=1e-12)
    assert st_.chi2 >= 0.0
