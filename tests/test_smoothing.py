"""Command smoothing filters: warm-up, examples, algebraic laws, and
bit-for-bit agreement with the 2-vector formulas they replace.

Every filter takes and returns an (x, y) pair; `pair` builds one and
`push` wraps a result in an array for comparisons.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmpulse.smoothing import (
    ExponentialFilter,
    IdentityFilter,
    MovingAverageFilter,
    make_filter,
)


def pair(x, y):
    return float(x), float(y)


def push(f, x):
    """Push the pair x (any length-2 sequence) and return the output as an array."""
    out = f.push(pair(*x))
    assert isinstance(out, tuple) and len(out) == 2
    return np.array(out)


class TestMovingAverage:
    def test_constant_input_any_window(self):
        c = pair(1.5, -2.0)
        for window in (1, 3, 10):
            f = MovingAverageFilter(window)
            for _ in range(25):
                out = push(f, c)
            assert np.allclose(out, c)

    def test_two_sample_mean(self):
        f = MovingAverageFilter(2)
        push(f, pair(0.0, 0.0))
        out = push(f, pair(2.0, 0.0))
        assert np.allclose(out, pair(1.0, 0.0))

    def test_warmup_single_sample(self):
        f = MovingAverageFilter(10)
        s = pair(0.7, -0.3)
        assert np.allclose(push(f, s), s)

    def test_window_one_is_identity(self):
        f = MovingAverageFilter(1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=2)
            assert np.allclose(push(f, x), x)

    def test_oldest_sample_evicted(self):
        f = MovingAverageFilter(2)
        push(f, pair(100.0, 0.0))
        push(f, pair(2.0, 0.0))
        out = push(f, pair(4.0, 0.0))
        assert np.allclose(out, pair(3.0, 0.0))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MovingAverageFilter(0)


class TestExponential:
    def test_alpha_one_is_identity(self):
        f = ExponentialFilter(1.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=2)
            assert np.allclose(push(f, x), x)

    def test_hand_evaluated_step(self):
        f = ExponentialFilter(0.8)
        push(f, pair(0.0, 0.0))  # state seeded at the first sample
        out = push(f, pair(1.0, 0.0))
        assert np.allclose(out, pair(0.8, 0.0))

    def test_first_sample_initialises_state(self):
        f = ExponentialFilter(0.3)
        s = pair(-4.0, 9.0)
        assert np.allclose(push(f, s), s)

    def test_geometric_convergence(self):
        f = ExponentialFilter(0.8)
        c = pair(2.0, -1.0)
        push(f, pair(0.0, 0.0))
        prev_err = np.linalg.norm(c)
        for _ in range(10):
            out = push(f, c)
            err = np.linalg.norm(out - c)
            assert err == pytest.approx(prev_err * 0.2, rel=1e-9)
            prev_err = err

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ExponentialFilter(alpha)


class TestMakeFilter:
    def test_modes(self):
        assert isinstance(make_filter("none"), IdentityFilter)
        assert isinstance(make_filter("moving_average", window=5), MovingAverageFilter)
        assert isinstance(make_filter("exponential", alpha=0.2), ExponentialFilter)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_filter("kalman")


def _random_stream(rng, length=40):
    return rng.normal(size=(length, 2)) * rng.uniform(0.1, 5.0)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: MovingAverageFilter(1),
        lambda: MovingAverageFilter(7),
        lambda: ExponentialFilter(0.2),
        lambda: ExponentialFilter(0.8),
        lambda: ExponentialFilter(1.0),
    ],
)
class TestFilterLaws:
    def test_convex_hull(self, factory):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = factory()
            stream = _random_stream(rng)
            lo = np.full(2, np.inf)
            hi = np.full(2, -np.inf)
            for x in stream:
                lo = np.minimum(lo, x)
                hi = np.maximum(hi, x)
                out = push(f, x)
                assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_linearity(self, factory):
        rng = np.random.default_rng(12)
        for _ in range(25):
            fa, fb, fc = factory(), factory(), factory()
            xs = _random_stream(rng, 30)
            ys = _random_stream(rng, 30)
            a, b = rng.uniform(-2, 2, 2)
            for x, y in zip(xs, ys):
                combined = push(fc, a * x + b * y)
                separate = a * push(fa, x) + b * push(fb, y)
                assert np.allclose(combined, separate, atol=1e-9)


# -- bit-for-bit agreement with the 2-vector formulas ---------------------
#
# The filters once kept float64 2-vectors; these are those formulas,
# written out as the reference each pair result must match bit for bit
# (signed zeros included).


def vector_moving_average(window):
    buf = deque(maxlen=window)

    def step(x):
        buf.append(np.array(x, dtype=np.float64))
        total = np.array([0.0, 0.0])
        for s in buf:
            total += s
        return total / len(buf)

    return step


def vector_exponential(alpha):
    state = None

    def step(x):
        nonlocal state
        x = np.array(x, dtype=np.float64)
        state = x if state is None else alpha * x + (1.0 - alpha) * state
        return np.array(state)

    return step


components = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)
streams = st.lists(st.tuples(components, components), min_size=1, max_size=30)


def same_bits(got, want):
    return np.array(got, dtype=np.float64).tobytes() == np.asarray(want).tobytes()


class TestPairsMatchVectorFormulas:
    @settings(max_examples=200, deadline=None)
    @given(window=st.integers(1, 12), stream=streams)
    def test_moving_average(self, window, stream):
        # Streams longer than the window cover warm-up and full windows.
        f, ref = MovingAverageFilter(window), vector_moving_average(window)
        for x in stream:
            assert same_bits(f.push(x), ref(x))

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True), stream=streams)
    def test_exponential(self, alpha, stream):
        f, ref = ExponentialFilter(alpha), vector_exponential(alpha)
        for x in stream:
            assert same_bits(f.push(x), ref(x))

    @given(stream=streams)
    def test_identity(self, stream):
        f = IdentityFilter()
        for x in stream:
            assert same_bits(f.push(x), np.array(x, dtype=np.float64))

    def test_signed_zero_examples(self):
        f, ref = MovingAverageFilter(3), vector_moving_average(3)
        for x in [(-0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-0.0, -0.0)]:
            assert same_bits(f.push(x), ref(x))
        f, ref = ExponentialFilter(0.5), vector_exponential(0.5)
        for x in [(-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)]:
            assert same_bits(f.push(x), ref(x))
