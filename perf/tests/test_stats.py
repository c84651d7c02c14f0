import pytest

from harness import stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))          # 1..100
    assert stats.percentile(samples, 0.50) == 50
    assert stats.percentile(samples, 0.95) == 95
    assert stats.percentile(samples, 1.0) == 100
    # Never interpolates: the answer is always one of the samples.
    assert stats.percentile([10, 20, 30, 40], 0.5) == 20
    assert stats.percentile([10, 20, 30, 40], 0.51) == 30
    assert stats.percentile([7], 0.95) == 7


def test_percentile_ignores_input_order():
    assert stats.percentile([5, 1, 4, 2, 3], 0.6) == 3


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1, 2], 0.0)


def test_ten_samples_beyond_rule():
    # p95 of 199 samples has 9 beyond it, of 200 it has 10.
    assert stats.samples_beyond(199, 0.95) == 9
    assert not stats.supported(199, 0.95)
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.supported(200, 0.95)
    assert stats.min_samples(0.95) == 200
    assert stats.min_samples(0.50) == 20
    assert stats.min_samples(0.99) == 1000


def singles(samples):
    return [[sample] for sample in samples]


def test_windowed_percentile_shrugs_off_a_stall():
    # 300 samples in time order; a stall inflates 40 in a row, which
    # moves a pooled p90 but sits in one of three windows of 100.
    calm = [10.0 + (i % 10) for i in range(300)]
    assert stats.windowed_percentile(singles(calm), 0.90) == 18.0
    stalled = list(calm)
    stalled[120:160] = [500.0] * 40
    assert stats.percentile(stalled, 0.90) == 500.0
    assert stats.windowed_percentile(singles(stalled), 0.90) == 18.0


def test_windows_have_enough_samples_and_keep_chunks_whole():
    # 250 single samples: a window of 100, and one of the other 150.
    samples = [float(i) for i in range(250)]
    first = stats.percentile(samples[:100], 0.90)
    rest = stats.percentile(samples[100:], 0.90)
    assert stats.windowed_percentile(singles(samples), 0.90) == (
        first + rest) / 2
    # Chunks (repeats) of 40 merge three at a time and are never cut.
    repeats = [[float(r)] * 40 for r in range(6)]
    assert stats.windowed_percentile(repeats, 0.90) == (2.0 + 5.0) / 2
    # A repeat that has enough samples is a window of its own, so a
    # trend inside the repeats is seen whole by each window.
    ramps = [[float(i) for i in range(100)] for _ in range(3)]
    assert stats.windowed_percentile(ramps, 0.90) == 89.0
    # Too few for even one supported window: one window, the plain one.
    assert stats.windowed_percentile(singles(samples[:50]), 0.90) == (
        stats.percentile(samples[:50], 0.90))


def test_segment_rates_median_shrugs_off_a_stall():
    # Ten completions a second for five seconds, but nothing at all in
    # the third second: a stall moves one segment, not the median.
    completions = [s + i / 10 for s in (0, 1, 3, 4) for i in range(10)]
    rates = stats.segment_rates(completions, 0.0, 5.0, 2, 5)
    assert rates == [20.0, 20.0, 0.0, 20.0, 20.0]
    assert stats.median(rates) == 20.0


def test_segment_rates_use_the_given_durations():
    completions = [0.5, 1.5]
    # Each one-second segment "lasted" two seconds at reference speed.
    assert stats.segment_rates(
        completions, 0.0, 2.0, 1, 2, duration=lambda a, b: 2 * (b - a)
    ) == [0.5, 0.5]


def test_spread_matches_the_driver_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
