import pytest

from harness.served import open_loop_schedule


class FakeTime:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.slept.append(seconds)
        self.now += seconds


def drive(service_times, rate=10.0):
    """Run the schedule against a fake server that takes
    ``service_times[i]`` for tick i; returns (due, started, finished)."""
    time = FakeTime()
    ticks = []

    def do_tick(due):
        started = time.now
        time.now += service_times[len(ticks)]
        ticks.append((due, started, time.now))

    open_loop_schedule(len(service_times), rate, 0.0, do_tick,
                       clock=time.clock, sleep=time.sleep)
    return ticks


def test_fast_server_is_sent_one_tick_per_period():
    ticks = drive([0.01] * 5)
    for i, (due, started, finished) in enumerate(ticks):
        assert due == pytest.approx(100.0 + i / 10.0)
        assert started == pytest.approx(due)
        assert finished - due == pytest.approx(0.01)


def test_a_stall_is_charged_to_the_requests_it_delayed():
    # Tick 1 stalls for 0.35 s; ticks 2..4 were due meanwhile.
    ticks = drive([0.01, 0.35, 0.01, 0.01, 0.01, 0.01])
    latencies = [finished - due for due, _started, finished in ticks]
    lateness = [started - due for due, started, _finished in ticks]
    assert round(latencies[0], 6) == 0.01
    assert round(latencies[1], 6) == 0.35
    # Due at +0.2, sent when the connection came free at +0.45.
    assert round(lateness[2], 6) == 0.25
    assert round(latencies[2], 6) == 0.26
    assert round(latencies[3], 6) == 0.17
    assert round(latencies[4], 6) == 0.08
    # The backlog has drained: back on schedule.
    assert round(lateness[5], 6) == 0.0
    assert round(latencies[5], 6) == 0.01
    # A closed loop would have reported 0.01 for every tick but one.
    assert sum(1 for value in latencies if value > 0.05) == 4


def test_the_schedule_never_slips():
    ticks = drive([0.3, 0.01, 0.01, 0.01])
    assert [round(due - 100.0, 6) for due, _s, _f in ticks] == [
        0.0, 0.1, 0.2, 0.3,
    ]
