"""Tests for the discrete event queue.

``EventQueue`` is the compiled type whenever the kernel extension loads;
``TestPyEventQueue`` reruns every case on the pure-Python twin.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import _ckload
from repro.common.errors import SimulationError
from repro.common.events import EventQueue, _PyEventQueue


class TestEventQueue:
    EventQueue = EventQueue

    def test_events_fire_at_their_cycle(self):
        queue = self.EventQueue()
        fired = []
        queue.schedule(3, lambda: fired.append(queue.now))
        queue.advance_to(2)
        assert fired == []
        queue.advance_to(3)
        assert fired == [3]

    def test_same_cycle_events_fire_in_insertion_order(self):
        queue = self.EventQueue()
        fired = []
        for tag in range(5):
            queue.schedule(1, lambda tag=tag: fired.append(tag))
        queue.advance_to(1)
        assert fired == [0, 1, 2, 3, 4]

    def test_advance_fires_all_intermediate_events(self):
        queue = self.EventQueue()
        fired = []
        for delay in (5, 1, 3):
            queue.schedule(delay, lambda d=delay: fired.append(d))
        queue.advance_to(10)
        assert fired == [1, 3, 5]
        assert queue.now == 10

    def test_event_can_schedule_followup(self):
        queue = self.EventQueue()
        fired = []

        def first():
            fired.append("first")
            queue.schedule(2, lambda: fired.append("second"))

        queue.schedule(1, first)
        queue.advance_to(3)
        assert fired == ["first", "second"]

    def test_followup_on_same_cycle_fires(self):
        queue = self.EventQueue()
        fired = []
        queue.schedule(1, lambda: queue.schedule(0, lambda: fired.append("x")))
        queue.advance_to(1)
        assert fired == ["x"]

    def test_negative_delay_rejected(self):
        queue = self.EventQueue()
        with pytest.raises(SimulationError):
            queue.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        queue = self.EventQueue()
        queue.advance_to(5)
        with pytest.raises(SimulationError):
            queue.schedule_at(3, lambda: None)

    def test_time_cannot_go_backwards(self):
        queue = self.EventQueue()
        queue.advance_to(5)
        with pytest.raises(SimulationError):
            queue.advance_to(4)

    def test_next_event_cycle(self):
        queue = self.EventQueue()
        assert queue.next_event_cycle() == -1
        queue.schedule(7, lambda: None)
        assert queue.next_event_cycle() == 7

    def test_len_counts_pending(self):
        queue = self.EventQueue()
        queue.schedule(1, lambda: None)
        queue.schedule(2, lambda: None)
        assert len(queue) == 2
        queue.advance_to(1)
        assert len(queue) == 1

    def test_events_always_fire_in_time_order(self):
        # The property is built per call: TestPyEventQueue reruns it, and
        # one @given method may not run under two classes.
        @given(st.lists(st.integers(min_value=0, max_value=100),
                        min_size=1, max_size=50))
        def check(delays):
            queue = self.EventQueue()
            fired = []
            for delay in delays:
                queue.schedule(delay, lambda d=delay: fired.append(d))
            queue.advance_to(101)
            assert fired == sorted(fired)
            assert len(fired) == len(delays)

        check()


class TestPyEventQueue(TestEventQueue):
    EventQueue = _PyEventQueue


def test_public_name_is_compiled():
    ck = _ckload.compiled_kernels()
    if ck is None:
        pytest.skip("compiled kernel extension not built")
    assert EventQueue is ck.EventQueue
