"""Tests for the statistics primitives.

``Counter``/``Distribution`` are the compiled types whenever the kernel
extension loads; the ``TestPy*`` classes rerun every case on the
pure-Python twins, so both are always exercised.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import _ckload, stats
from repro.common.stats import (Counter, Distribution, PyCounter,
                                PyDistribution, StatGroup, ratio)


class TestCounter:
    Counter = Counter

    def test_starts_at_zero(self):
        assert self.Counter("c").value == 0

    def test_inc_default_and_amount(self):
        counter = self.Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_reset(self):
        counter = self.Counter("c")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestDistribution:
    Distribution = Distribution

    def test_empty_distribution_is_safe(self):
        dist = self.Distribution("d")
        assert dist.mean == 0.0
        assert dist.peak == 0.0
        assert dist.count == 0
        # Never-sampled distributions report 0, not +/-inf, so report()
        # and downstream arithmetic stay finite.
        assert dist.minimum == 0
        assert dist.maximum == 0

    def test_empty_distribution_reports_finite_values(self):
        group = StatGroup()
        group.distribution("never.sampled")
        report = group.report()
        assert "inf" not in report

    def test_mean_min_max(self):
        dist = self.Distribution("d")
        for value in [1, 2, 3, 10]:
            dist.sample(value)
        assert dist.mean == 4.0
        assert dist.minimum == 1
        assert dist.maximum == 10
        assert dist.peak == 10

    def test_matches_reference_implementation(self):
        # The property is built per call: subclasses rerun it on another
        # twin, and one @given method may not run under two classes.
        @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                  width=32), min_size=1))
        def check(samples):
            dist = self.Distribution("d")
            for value in samples:
                dist.sample(value)
            assert dist.count == len(samples)
            assert dist.minimum == min(samples)
            assert dist.maximum == max(samples)
            assert abs(dist.total - sum(samples)) <= 1e-6 * max(
                1.0, abs(sum(samples)))

        check()


class _BoundTwins:
    """Cases that build stats through a StatGroup: the group creates
    ``stats.Counter``/``stats.Distribution``, rebound here to the class's
    twins."""

    Counter = Counter
    Distribution = Distribution

    @pytest.fixture(autouse=True)
    def _bind_twins(self, monkeypatch):
        monkeypatch.setattr(stats, "Counter", self.Counter)
        monkeypatch.setattr(stats, "Distribution", self.Distribution)


class TestStatGroup(_BoundTwins):
    def test_counter_identity_on_same_name(self):
        group = StatGroup()
        assert group.counter("a") is group.counter("a")

    def test_get_counter_and_distribution(self):
        group = StatGroup()
        group.counter("hits").inc(7)
        group.distribution("occ").sample(4)
        group.distribution("occ").sample(6)
        assert group.get("hits") == 7
        assert group.get("occ") == 5.0

    def test_contains(self):
        group = StatGroup()
        group.counter("x")
        assert "x" in group
        assert "y" not in group

    def test_as_dict_flattens(self):
        group = StatGroup()
        group.counter("commits").inc(10)
        group.distribution("iq.occ").sample(3)
        flattened = group.as_dict()
        assert flattened["commits"] == 10
        assert flattened["iq.occ.mean"] == 3
        assert flattened["iq.occ.peak"] == 3

    def test_reset_clears_everything(self):
        group = StatGroup()
        group.counter("a").inc()
        group.distribution("b").sample(1)
        group.reset()
        assert group.get("a") == 0
        assert group.get("b") == 0.0

    def test_report_contains_names(self):
        group = StatGroup("core")
        group.counter("cycles").inc(100)
        text = group.report()
        assert "core" in text
        assert "cycles" in text
        assert "100" in text


class TestSnapshotMerge(_BoundTwins):
    """Window-scoped stat stitching for the sampling subsystem."""

    def _window(self, commits, occ_samples):
        group = StatGroup("window")
        group.counter("commits").inc(commits)
        for value in occ_samples:
            group.distribution("iq.occ").sample(value)
        return group

    def test_snapshot_is_plain_data(self):
        snap = self._window(5, [1, 3]).snapshot()
        assert snap["counters"] == {"commits": 5}
        assert snap["distributions"]["iq.occ"] == [2, 4, 1, 3]

    def test_merge_equals_concatenation(self):
        """Merging N window snapshots == stats of the concatenated stream."""
        windows = [(3, [1, 5]), (7, [2]), (4, [9, 0, 3])]
        merged = StatGroup("merged")
        for commits, samples in windows:
            merged.merge_snapshot(self._window(commits, samples).snapshot())
        direct = self._window(sum(c for c, _ in windows),
                              [v for _, samples in windows for v in samples])
        assert merged.as_dict() == direct.as_dict()

    def test_merge_into_empty_preserves_extrema(self):
        group = StatGroup()
        group.merge_snapshot(self._window(1, [4, 8]).snapshot())
        dist = dict((name, d) for name, d in
                    ((d.name, d) for d in group.distributions()))["iq.occ"]
        assert dist.minimum == 4
        assert dist.maximum == 8

    def test_empty_distribution_round_trips(self):
        group = StatGroup()
        group.distribution("never.sampled")
        clone = StatGroup()
        clone.merge_snapshot(group.snapshot())
        assert clone.as_dict() == group.as_dict()


class TestPyCounter(TestCounter):
    Counter = PyCounter


class TestPyDistribution(TestDistribution):
    Distribution = PyDistribution


class TestPyStatGroup(TestStatGroup):
    Counter, Distribution = PyCounter, PyDistribution


class TestPySnapshotMerge(TestSnapshotMerge):
    Counter, Distribution = PyCounter, PyDistribution


class TestCompiledTwins:
    """The compiled types are the public names whenever the extension
    loads, and report byte-identically to the Python twins."""

    @pytest.fixture
    def ck(self):
        module = _ckload.compiled_kernels()
        if module is None:
            pytest.skip("compiled kernel extension not built")
        return module

    def test_public_names_are_compiled(self, ck):
        assert Counter is ck.Counter
        assert Distribution is ck.Distribution

    def test_as_dict_json_identical(self, ck, monkeypatch):
        def report(counter_cls, dist_cls):
            monkeypatch.setattr(stats, "Counter", counter_cls)
            monkeypatch.setattr(stats, "Distribution", dist_cls)
            group = StatGroup()
            group.counter("commits").inc(31)
            for value in (3, 31, 7):
                group.distribution("iq.occupancy").sample(value)
            group.distribution("iq.skipped").sample_n(4, 3)
            group.distribution("never.sampled")
            return json.dumps(group.as_dict()), group.report()

        assert (report(PyCounter, PyDistribution)
                == report(ck.Counter, ck.Distribution))


class TestRatio:
    def test_normal(self):
        assert ratio(1, 2) == 0.5

    def test_zero_denominator(self):
        assert ratio(5, 0) == 0.0
