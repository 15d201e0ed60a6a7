"""Tests for the hit/miss and left/right predictors (paper 4.3-4.4)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common import StatGroup
from repro.core.predictors import HitMissPredictor, LeftRightPredictor


class TestHitMissPredictor:
    def make(self):
        return HitMissPredictor(StatGroup())

    def test_cold_predicts_miss(self):
        hmp = self.make()
        assert not hmp.predict_hit(pc=4, key=0)

    def test_needs_fourteen_hits_for_confidence(self):
        # 4-bit counter, predict hit only when counter > 13.
        hmp = self.make()
        for i in range(13):
            hmp.train(pc=4, key=i, level="l1")
        assert not hmp.predict_hit(pc=4, key=100)
        hmp.train(pc=4, key=101, level="l1")
        assert hmp.predict_hit(pc=4, key=102)

    def test_single_miss_clears_confidence(self):
        hmp = self.make()
        for i in range(20):
            hmp.train(pc=4, key=i, level="l1")
        assert hmp.predict_hit(pc=4, key=50)
        hmp.train(pc=4, key=51, level="mem")
        assert not hmp.predict_hit(pc=4, key=52)

    def test_delayed_hit_trains_as_miss(self):
        hmp = self.make()
        for i in range(20):
            hmp.train(pc=4, key=i, level="l1")
        hmp.train(pc=4, key=30, level="delayed")
        assert not hmp.predict_hit(pc=4, key=31)

    def test_forward_trains_as_hit(self):
        hmp = self.make()
        for i in range(14):
            hmp.train(pc=4, key=i, level="forward")
        assert hmp.predict_hit(pc=4, key=20)

    def test_counter_saturates(self):
        hmp = self.make()
        for i in range(100):
            hmp.train(pc=4, key=i, level="l1")
        hmp.train(pc=4, key=200, level="l2")   # clears
        # One more hit should not restore confidence.
        hmp.train(pc=4, key=201, level="l1")
        assert not hmp.predict_hit(pc=4, key=202)

    def test_accuracy_and_coverage_stats(self):
        hmp = self.make()
        for i in range(14):
            hmp.train(pc=4, key=i, level="l1")
        for i in range(10):
            hmp.predict_hit(pc=4, key=100 + i)
            hmp.train(pc=4, key=100 + i, level="l1")
        assert hmp.hit_prediction_accuracy == 1.0
        assert 0 < hmp.hit_coverage <= 1.0

    def test_wrong_hit_prediction_counted(self):
        hmp = self.make()
        for i in range(14):
            hmp.train(pc=4, key=i, level="l1")
        hmp.predict_hit(pc=4, key=100)
        hmp.train(pc=4, key=100, level="mem")
        assert hmp.stat_wrong_hits.value == 1
        assert hmp.hit_prediction_accuracy == 0.0

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_counter_never_leaves_range(self, outcomes):
        hmp = self.make()
        for i, hit in enumerate(outcomes):
            hmp.train(pc=8, key=i, level="l1" if hit else "mem")
        counter = hmp._counters.get(hmp._index(8), 0)
        assert 0 <= counter <= hmp.max_count


class TestLeftRightPredictor:
    def make(self):
        return LeftRightPredictor(StatGroup())

    def test_initial_prediction_is_left(self):
        # Counter initializes to 2 (weakly left-later).
        assert self.make().predict_later(pc=0) == LeftRightPredictor.LEFT

    def test_learns_right_later(self):
        lrp = self.make()
        for _ in range(4):
            lrp.train(pc=0, left_ready=5, right_ready=50,
                      predicted=LeftRightPredictor.LEFT)
        assert lrp.predict_later(pc=0) == LeftRightPredictor.RIGHT

    def test_learns_left_later(self):
        lrp = self.make()
        for _ in range(4):
            lrp.train(pc=0, left_ready=50, right_ready=5,
                      predicted=LeftRightPredictor.RIGHT)
        assert lrp.predict_later(pc=0) == LeftRightPredictor.LEFT

    def test_hysteresis_resists_single_flip(self):
        lrp = self.make()
        for _ in range(4):
            lrp.train(pc=0, left_ready=50, right_ready=5,
                      predicted=LeftRightPredictor.LEFT)
        lrp.train(pc=0, left_ready=5, right_ready=50,
                  predicted=LeftRightPredictor.LEFT)
        assert lrp.predict_later(pc=0) == LeftRightPredictor.LEFT

    def test_tie_counts_as_correct(self):
        lrp = self.make()
        lrp.train(pc=0, left_ready=7, right_ready=7,
                  predicted=LeftRightPredictor.RIGHT)
        assert lrp.stat_correct.value == 1

    def test_accuracy(self):
        lrp = self.make()
        lrp.train(pc=0, left_ready=10, right_ready=5,
                  predicted=LeftRightPredictor.LEFT)    # correct
        lrp.train(pc=0, left_ready=1, right_ready=5,
                  predicted=LeftRightPredictor.LEFT)    # wrong
        assert lrp.accuracy == 0.5

    def test_distinct_pcs_tracked_separately(self):
        lrp = self.make()
        for _ in range(4):
            lrp.train(pc=0, left_ready=9, right_ready=1,
                      predicted=LeftRightPredictor.LEFT)
            lrp.train(pc=1, left_ready=1, right_ready=9,
                      predicted=LeftRightPredictor.LEFT)
        assert lrp.predict_later(pc=0) == LeftRightPredictor.LEFT
        assert lrp.predict_later(pc=1) == LeftRightPredictor.RIGHT
