"""Saturation and threshold edges of the dispatch predictors (4.3-4.4).

The hit/miss predictor's exact clamp (15) and confidence threshold
(strictly above 13) decide which loads start chains, and the left/right
predictor's 2-bit hysteresis decides which operand an instruction
follows — off-by-ones here silently change every chain assignment, so
the boundaries get pinned down exactly.
"""

from repro.common import StatGroup
from repro.core.predictors import HitMissPredictor, LeftRightPredictor


def make_hmp(**kwargs):
    return HitMissPredictor(StatGroup(), **kwargs)


def make_lrp():
    return LeftRightPredictor(StatGroup())


class TestHMPSaturation:
    def test_counter_clamps_at_fifteen(self):
        hmp = make_hmp()
        for i in range(100):
            hmp.train(pc=8, key=i, level="l1")
        assert hmp._counters[hmp._index(8)] == 15

    def test_predicts_hit_strictly_above_thirteen(self):
        hmp = make_hmp()
        index = hmp._index(8)
        hmp._counters[index] = 13
        assert not hmp.predict_hit(pc=8, key=0)   # 13 is not enough
        hmp._counters[index] = 14
        assert hmp.predict_hit(pc=8, key=1)
        hmp._counters[index] = 15
        assert hmp.predict_hit(pc=8, key=2)

    def test_miss_resets_saturated_counter_to_zero(self):
        hmp = make_hmp()
        for i in range(50):
            hmp.train(pc=8, key=i, level="l1")
        hmp.train(pc=8, key=60, level="mem")
        assert hmp._counters[hmp._index(8)] == 0
        # Confidence must be re-earned from scratch: 14 hits again.
        for i in range(13):
            hmp.train(pc=8, key=70 + i, level="l1")
        assert not hmp.predict_hit(pc=8, key=90)
        hmp.train(pc=8, key=91, level="l1")
        assert hmp.predict_hit(pc=8, key=92)

    def test_custom_counter_width_changes_clamp(self):
        hmp = make_hmp(counter_bits=2, confidence=2)
        for i in range(50):
            hmp.train(pc=8, key=i, level="l1")
        assert hmp._counters[hmp._index(8)] == 3
        assert hmp.predict_hit(pc=8, key=60)      # 3 > 2

    def test_table_aliasing_shares_counters(self):
        hmp = make_hmp(table_size=64)
        for i in range(20):
            hmp.train(pc=4, key=i, level="l1")
        # pc 68 aliases pc 4 (68 % 64) and inherits its confidence.
        assert hmp.predict_hit(pc=68, key=50)
        assert not hmp.predict_hit(pc=5, key=51)


class TestLRPSaturation:
    def test_counter_clamps_at_three_and_zero(self):
        lrp = make_lrp()
        for _ in range(50):
            lrp.train(pc=4, left_ready=10, right_ready=0,
                      predicted=lrp.LEFT)
        assert lrp._counters[lrp._index(4)] == 3
        for _ in range(50):
            lrp.train(pc=4, left_ready=0, right_ready=10,
                      predicted=lrp.RIGHT)
        assert lrp._counters[lrp._index(4)] == 0

    def test_saturated_prediction_needs_two_flips(self):
        """2-bit hysteresis: one contrary observation must not flip a
        saturated prediction; the second must."""
        lrp = make_lrp()
        for _ in range(10):
            lrp.train(pc=4, left_ready=10, right_ready=0,
                      predicted=lrp.LEFT)
        assert lrp.predict_later(pc=4) == lrp.LEFT
        lrp.train(pc=4, left_ready=0, right_ready=10, predicted=lrp.LEFT)
        assert lrp.predict_later(pc=4) == lrp.LEFT    # 3 -> 2, still left
        lrp.train(pc=4, left_ready=0, right_ready=10, predicted=lrp.LEFT)
        assert lrp.predict_later(pc=4) == lrp.RIGHT   # 2 -> 1, flipped

    def test_commutative_arrivals_never_count_as_wrong(self):
        """For operands arriving the same cycle (the commutative case —
        either choice schedules identically) training counts the
        prediction correct whichever side was picked."""
        lrp = make_lrp()
        lrp.train(pc=4, left_ready=5, right_ready=5, predicted=lrp.LEFT)
        lrp.train(pc=8, left_ready=5, right_ready=5, predicted=lrp.RIGHT)
        assert lrp.stat_correct.value == 2
        assert lrp.stat_wrong.value == 0

    def test_asymmetric_arrivals_punish_wrong_side(self):
        """Non-commutative timing: when one operand is strictly later,
        only the side that actually arrived later trains as correct."""
        lrp = make_lrp()
        lrp.train(pc=4, left_ready=9, right_ready=1, predicted=lrp.RIGHT)
        assert lrp.stat_wrong.value == 1
        lrp.train(pc=4, left_ready=9, right_ready=1, predicted=lrp.LEFT)
        assert lrp.stat_correct.value == 1

    def test_tie_training_drifts_toward_left(self):
        """Equal arrivals train as left-later (>= compare), so a stream
        of ties saturates the counter at LEFT — worth pinning because it
        decides which chain a two-operand instruction follows."""
        lrp = make_lrp()
        for _ in range(10):
            lrp.train(pc=4, left_ready=5, right_ready=5,
                      predicted=lrp.LEFT)
        assert lrp._counters[lrp._index(4)] == 3
        assert lrp.predict_later(pc=4) == lrp.LEFT
