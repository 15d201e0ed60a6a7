"""Tests for SMT: one Processor running N thread contexts (the paper's
section-7 study)."""

import pytest

from repro.common import ConfigurationError
from repro.harness import configs
from repro.isa import execute
from repro.pipeline import Processor
from repro.pipeline.processor import DATA_SPACE_BYTES, _thread_stream
from repro.workloads import WORKLOADS

from tests.conftest import (daxpy_program, dependent_chain_program,
                            without_skip_counters)


def run_smt(programs, params=None, budget=6000, max_cycles=2_000_000):
    params = params or configs.segmented(256, 64, "comb")
    streams = [execute(p, max_instructions=budget) for p in programs]
    processor = Processor(params, streams)
    for thread, program in enumerate(programs):
        processor.warm_code(program, thread=thread)
    processor.run(max_cycles=max_cycles)
    return processor


class TestBasics:
    def test_needs_at_least_one_stream(self):
        with pytest.raises(ConfigurationError):
            Processor(configs.ideal(64), [])

    def test_single_thread_commits_everything(self):
        program = daxpy_program(n=128)
        expected = sum(1 for _ in execute(program))
        processor = run_smt([program], budget=None)
        assert processor.done
        assert processor.committed == expected

    def test_two_threads_commit_everything(self):
        programs = [daxpy_program(n=64), dependent_chain_program(200)]
        expected = sum(sum(1 for _ in execute(p)) for p in programs)
        processor = run_smt(programs, budget=None)
        assert processor.done
        assert processor.committed == expected
        assert all(count > 0 for count in processor.committed_per_thread)
        assert ([processor.stats.get(f"thread{t}.committed")
                 for t in range(2)] == processor.committed_per_thread)

    def test_one_stream_list_is_the_single_thread_processor(self):
        # A one-element list takes the single-threaded path: same cycles
        # and byte-identical stats (no per-thread counters).
        params = configs.segmented(256, 64, "comb")
        program = daxpy_program(n=64)
        listed = Processor(params, [execute(program)])
        listed.run()
        plain = Processor(params, execute(program))
        plain.run()
        assert listed.cycle == plain.cycle
        assert listed.stats.as_dict() == plain.stats.as_dict()
        assert "thread0.committed" not in listed.stats.as_dict()

    def test_per_thread_ipc_sums_to_total(self):
        programs = [daxpy_program(n=64), daxpy_program(n=64)]
        processor = run_smt(programs, budget=None)
        total = sum(processor.thread_ipc(t) for t in range(2))
        assert total == pytest.approx(processor.ipc)

    def test_four_threads(self):
        programs = [daxpy_program(n=32) for _ in range(4)]
        processor = run_smt(programs, budget=None)
        assert processor.done
        assert processor.num_threads == 4


class TestIsolation:
    def test_threads_do_not_share_architectural_state(self):
        # Two copies of the same program must behave identically even
        # though they use the same register numbers and addresses.
        programs = [daxpy_program(n=64), daxpy_program(n=64)]
        processor = run_smt(programs, budget=None)
        assert processor.done
        assert (processor.committed_per_thread[0]
                == processor.committed_per_thread[1])

    def test_data_addresses_are_disjoint(self):
        program = daxpy_program(n=16)
        tagged = list(_thread_stream(execute(program), thread=1,
                                     data_offset=DATA_SPACE_BYTES))
        for inst in tagged:
            assert inst.thread == 1
            if inst.mem_addr is not None:
                assert inst.mem_addr >= DATA_SPACE_BYTES

    @pytest.mark.parametrize("names", [["twolf"], ["swim", "twolf"]])
    def test_hit_miss_predictor_trains_what_it_predicted(self, names):
        # Each thread numbers its stream from 0 and seq is renumbered at
        # dispatch, so a load must be trained under the key it was
        # predicted under or the threads' predictions collide.
        programs = [WORKLOADS[name].build(1) for name in names]
        processor = run_smt(programs, configs.segmented(512, 128, "comb"),
                            budget=3000)
        assert processor.done
        stats = processor.stats
        assert stats.get("hmp.predicted_hits") > 0
        assert (stats.get("hmp.actual_hits") + stats.get("hmp.actual_misses")
                == stats.get("hmp.predictions"))
        assert (stats.get("hmp.correct_hit_predictions")
                + stats.get("hmp.wrong_hit_predictions")
                == stats.get("hmp.predicted_hits"))
        assert processor.iq.hmp._outstanding == {}

    def test_lsq_never_forwards_across_threads(self):
        # Same program twice: same thread-local addresses.  With the
        # per-thread address offset, cross-thread forwarding would show
        # up as nondeterministic forward counts vs running one copy.
        program = daxpy_program(n=64)
        single = run_smt([program], budget=None)
        double = run_smt([daxpy_program(n=64), daxpy_program(n=64)],
                         budget=None)
        assert (double.stats.get("lsq.forwards")
                == 2 * single.stats.get("lsq.forwards"))


class TestThroughput:
    def test_smt_beats_serial_execution(self):
        # Co-scheduling a memory-bound and a compute-bound analog should
        # finish faster than running them back to back.
        programs = [WORKLOADS["swim"].build(1), WORKLOADS["twolf"].build(1)]
        params = configs.segmented(512, 128, "comb")
        singles = [run_smt([p], params, budget=6000) for p in programs]
        serial_cycles = sum(p.cycle for p in singles)
        smt = run_smt(programs, params, budget=6000)
        assert smt.cycle < serial_cycles

    def test_segmented_smt_tracks_ideal_smt(self):
        # Section 7's hypothesis: chains from independent threads coexist;
        # the segmented IQ's SMT throughput should be a healthy fraction
        # of the ideal IQ's.
        programs = [WORKLOADS["swim"].build(1), WORKLOADS["twolf"].build(1)]
        seg = run_smt(programs, configs.segmented(512, 128, "comb"),
                      budget=6000)
        programs = [WORKLOADS["swim"].build(1), WORKLOADS["twolf"].build(1)]
        ideal = run_smt(programs, configs.ideal(512), budget=6000)
        assert seg.ipc > 0.55 * ideal.ipc


def _gate_thread_zero(processor):
    """Make the IQ refuse thread 0 whenever the total commit count is not
    a multiple of four (until thread 1 halts), with a refusal side effect
    the skip-ahead replay must account for exactly.  The gate only moves
    at commits, so it honours the skip contract like a real design's
    per-instruction refusals (segmented chain wires, FIFO steering)."""
    iq = processor.iq
    refusals = processor.stats.counter("test.gated_refusals")
    real = {name: getattr(iq, name) for name in
            ("can_dispatch", "next_event_cycle", "skip_cycles",
             "skip_blocked_dispatch")}
    pending = {"probe": 0, "replay": 0}

    def can_dispatch(inst):
        if (inst.thread == 0 and not processor.threads[1].halted
                and processor.committed % 4):
            refusals.inc()
            pending["probe"] += 1
            return False
        return real["can_dispatch"](inst)

    def next_event_cycle(now):
        pending["probe"] = 0        # the probe asks this before dispatch
        return real["next_event_cycle"](now)

    def skip_cycles(now, count):
        pending["replay"] = pending["probe"]
        return real["skip_cycles"](now, count)

    def skip_blocked_dispatch(count):
        if pending["replay"]:
            pending["replay"] -= 1
            refusals.inc(count)
        else:
            real["skip_blocked_dispatch"](count)

    iq.can_dispatch = can_dispatch
    iq.next_event_cycle = next_event_cycle
    iq.skip_cycles = skip_cycles
    iq.skip_blocked_dispatch = skip_blocked_dispatch


class TestSkipAhead:
    def run_gated(self, event_driven):
        # Chosen so the case under test occurs (it is rare: it needs a
        # refused thread ordered before one whose next instruction just
        # left decode, with every other stage idle).
        params = configs.ideal(16).replace(event_driven=event_driven)
        programs = [daxpy_program(n=256, stride=4), daxpy_program(n=256)]
        processor = Processor(params, [execute(p) for p in programs])
        _gate_thread_zero(processor)
        processor.run(max_cycles=200_000)
        assert processor.done
        return processor

    def test_refusal_before_an_admission_is_asked_once(self):
        # A cycle where the IQ refuses one thread but a later thread
        # still dispatches is active, yet the skip probe has already
        # asked the IQ about the refused thread: the stepped dispatch
        # must count that refusal, not ask (and side-effect) twice.
        stepped = self.run_gated(event_driven=False)
        skipping = self.run_gated(event_driven=True)
        assert skipping._probe_refused is not None      # case exercised
        assert skipping.stats.get("skip.cycles_skipped") > 0
        assert skipping.cycle == stepped.cycle
        assert (without_skip_counters(skipping.stats.as_dict())
                == without_skip_counters(stepped.stats.as_dict()))
