"""Cross-model conformance suite.

Every IQ design registered in :mod:`repro.core.registry` is held to the
same two contracts, with no per-design test code:

* **Oracle agreement** — under its small, edge-case-heavy
  ``validation_config`` the design must commit exactly the architectural
  instruction stream on seeded fuzz programs (the same differential
  check ``python -m repro validate`` runs at scale), with the pipeline
  invariant checker enabled.

* **Event-driven bit-identity** — under its workload-scale
  ``conformance_config`` a run with event-driven cycle skipping must be
  indistinguishable from the plain cycle loop: identical cycle counts,
  identical statistics apart from the ``skip.*`` bookkeeping counters,
  and identical JSONL trace streams, across all eight benchmarks and
  four two-thread SMT pairings of them.  The invariant checker stays off
  here: it disables skipping, so it would reduce the matrix to two
  plain-loop runs.

Both contracts also hold for SMT: two fuzz programs co-scheduled as
threads must each retire exactly their own golden stream.

Because the suite parametrizes over :func:`registered_models`, a newly
registered design (see docs/models.md) is picked up — and held to both
contracts — automatically.
"""

import pytest

from repro.core.registry import registered_models
from repro.isa import execute
from repro.pipeline import Processor
from repro.validation.generator import FuzzProfile, build_fuzz_program
from repro.validation.oracle import (DEFAULT_MAX_CYCLES, _diff_state,
                                     _replay_retired, differential_check,
                                     golden_reference)
from repro.workloads import WORKLOADS

from tests.conftest import traced_run, without_skip_counters

MODELS = registered_models()

# Eight seeds is enough to hit full-queue and recovery paths under the
# deliberately tiny validation configs; the nightly campaign runs many
# more (python -m repro validate).
ORACLE_SEEDS = range(8)

ORACLE_PROFILE = FuzzProfile(length=30, loop_iterations=3)


class TestRegistry:
    def test_expected_designs_are_registered(self):
        # The six in-tree designs, in registration order.  Extending this
        # list is the only edit this suite needs for a new design.
        assert list(MODELS) == ["ideal", "segmented", "prescheduled",
                                "distance", "fifo", "delay_tracking"]

    def test_configs_validate_and_match_their_kind(self):
        for kind, model in MODELS.items():
            assert model.description
            for factory in (model.validation_config,
                            model.conformance_config):
                params = factory()
                params.validate()
                assert params.iq.kind == kind, (kind, factory)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_oracle_agreement(kind):
    params = MODELS[kind].validation_config().replace(check_invariants=True)
    for seed in ORACLE_SEEDS:
        program = build_fuzz_program(ORACLE_PROFILE.with_seed(seed))
        result = differential_check(program, params, model=kind)
        assert result.ok, f"seed {seed}: {result}"


def _smt_retired(programs, params):
    """Co-schedule ``programs`` as SMT threads; each thread's retired
    stream, in commit order."""
    processor = Processor(params, [execute(program) for program in programs])
    for thread, program in enumerate(programs):
        processor.warm_code(program, thread=thread)
    retired = [[] for _ in programs]
    processor.commit_listeners.append(
        lambda inst, cycle: retired[inst.thread].append(inst))
    processor.run(max_cycles=DEFAULT_MAX_CYCLES)
    assert processor.done
    return retired


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_smt_oracle_agreement(kind):
    """Two fuzz programs as SMT threads sharing the IQ, with invariants
    on: each thread retires its golden stream and replays to its golden
    architectural state.  Streams compare by position and pc: SMT
    renumbers seq into the shared dispatch order."""
    params = MODELS[kind].validation_config().replace(check_invariants=True)
    for seed in ORACLE_SEEDS:
        programs = [build_fuzz_program(ORACLE_PROFILE.with_seed(s))
                    for s in (seed, seed + len(ORACLE_SEEDS))]
        retired = _smt_retired(programs, params)
        for thread, program in enumerate(programs):
            where = f"seed {seed} thread {thread}"
            golden_state, golden = golden_reference(program)
            assert ([inst.pc for inst in retired[thread]]
                    == [inst.pc for inst in golden]), where
            replayed, divergences = _replay_retired(program, retired[thread])
            assert not divergences, where
            assert not _diff_state(golden_state, replayed), where


#: Two-thread rows: every analog runs in exactly one pairing.
SMT_PAIRS = ["ammp+applu", "equake+gcc", "mgrid+swim", "twolf+vortex"]


def _run(kind, workload, event_driven):
    params = MODELS[kind].conformance_config().replace(
        event_driven=event_driven)
    # 1200 instructions per cell: split across the threads of a pair.
    budget = 600 if "+" in workload else 1200
    return traced_run(params, workload, budget)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS) + SMT_PAIRS)
def test_event_driven_bit_identity(workload, kind):
    on_cycles, on_insts, on_stats, trace_on = _run(kind, workload, True)
    off_cycles, off_insts, off_stats, trace_off = _run(kind, workload, False)
    assert on_cycles == off_cycles
    assert on_insts == off_insts
    assert (without_skip_counters(on_stats)
            == without_skip_counters(off_stats))
    assert trace_on == trace_off
    # The comparison is only meaningful if skipping actually happened,
    # and the plain loop must not report any.
    assert on_stats["skip.cycles_skipped"] > 0
    assert off_stats.get("skip.cycles_skipped", 0) == 0
