"""Exhaustive crash consistency of the sweep and job journals.

A crash can stop an append after any byte.  For a recorded sweep
journal and a recorded job journal, cut the file at every byte offset
and check that

* replay equals the fold of the complete records before the cut;
* a record appended after the cut replays intact.

At every record boundary of the sweep journal, and one byte either
side, a journaled sweep is resumed against the cache as it stood at the
cut: no cell whose result had landed is executed again.
"""

import dataclasses

import pytest

from repro.fabric import (ExecutionConfig, Executor, RunSpec, SweepJournal,
                          raise_on_errors)
from repro.harness import configs
from repro.harness.cache import ResultCache
from repro.service.jobs import Job
from repro.service.journal import JobJournal


def _specs():
    seg = configs.segmented(64, 16, "comb", segment_size=16)
    return [RunSpec("twolf", configs.ideal(32), config_label="ideal-32",
                    max_instructions=300),
            RunSpec("twolf", seg, config_label="seg-64",
                    max_instructions=300),
            RunSpec("swim", configs.ideal(32), config_label="ideal-32",
                    max_instructions=300)]


class PutLog(ResultCache):
    """A ResultCache recording every put (every executed cell) with the
    journal's size at the moment the result landed."""

    def __init__(self, directory, journal_path):
        super().__init__(directory)
        self.journal_path = journal_path
        self.puts = []

    def put(self, key, result):
        super().put(key, result)
        size = (self.journal_path.stat().st_size
                if self.journal_path.exists() else 0)
        self.puts.append((key, size))


def _complete_prefix(data: bytes, cut: int) -> bytes:
    """The records a cut at ``cut`` leaves whole: every line whose
    bytes, bar at most its newline, precede the cut."""
    kept, offset = [], 0
    for line in data.splitlines(keepends=True):
        if offset + len(line) - 1 > cut:
            break
        kept.append(line)
        offset += len(line)
    return b"".join(kept)


def _job(job_id: str, **overrides) -> Job:
    fields = dict(id=job_id, kind="run", key=f"key-{job_id}",
                  tenant="alice", payload={"workload": "twolf"},
                  cost=1000.0, timeout=60.0, submitted_at=100.0)
    fields.update(overrides)
    return Job(**fields)


@pytest.fixture(scope="module")
def recorded_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("recorded-sweep")
    journal = root / "sweep.jsonl"
    cache = PutLog(root / "cache", journal)
    results = Executor(ExecutionConfig(
        jobs=1, cache=cache, journal=journal)).run_specs(_specs())
    raise_on_errors(results, "recorded sweep")
    data = journal.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == 9
    return data, cache.puts, results


@pytest.fixture(scope="module")
def recorded_jobs(tmp_path_factory):
    path = tmp_path_factory.mktemp("recorded-jobs") / "journal.jsonl"
    journal = JobJournal(path)
    journal.submitted(_job("j-000001"))
    journal.submitted(_job("j-000002", tenant="bob"))
    journal.append("j-000001", "running", started_at=101.5)
    journal.submitted(_job("j-000003", shared_with="j-000001",
                           dedupe="inflight"))
    journal.append("j-000001", "done", result_key="key-j-000001")
    journal.append("j-000003", "done")
    journal.append("j-000002", "running", started_at=102.5)
    journal.append("j-000002", "failed", error="boom")
    return path.read_bytes()


class TestEveryByteOffset:
    def test_sweep_journal(self, recorded_sweep, tmp_path):
        data = recorded_sweep[0]
        cut_path, clean_path = tmp_path / "cut.jsonl", tmp_path / "clean.jsonl"
        for cut in range(len(data) + 1):
            cut_path.write_bytes(data[:cut])
            clean_path.write_bytes(_complete_prefix(data, cut))
            want = SweepJournal(clean_path)
            got = SweepJournal(cut_path)
            assert (got.states, got.labels) == \
                (want.states, want.labels), f"cut at byte {cut}"
            got.record("after-crash", "done", "late/cell")
            again = SweepJournal(cut_path)
            assert again.states == dict(want.states,
                                        **{"after-crash": "done"}), \
                f"append after a cut at byte {cut} was lost"
            assert again.labels["after-crash"] == "late/cell"

    def test_job_journal(self, recorded_jobs, tmp_path):
        data = recorded_jobs
        cut_path, clean_path = tmp_path / "cut.jsonl", tmp_path / "clean.jsonl"
        for cut in range(len(data) + 1):
            cut_path.write_bytes(data[:cut])
            clean_path.write_bytes(_complete_prefix(data, cut))
            want = JobJournal.replay(clean_path)
            assert JobJournal.replay(cut_path) == want, f"cut at byte {cut}"
            JobJournal(cut_path).submitted(_job("j-000099"))
            again = JobJournal.replay(cut_path)
            assert list(again) == list(want) + ["j-000099"], \
                f"append after a cut at byte {cut} was lost"
            assert {job_id: again[job_id] for job_id in want} == want
            assert again["j-000099"]["state"] == "pending"


class TestResumeAtRecordBoundaries:
    def test_zero_duplicate_executions(self, recorded_sweep, tmp_path):
        data, puts, reference = recorded_sweep
        probe = ResultCache(tmp_path / "keys")
        by_key = {probe.key_for(spec.workload, spec.params,
                                **spec.cache_kwargs()): result
                  for spec, result in zip(_specs(), reference)}
        assert sorted(key for key, _ in puts) == sorted(by_key)
        boundaries = [0] + [index + 1 for index, byte in enumerate(data)
                            if byte == ord("\n")]
        cuts = sorted({cut for boundary in boundaries
                       for cut in (boundary - 1, boundary, boundary + 1)
                       if 0 <= cut <= len(data)})
        for cut in cuts:
            case = tmp_path / f"cut-{cut}"
            journal = case / "sweep.jsonl"
            case.mkdir()
            journal.write_bytes(data[:cut])
            cache = PutLog(case / "cache", journal)
            landed = {key for key, size in puts if size <= cut}
            for key in landed:
                cache.put(key, by_key[key])
            cache.puts.clear()

            resumed = Executor(ExecutionConfig(
                jobs=1, cache=cache, journal=journal)).run_specs(_specs())

            executed = [key for key, _ in cache.puts]
            assert not landed & set(executed), \
                f"cut at byte {cut}: a landed cell executed again"
            assert sorted(executed) == sorted(set(by_key) - landed), cut
            assert [dataclasses.asdict(result) for result in resumed] == \
                [dataclasses.asdict(result) for result in reference], cut
            final = SweepJournal(journal)
            assert all(final.done(key) for key in by_key), cut
