"""The fsync'd job journal: replay, torn tails, and compaction."""

import json

from repro.service.journal import JobJournal
from repro.service.jobs import Job


def _job(job_id: str, **overrides) -> Job:
    fields = dict(id=job_id, kind="run", key=f"key-{job_id}",
                  tenant="alice", payload={"workload": "twolf"},
                  cost=1000.0, timeout=60.0)
    fields.update(overrides)
    return Job(**fields)


class TestReplay:
    def test_roundtrip_folds_transitions(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001"))
        journal.append("j-000001", "running", started_at=12.5)
        journal.append("j-000001", "done")
        journal.submitted(_job("j-000002", tenant="bob"))

        folded = JobJournal.replay(path)
        assert folded["j-000001"]["state"] == "done"
        assert folded["j-000001"]["started_at"] == 12.5
        assert folded["j-000001"]["key"] == "key-j-000001"
        assert folded["j-000002"]["state"] == "pending"
        assert folded["j-000002"]["tenant"] == "bob"

    def test_missing_file_is_empty(self, tmp_path):
        assert JobJournal.replay(tmp_path / "nope.jsonl") == {}

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001"))
        journal.append("j-000001", "running")
        with open(path, "a") as handle:
            handle.write('{"job": "j-000001", "state": "do')  # crash here
        folded = JobJournal.replay(path)
        assert folded["j-000001"]["state"] == "running"

    def test_artifact_is_in_the_submission_record(self, tmp_path):
        """A traced job's artifact is journaled at submission, not only
        at the terminal transition — a job pending at a crash must not
        resume with its artifact forgotten."""
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001", artifact="j-000001.jsonl"))
        folded = JobJournal.replay(path)
        assert folded["j-000001"]["artifact"] == "j-000001.jsonl"
        journal.compact()
        compacted = JobJournal.replay(path)
        assert compacted["j-000001"]["artifact"] == "j-000001.jsonl"

    def test_error_and_artifact_fold_in(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001"))
        journal.append("j-000001", "failed", error="boom",
                       artifact="j-000001.jsonl")
        folded = JobJournal.replay(path)
        assert folded["j-000001"]["error"] == "boom"
        assert folded["j-000001"]["artifact"] == "j-000001.jsonl"


class TestCompaction:
    def test_keeps_live_drops_old_terminal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for index in range(1, 11):
            job_id = f"j-{index:06d}"
            journal.submitted(_job(job_id))
            if index <= 8:
                journal.append(job_id, "done")
        kept = journal.compact(keep_terminal=3)
        # 2 live + the 3 most recent terminal survive.
        assert set(kept) == {"j-000006", "j-000007", "j-000008",
                             "j-000009", "j-000010"}
        on_disk = JobJournal.replay(path)
        assert set(on_disk) == set(kept)
        assert on_disk["j-000009"]["state"] == "pending"
        assert on_disk["j-000006"]["state"] == "done"

    def test_compaction_preserves_submission_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001", cost=42.0, timeout=7.0))
        journal.append("j-000001", "running", started_at=3.0)
        journal.compact()
        journal.append("j-000001", "done")
        folded = JobJournal.replay(path)
        record = folded["j-000001"]
        assert record["cost"] == 42.0
        assert record["timeout"] == 7.0
        assert record["payload"] == {"workload": "twolf"}
        assert record["state"] == "done"

    def test_every_line_is_valid_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001"))
        journal.append("j-000001", "done")
        journal.compact()
        for line in path.read_text().splitlines():
            json.loads(line)
