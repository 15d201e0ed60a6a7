"""AppendLog: the fsync'd JSONL primitive under both journals."""

import os
import stat

from repro.common.appendlog import AppendLog


class TestAppendAndRecords:
    def test_roundtrip_in_order(self, tmp_path):
        log = AppendLog(tmp_path / "sub" / "log.jsonl")
        log.append({"n": 1, "b": "x"})
        log.append({"n": 2})
        assert list(log.records()) == [{"n": 1, "b": "x"}, {"n": 2}]
        # One sorted-key json.dumps line per record.
        assert log.path.read_text() == '{"b": "x", "n": 1}\n{"n": 2}\n'

    def test_missing_file_has_no_records(self, tmp_path):
        assert list(AppendLog(tmp_path / "nope.jsonl").records()) == []

    def test_skips_torn_blank_and_foreign_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n\n[1, 2]\nnot json\n"text"\n{"n": 2}\n'
                        '{"n": 3, "torn')
        assert list(AppendLog(path).records()) == [{"n": 1}, {"n": 2}]

    def test_append_ends_a_torn_tail_first(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": 2, "to')
        log = AppendLog(path)
        log.append({"n": 3})
        assert list(log.records()) == [{"n": 1}, {"n": 3}]

    def test_append_keeps_a_complete_unterminated_tail(self, tmp_path):
        """A crash between the record bytes and the newline leaves a
        whole record; it replays, and stays after the next append."""
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": 2}')
        log = AppendLog(path)
        assert list(log.records()) == [{"n": 1}, {"n": 2}]
        log.append({"n": 3})
        assert list(log.records()) == [{"n": 1}, {"n": 2}, {"n": 3}]


class TestRewrite:
    def test_replaces_contents_and_leaves_no_temp(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        for n in range(5):
            log.append({"n": n})
        log.rewrite({"n": n} for n in (3, 4))
        assert list(log.records()) == [{"n": 3}, {"n": 4}]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]
        log.append({"n": 5})
        assert [r["n"] for r in log.records()] == [3, 4, 5]

    def test_fsyncs_file_then_directory_after_replace(self, tmp_path,
                                                      monkeypatch):
        """The rename is durable only once the parent directory is
        synced: the file fsync must precede ``os.replace`` and a
        directory fsync must follow it."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(f"fsync-{kind}")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        log = AppendLog(tmp_path / "log.jsonl")
        log.append({"n": 1})
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        log.rewrite([{"n": 2}])
        assert events == ["fsync-file", "replace", "fsync-dir"]
        assert list(log.records()) == [{"n": 2}]

    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        log = AppendLog(tmp_path / "log.jsonl")
        log.append({"n": 1})
        log.append({"n": 2})
        assert len(synced) == 2
