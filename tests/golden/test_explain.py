"""Golden provenance fixtures: committed trace in, committed evidence out.

The explain golden pins the *observability* half of the pipeline the way
``expected_alerts.json`` pins detection semantics: replaying the committed
fail-stop trace through the CLI gateway must reproduce the committed
evidence record for the first detection byte for byte — twice in a row,
and across a ``--save-checkpoint`` / ``--resume`` cut.  CI runs the same
flow through the real ``repro`` entry point and ``cmp``s the files.

Regenerate (deliberately!) with ``PYTHONPATH=src python -m tests.golden.regen``.
"""

import json
import os

from repro.cli import main

from tests.golden import regen


def _committed_explain() -> bytes:
    with open(regen.EXPLAIN_JSON, "rb") as fh:
        return fh.read()


def _stream(tmp_path, name: str, *extra: str) -> str:
    out = str(tmp_path / name)
    assert main(regen.explain_stream_args(out, *extra)) == 0
    return out


class TestProvenanceDeterminism:
    def test_two_runs_are_byte_identical(self, tmp_path):
        first = _stream(tmp_path, "run1.jsonl")
        second = _stream(tmp_path, "run2.jsonl")
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_checkpoint_cut_is_byte_identical(self, tmp_path):
        # An uninterrupted run vs the same stream cut by a checkpoint:
        # --save-checkpoint leaves the stream open (reorder tail pending,
        # session state live), --resume picks it up past the watermark and
        # finishes.  The resumed run's archive must match the full run's.
        full = _stream(tmp_path, "full.jsonl")
        ckpt = str(tmp_path / "cut.ckpt.json")
        _stream(tmp_path, "part.jsonl", "--save-checkpoint", ckpt)
        resumed = _stream(tmp_path, "resumed.jsonl", "--resume", ckpt)
        with open(full, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()

    def test_trace_ids_are_stable_content_hashes(self, tmp_path):
        records = regen.read_provenance_jsonl(_stream(tmp_path, "ids.jsonl"))
        assert records, "stream must produce provenance records"
        from repro.telemetry.provenance import trace_id

        for record in records:
            assert record["id"] == trace_id(record["alert"])
        assert len({r["id"] for r in records}) == len(records)


class TestCommittedGolden:
    def test_first_detection_matches_committed_record(self, tmp_path):
        records = regen.read_provenance_jsonl(_stream(tmp_path, "prov.jsonl"))
        record = regen.first_detection(records)
        assert regen.explain_document_bytes(record) == _committed_explain()

    def test_explain_cli_renders_committed_record(self, tmp_path, capsys):
        provenance = _stream(tmp_path, "prov.jsonl")
        committed = json.loads(_committed_explain())
        capsys.readouterr()  # drop the stream command's own output
        assert main(
            ["explain", committed["id"], "--provenance", provenance, "--json"]
        ) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == _committed_explain()

    def test_explain_narrative_names_the_cause(self, tmp_path, capsys):
        provenance = _stream(tmp_path, "prov.jsonl")
        committed = json.loads(_committed_explain())
        capsys.readouterr()
        assert main(["explain", committed["id"], "--provenance", provenance]) == 0
        out = capsys.readouterr().out
        assert committed["id"] in out
        assert "correlation violation" in out
        assert "detection latency" in out

    def test_committed_golden_documents_the_fault_scenario(self):
        # Sanity on the fixture itself: first detection of the fail-stop
        # scenario — a correlation violation after the fridge goes silent.
        record = json.loads(_committed_explain())
        assert record["schema"] == "dice-provenance/1"
        assert record["alert"]["kind"] == "detection"
        assert record["alert"]["check"] == "correlation"
        assert record["alert"]["home"] == regen.DATASET
        onset = regen.FAULT_ONSET_HOURS * 3600.0
        assert record["alert"]["time"] >= onset
        assert record["windows"], "detection must carry window evidence"
        assert record["windows"][0]["correlation"]["violation"] is True


class TestExplainJournal:
    def test_explain_reads_the_durable_archive(self, tmp_path, capsys):
        journal_dir = str(tmp_path / "journal")
        _stream(tmp_path, "prov.jsonl", "--journal-dir", journal_dir)
        # A journaled stream is a one-home fleet: <root>/<home>/provenance.wal.
        assert os.path.exists(
            os.path.join(journal_dir, regen.DATASET, "provenance.wal")
        )
        committed = json.loads(_committed_explain())
        capsys.readouterr()
        assert main(
            ["explain", committed["id"], "--journal-dir", journal_dir, "--json"]
        ) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == _committed_explain()

    def test_unknown_selector_fails_cleanly(self, tmp_path, capsys):
        provenance = _stream(tmp_path, "prov.jsonl")
        capsys.readouterr()
        assert main(
            ["explain", "ffffffffffffffff", "--provenance", provenance]
        ) == 1
