"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


class TestParserImports:
    def test_building_the_parser_loads_no_runtime_layer(self):
        # Every command pays for what _build_parser imports; the durable,
        # fleet and service layers and the chaos driver load on use only.
        probe = (
            "import sys\n"
            "from repro.cli import _build_parser\n"
            "_build_parser()\n"
            "heavy = ('repro.durability', 'repro.fleet', 'repro.service', "
            "'repro.faults.crash')\n"
            "print(sorted(name for name in heavy if name in sys.modules))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "[]"


class TestList:
    def test_lists_all_datasets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("houseA", "twor", "hh102", "D_houseA", "D_hh102"):
            assert name in out


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = main(
            ["generate", "houseA", "--hours", "6", "--seed", "1", "-o", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        assert (tmp_path / "trace.devices.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_roundtrips_through_io(self, tmp_path):
        out_path = tmp_path / "trace.csv"
        main(["generate", "houseA", "--hours", "6", "--seed", "1", "-o", str(out_path)])
        from repro.datasets import read_trace

        trace = read_trace(str(out_path))
        assert len(trace.registry) == 14


class TestEvaluate:
    def test_prints_metrics(self, capsys):
        code = main(
            ["evaluate", "houseA", "--scale", "0.2", "--pairs", "4", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detection:" in out
        assert "identification:" in out
        assert "correlation degree:" in out


class TestStream:
    # Live window 30-40 h lands in daytime, where houseA actually has events.
    ARGS = [
        "stream", "houseA",
        "--hours", "40", "--train-hours", "30", "--seed", "3",
    ]

    def test_clean_stream_prints_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "streamed" in out
        assert "dropped events: 0" in out

    def test_pipe_faults_are_survived_and_counted(self, capsys):
        code = main(
            self.ARGS
            + ["--pipe-faults", "reorder,duplicate,corrupt_value",
               "--pipe-rate", "0.1", "--lateness", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "non_finite_value" in out

    def test_checkpoint_save_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "gateway.json"
        assert main(self.ARGS + ["--save-checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()
        # Diagnostics go through the structured logger on stderr; stdout
        # stays reserved for the stream summary.
        captured = capsys.readouterr()
        assert "checkpoint saved" in captured.err
        assert "checkpoint saved" not in captured.out
        assert main(self.ARGS + ["--resume", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert "resumed from" in captured.err
        assert "streamed" in captured.out

    def test_bad_split_rejected(self, capsys):
        code = main(
            ["stream", "houseA", "--hours", "10", "--train-hours", "20"]
        )
        assert code == 2

    def test_journal_and_alert_delivery(self, tmp_path, capsys):
        import json

        journal = tmp_path / "journal"
        alerts_out = tmp_path / "alerts.jsonl"
        code = main(
            self.ARGS
            + ["--journal-dir", str(journal), "--alerts-out", str(alerts_out)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alerts delivered:" in out
        assert journal.is_dir()
        if alerts_out.exists():  # only created when alerts actually fired
            for line in alerts_out.read_text().splitlines():
                assert "id" in json.loads(line)

    def test_alerts_out_requires_journal_dir(self, tmp_path):
        assert (
            main(self.ARGS + ["--alerts-out", str(tmp_path / "alerts.jsonl")]) == 2
        )

    def test_journal_checkpoint_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "journal"
        ckpt = tmp_path / "gateway.json"
        args = self.ARGS + ["--journal-dir", str(journal)]
        assert main(args + ["--save-checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(args + ["--resume", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert "resumed from checkpoint + journal tail" in captured.err
        assert "streamed" in captured.out

    def test_corrupt_checkpoint_is_one_actionable_line(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.json"
        ckpt.write_text("{torn mid-write")
        journal = tmp_path / "journal"
        code = main(
            self.ARGS
            + ["--journal-dir", str(journal), "--resume", str(ckpt)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "resume_failed" in err
        assert "corrupt checkpoint" in err
        assert str(ckpt) in err

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        import json

        from repro.telemetry import SNAPSHOT_SCHEMA

        out = tmp_path / "metrics.json"
        assert main(self.ARGS + ["--metrics-out", str(out)]) == 0
        assert "wrote metrics snapshot" in capsys.readouterr().out
        snap = json.loads(out.read_text())
        assert snap["schema"] == SNAPSHOT_SCHEMA
        windows = snap["metrics"]["dice_windows_total"]["series"][0]["value"]
        assert windows > 0

    def test_json_log_format(self, tmp_path, capsys):
        import json

        ckpt = tmp_path / "gateway.json"
        code = main(
            ["--log-format", "json"]
            + self.ARGS
            + ["--save-checkpoint", str(ckpt)]
        )
        assert code == 0
        err_lines = capsys.readouterr().err.splitlines()
        records = [json.loads(line) for line in err_lines if line.strip()]
        assert any(r["event"] == "checkpoint_saved" for r in records)


class TestFleet:
    ARGS = [
        "fleet", "--homes", "2",
        "--hours", "28", "--train-hours", "24", "--seed", "5",
    ]

    def test_fleet_prints_summary(self, capsys):
        assert main(self.ARGS + ["--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 homes on 2 shards" in out
        assert "dispatched" in out
        assert "homes per shard:" in out
        assert "unrouted" not in out  # only printed when non-zero

    def test_checkpoint_save_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "fleet-ckpt"
        assert main(self.ARGS + ["--save-checkpoint", str(ckpt)]) == 0
        assert (ckpt / "manifest.json").exists()
        # Resume onto a different shard count: sharding is a scaling knob,
        # not part of the checkpointed state.
        assert main(self.ARGS + ["--shards", "3", "--resume", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "2 homes on 3 shards" in out

    def test_metrics_out_writes_merged_snapshot(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        assert main(self.ARGS + ["--metrics-out", str(out)]) == 0
        snap = json.loads(out.read_text())
        assert "dice_fleet_events_total" in snap["metrics"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--homes", "0"],
            ["fleet", "--homes", "2", "--shards", "0"],
            ["fleet", "--homes", "2", "--shards", "-3"],
            ["fleet", "--homes", "2", "--hours", "10", "--train-hours", "10"],
        ],
    )
    def test_bad_parameters_exit_2(self, argv, capsys):
        assert main(argv) == 2

    def test_resume_garbage_exit_2(self, tmp_path):
        assert main(self.ARGS + ["--resume", str(tmp_path / "nope")]) == 2


class TestExplainJournalRoot:
    """``explain --journal-dir`` reads a fleet journal root as well as one
    home's journal directory."""

    @pytest.fixture
    def fleet_root(self, tmp_path, capsys):
        root, alerts = tmp_path / "fwal", tmp_path / "a.jsonl"
        assert main(
            TestFleet.ARGS
            + ["--journal-dir", str(root), "--alerts-out", str(alerts)]
        ) == 0
        capsys.readouterr()
        ids = [json.loads(line)["id"] for line in alerts.read_text().splitlines()]
        homes = sorted({json.loads(line)["home"] for line in alerts.read_text().splitlines()})
        assert len(homes) == 2, "both homes must raise alerts"
        return root, ids

    def test_prefix_searches_every_home(self, fleet_root, capsys):
        root, ids = fleet_root
        for alert_id in (ids[0], ids[-1]):
            assert main(["explain", alert_id[:12], "--journal-dir", str(root), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["id"] == alert_id

    @pytest.mark.parametrize("selector", [["--last"], ["--seq", "1"]])
    def test_last_or_seq_on_a_multi_home_root_names_the_homes(
        self, fleet_root, capsys, selector
    ):
        root, _ = fleet_root
        assert main(["explain", "--journal-dir", str(root)] + selector) == 2
        err = capsys.readouterr().err
        assert "home-0000" in err and "home-0001" in err

    def test_last_on_a_one_home_root(self, tmp_path, capsys):
        # ``stream --journal-dir`` is a one-home fleet: the root holds one
        # home archive, so --last needs no home directory.
        root = tmp_path / "wal"
        assert main(TestStream.ARGS + ["--journal-dir", str(root)]) == 0
        capsys.readouterr()
        assert main(["explain", "--journal-dir", str(root), "--last", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["alert"]["home"] == "houseA"

    def test_last_on_one_home_directory(self, fleet_root, capsys):
        root, _ = fleet_root
        assert main(["explain", "--journal-dir", str(root / "home-0001"), "--last"]) == 0
        assert "home-0001" in capsys.readouterr().out


def _alert_ids(path):
    return sorted(json.loads(line)["id"] for line in path.read_text().splitlines())


def _serve(tmp_path, argv, timeout=120.0):
    """Run ``repro serve`` in a child; SIGTERM it once it listens.

    Returns ``(exit code, stderr)``.  A server that refuses to start exits
    on its own before writing the ports file.
    """
    import signal
    import time

    ports = tmp_path / "ports.json"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *argv, "--ports-out", str(ports)],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + timeout
    while proc.poll() is None and time.monotonic() < deadline:
        if ports.exists() and ports.stat().st_size:
            proc.send_signal(signal.SIGTERM)
            break
        time.sleep(0.1)
    try:
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:  # pragma: no cover - hung server
            proc.kill()
            proc.wait()
    return proc.returncode, err


class TestReusedJournalDir:
    """``stream``, ``fleet`` and ``serve`` give ``--journal-dir`` one meaning:
    without ``--resume`` a root that already holds a journal is refused;
    ``--resume PATH`` with no checkpoint at PATH replays the whole journal
    into a fresh gateway (a crash before the first checkpoint)."""

    SERVE_ARGS = ["--homes", "2", "--hours", "28", "--train-hours", "24", "--seed", "5"]

    @pytest.fixture(params=["stream", "fleet"])
    def journaled(self, request, tmp_path, capsys):
        """A finished journaled run: ``(argv, alerts path)``."""
        base = TestStream.ARGS if request.param == "stream" else TestFleet.ARGS
        alerts = tmp_path / "alerts.jsonl"
        argv = base + ["--journal-dir", str(tmp_path / "wal"), "--alerts-out", str(alerts)]
        assert main(argv) == 0
        capsys.readouterr()
        return argv, alerts

    def test_reuse_without_resume_exits_2(self, journaled, capsys):
        argv, alerts = journaled
        before = alerts.read_text()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "bad_journal" in err[0] and "--resume" in err[0]
        assert alerts.read_text() == before

    def test_resume_without_checkpoint_replays_the_journal(
        self, journaled, tmp_path, capsys
    ):
        argv, alerts = journaled
        before = _alert_ids(alerts)
        assert main(argv + ["--resume", str(tmp_path / "no-ckpt")]) == 0
        assert "replayed the whole journal" in capsys.readouterr().err
        # The replay re-raises the journaled run's alerts under the same
        # ids, so the at-least-once outbox delivers nothing new.
        assert _alert_ids(alerts) == before

    @pytest.fixture
    def fleet_journal(self, tmp_path, capsys):
        """A fleet journal root holding the homes ``serve`` hosts."""
        root = tmp_path / "wal"
        assert main(["fleet"] + self.SERVE_ARGS + ["--journal-dir", str(root)]) == 0
        capsys.readouterr()
        return root

    def test_serve_reuse_without_resume_exits_2(self, fleet_journal, tmp_path):
        code, err = _serve(tmp_path, self.SERVE_ARGS + ["--journal-dir", str(fleet_journal)])
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        assert "bad_journal" in lines[0] and "--resume" in lines[0]

    def test_serve_resume_without_checkpoint_replays_the_journal(
        self, fleet_journal, tmp_path
    ):
        code, err = _serve(
            tmp_path,
            self.SERVE_ARGS
            + ["--journal-dir", str(fleet_journal), "--resume", str(tmp_path / "no-ckpt")],
        )
        assert code == 0, err
        assert "replayed the whole journal" in err


class TestChaos:
    def test_standalone_smoke(self, tmp_path, capsys):
        code = main(
            [
                "chaos", "--mode", "standalone",
                "--deployments", "1", "--kills", "2", "--seed", "0",
                "--workdir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "standalone: 2 trials" in out
        assert "OK" in out
        assert "FAIL" not in out

    def test_fleet_smoke(self, tmp_path, capsys):
        code = main(
            [
                "chaos", "--mode", "fleet",
                "--fleets", "1", "--fleet-kills", "2", "--homes", "2",
                "--seed", "0", "--workdir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 2 trials" in out
        assert "OK" in out

    def test_non_fail_stop_fault_class(self, tmp_path, capsys):
        code = main(
            [
                "chaos", "--mode", "standalone",
                "--deployments", "1", "--kills", "1", "--seed", "0",
                "--fault-class", "stuck_at", "--workdir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_all_layers_with_a_non_fail_stop_victim(self, tmp_path, capsys):
        code = main(
            [
                "chaos", "--mode", "all", "--seed", "0",
                "--deployments", "1", "--kills", "2", "--fleets", "1",
                "--fleet-kills", "2", "--homes", "2",
                "--fault-class", "stuck_at", "--workdir", str(tmp_path),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["standalone", "fleet", "service"]
        assert all(line.endswith("-> OK") for line in lines)

    def test_unknown_fault_class_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--fault-class", "gremlins"])
        assert excinfo.value.code == 2


class TestScenarios:
    def test_list_prints_cell_ids(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fault:fail_stop:houseA:single:plain" in out
        assert "drift:seasonal_shift:synthetic:single:refresh" in out

    def test_mini_matrix_writes_valid_report(self, tmp_path, capsys):
        out_path = tmp_path / "scenario-report.json"
        code = main(
            [
                "scenarios", "--seed", "7", "--trials", "1",
                "--cells", "drift:seasonal_shift", "-o", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drift seasonal_shift: sustained alerts/h" in out
        from repro.scenarios import validate_report

        with open(out_path, encoding="utf-8") as fh:
            doc = validate_report(json.load(fh))
        assert {row["id"] for row in doc["cells"]} == {
            "drift:seasonal_shift:synthetic:single:plain",
            "drift:seasonal_shift:synthetic:single:refresh",
        }

    def test_bad_cell_filter_exits_2(self):
        assert main(["scenarios", "--cells", "no_such_cell"]) == 2


class TestMetrics:
    def _snapshot(self, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(TestStream.ARGS + ["--metrics-out", str(out)]) == 0
        return out

    def test_table_format(self, tmp_path, capsys):
        path = self._snapshot(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dice_windows_total" in out
        assert "dice_stage_seconds" in out

    def test_prom_format_is_valid_exposition(self, tmp_path, capsys):
        from repro.telemetry.prometheus import validate_prometheus_text

        path = self._snapshot(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path), "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert validate_prometheus_text(text) > 0

    def test_json_format_round_trips(self, tmp_path, capsys):
        import json

        path = self._snapshot(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(path.read_text())

    def test_bad_snapshot_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        assert main(["metrics", str(bad)]) == 2
        assert main(["metrics", str(tmp_path / "missing.json")]) == 2


class TestExperiment:
    def test_degree_table(self, capsys):
        code = main(
            [
                "experiment", "degree",
                "--datasets", "houseA",
                "--scale", "0.2",
                "--pairs", "4",
            ]
        )
        assert code == 0
        assert "correlation degree" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])


class TestBench:
    def test_quick_bench_writes_valid_document(self, tmp_path, capsys):
        import json

        from repro.bench import BENCH_SCHEMA, validate_document

        out = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--quick",
                "--groups", "40",
                "--windows", "200",
                "-o", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "scan:" in printed and "provenance:" in printed
        doc = json.loads(out.read_text())
        assert doc["schema"] == BENCH_SCHEMA == "dice-bench-perf/11"
        assert validate_document(doc) is doc
        assert set(doc) == {
            "schema", "quick", "seed", "machine", "fit", "scan", "provenance",
        }
        assert doc["scan"][0]["groups"] == 40
        assert doc["provenance"]["alerts_identical"] is True
        assert doc["provenance"]["events"] > 0
        assert doc["provenance"]["overhead_ratio"] >= 0

        # The validator is what CI gates on: it must reject mutations.
        for mutate in (
            lambda d: d.update(schema="dice-bench-perf/10"),
            lambda d: d.update(capacity={}),
            lambda d: d.pop("fit"),
            lambda d: d["scan"][0].update(kernel="simd"),
            lambda d: d["provenance"].update(alerts_identical=False),
        ):
            bad = json.loads(out.read_text())
            mutate(bad)
            with pytest.raises(ValueError):
                validate_document(bad)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
