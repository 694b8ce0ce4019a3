"""Tests for the command-line interface (generate/train/predict/explain/evaluate)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run generate once; share the artifacts across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    telemetry = root / "telemetry.csv"
    labels = root / "labels.json"
    rc = main([
        "generate",
        "--output", str(telemetry),
        "--labels", str(labels),
        "--jobs", "6", "--anomalous-jobs", "2",
        "--nodes", "2", "--duration", "120", "--seed", "3",
    ])
    assert rc == 0
    return root, telemetry, labels


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--output", "o.csv", "--labels", "l.json"]
        )
        assert args.command == "generate"
        assert args.jobs == 12

    def test_train_fast_path_args(self):
        args = build_parser().parse_args([
            "train", "--telemetry", "t.csv", "--artifacts", "d",
            "--batch-size", "32", "--patience", "-1",
        ])
        assert args.batch_size == 32
        assert args.patience == -1

    def test_explain_args(self):
        args = build_parser().parse_args([
            "explain", "--telemetry", "t.csv", "--artifacts", "d", "--job", "7",
        ])
        assert args.command == "explain"
        assert args.node is None
        assert args.max_metrics == 5
        assert args.distractors == 10

    def test_serve_args(self):
        args = build_parser().parse_args([
            "serve", "--telemetry", "t.csv", "--artifacts", "d",
            "--dashboard", "node_analysis", "--job", "3",
            "--metric", "a", "--metric", "b",
        ])
        assert args.command == "serve"
        assert args.metric == ["a", "b"]
        assert args.tenant == "operator"

    def test_loadgen_args(self):
        args = build_parser().parse_args(["loadgen", "--mode", "closed"])
        assert args.command == "loadgen"
        assert args.mode == "closed"
        assert args.promote_at is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--mode", "sideways"])


class TestGenerate:
    def test_outputs_exist_and_are_consistent(self, workspace):
        root, telemetry, labels = workspace
        assert telemetry.exists() and labels.exists()
        label_map = json.loads(labels.read_text())
        assert len(label_map) == 8 * 2  # 8 jobs x 2 nodes
        assert sum(label_map.values()) == 2  # one anomalous node per bad job

        from repro.telemetry import read_csv

        frame = read_csv(telemetry)
        assert len(frame.jobs()) == 8


@pytest.fixture(scope="module")
def deployment(workspace):
    """Train once on the shared workspace; serve/predict tests reuse it."""
    root, telemetry, labels = workspace
    artifacts = root / "deploy"
    rc = main([
        "train",
        "--telemetry", str(telemetry),
        "--labels", str(labels),
        "--artifacts", str(artifacts),
        "--features", "128", "--epochs", "80", "--trim", "10", "--seed", "0",
    ])
    assert rc == 0
    return artifacts


class TestTrainPredictEvaluate:
    def test_artifacts_written(self, deployment):
        assert (deployment / "metadata.json").exists()

    def test_predict_table(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "predict",
            "--telemetry", str(telemetry),
            "--artifacts", str(deployment),
            "--job", "1", "--trim", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "job 1" in out and "node" in out

    def test_predict_json(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "predict", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--job", "2", "--trim", "10", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert {"component_id", "prediction", "score"} <= set(payload[0])

    def test_predict_unknown_job(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "predict", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--job", "999", "--trim", "10",
        ])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_evaluate_reports_f1(self, workspace, deployment, capsys):
        root, telemetry, labels = workspace
        rc = main([
            "evaluate", "--telemetry", str(telemetry),
            "--labels", str(labels), "--artifacts", str(deployment), "--trim", "10",
        ])
        assert rc == 0
        assert "macro-F1" in capsys.readouterr().out

    def test_explain_text(self, workspace, deployment, capsys):
        root, telemetry, labels = workspace
        anomalous_job = min(
            int(key.split(":")[0])
            for key, v in json.loads(labels.read_text()).items() if v == 1
        )
        rc = main([
            "explain", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--job", str(anomalous_job),
            "--trim", "10", "--max-metrics", "2", "--distractors", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P(anomalous)" in out
        assert "classifier evaluations" in out

    def test_explain_json(self, workspace, deployment, capsys):
        root, telemetry, labels = workspace
        job, node = min(
            (int(k.split(":")[0]), int(k.split(":")[1]))
            for k, v in json.loads(labels.read_text()).items() if v == 1
        )
        rc = main([
            "explain", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--job", str(job), "--node", str(node),
            "--trim", "10", "--max-metrics", "2", "--distractors", "4", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["job_id"] == job and payload["component_id"] == node
        assert {
            "metrics", "flipped", "p_anomalous_before", "p_anomalous_after",
            "distractor_job_id", "n_evaluations", "n_cached_evaluations",
        } <= set(payload)
        assert payload["n_evaluations"] > 0

    def test_explain_unknown_job(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "explain", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--job", "999", "--trim", "10",
        ])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_explain_unknown_node(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "explain", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--job", "1", "--node", "424242",
            "--trim", "10",
        ])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestServeCommand:
    def test_anomaly_dashboard_with_gateway_meta(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "serve", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--job", "1", "--trim", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "job 1" in out
        assert "served by model" in out and "cached=False" in out

    def test_json_response_carries_version_tag(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "serve", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--job", "1", "--trim", "10", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gateway"]["model_version"] == "unversioned"
        assert payload["gateway"]["tenant"] == "operator"

    def test_slo_dashboard_renders_sections(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "serve", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--dashboard", "slo", "--trim", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tenant SLOs" in out and "operator" in out

    def test_unknown_dashboard_is_one_line_error(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "serve", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--dashboard", "quantum", "--trim", "10",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown dashboard" in err and "available" in err

    def test_unknown_metric_is_one_line_error(self, workspace, deployment, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "serve", "--telemetry", str(telemetry),
            "--artifacts", str(deployment), "--dashboard", "node_analysis",
            "--job", "1", "--metric", "no_such_metric", "--trim", "10",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown metric" in err and "no_such_metric" in err


class TestLoadgenCommand:
    def test_replay_with_promotion_check_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_serving.json"
        rc = main([
            "loadgen", "--horizon", "2", "--promote-at", "1",
            "--seed", "0", "--check", "--out", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check passed" in out
        report = json.loads(out_path.read_text())
        assert report["completed"] > 0
        assert report["stale_responses"] == 0
        assert report["priority_inversions"] == 0
        assert report["versions_served"] == ["v0001", "v0002"]
        assert report["slo"]["tenants"]["dashboard"]["slo_met"]

    def test_closed_mode_json(self, capsys):
        rc = main([
            "loadgen", "--mode", "closed", "--horizon", "1", "--seed", "1", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "closed"
        assert payload["completed"] > 0


class TestErrorHandling:
    """Operator mistakes exit 2 with one-line errors, never tracebacks."""

    def test_closed_stdout_exits_quietly(self):
        """A reader that goes away (``| head``) ends the CLI like SIGPIPE."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "runtime", "stats",
             "--samples", "4", "--metrics", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 141
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err

    def test_predict_missing_artifacts_is_one_line(self, workspace, capsys):
        root, telemetry, _ = workspace
        rc = main([
            "predict", "--telemetry", str(telemetry),
            "--artifacts", str(root / "no_such_deploy"), "--job", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-prodigy: error:")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_lifecycle_register_missing_artifacts_path(self, tmp_path, capsys):
        rc = main([
            "lifecycle", "register",
            "--registry", str(tmp_path / "reg"),
            "--artifacts", str(tmp_path / "missing_artifacts"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-prodigy: error:") and "Traceback" not in err

    def test_missing_telemetry_file_is_one_line(self, tmp_path, capsys):
        rc = main([
            "evaluate", "--telemetry", str(tmp_path / "nope.csv"),
            "--labels", str(tmp_path / "nope.json"),
            "--artifacts", str(tmp_path / "nope"),
        ])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err


class TestFleetCommand:
    def test_run_renders_panels_and_writes_status(self, tmp_path, capsys):
        status_path = tmp_path / "fleet.json"
        rc = main([
            "fleet", "run", "--fleet-workers", "2", "--nodes", "4",
            "--samples", "80", "--chunk", "20", "--seed", "1",
            "--status-out", str(status_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "workers alive" in out and "totals" in out and "cluster rollup" in out
        status = json.loads(status_path.read_text())
        assert status["totals"]["submitted"] == 16  # 4 nodes x 4 chunks
        assert status["totals"]["shed_chunks"] == 0
        assert len(status["alive"]) == 2

    def test_run_with_kill_reports_rebalance(self, tmp_path, capsys):
        status_path = tmp_path / "fleet_kill.json"
        rc = main([
            "fleet", "run", "--fleet-workers", "3", "--nodes", "6",
            "--samples", "100", "--chunk", "20", "--seed", "1",
            "--kill-worker", "w1", "--kill-after", "8",
            "--status-out", str(status_path),
        ])
        assert rc == 0
        status = json.loads(status_path.read_text())
        assert status["dead"] == ["w1"]
        assert status["totals"]["rebalances"] == 1
        assert status["faults"]["triggered"] == ["w1"]
        # Shed windows are counted and surfaced, never silent.
        assert "shed_chunks" in status["totals"]
        assert "DEAD" in capsys.readouterr().out

    def test_status_renders_saved_json(self, tmp_path, capsys):
        status_path = tmp_path / "fleet.json"
        rc = main([
            "fleet", "run", "--fleet-workers", "2", "--nodes", "4",
            "--samples", "80", "--chunk", "20", "--seed", "1",
            "--status-out", str(status_path), "--json",
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main(["fleet", "status", "--status-file", str(status_path)])
        assert rc == 0
        assert "workers alive" in capsys.readouterr().out

    def test_status_requires_file(self, capsys):
        rc = main(["fleet", "status"])
        assert rc == 2
        assert "--status-file" in capsys.readouterr().err

    def test_status_missing_file_one_line_error(self, tmp_path, capsys):
        rc = main(["fleet", "status", "--status-file", str(tmp_path / "gone.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-prodigy: error:") and "Traceback" not in err

    def test_run_unknown_kill_worker(self, capsys):
        rc = main([
            "fleet", "run", "--fleet-workers", "2", "--nodes", "2",
            "--samples", "40", "--kill-worker", "w99",
        ])
        assert rc == 2
        assert "unknown worker" in capsys.readouterr().err


class TestDsosCommand:
    @pytest.fixture()
    def populated(self, workspace, tmp_path):
        """Ingest the shared generated campaign into a fresh store."""
        root, telemetry, _ = workspace
        store = tmp_path / "store"
        rc = main([
            "dsos", "ingest", "--store", str(store),
            "--telemetry", str(telemetry), "--segment-span", "60",
        ])
        assert rc == 0
        return store, telemetry

    def test_ingest_groups_columns_by_sampler(self, workspace, tmp_path, capsys):
        _, telemetry, _ = workspace
        store = tmp_path / "fresh"
        rc = main([
            "dsos", "ingest", "--store", str(store), "--telemetry", str(telemetry),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        for sampler in ("meminfo", "vmstat", "procstat"):
            assert (store / sampler / "raw").is_dir()
            assert sampler in out

    def test_ingest_requires_telemetry(self, tmp_path, capsys):
        rc = main(["dsos", "ingest", "--store", str(tmp_path / "s")])
        assert rc == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_compact_builds_tiers(self, populated, capsys):
        store, _ = populated
        rc = main(["dsos", "compact", "--store", str(store)])
        assert rc == 0
        assert "1min" in capsys.readouterr().out
        assert (store / "vmstat" / "1min").is_dir()
        assert (store / "vmstat" / "10min").is_dir()

    def test_query_preview_and_csv_roundtrip(self, populated, tmp_path, capsys):
        store, telemetry = populated
        rc = main([
            "dsos", "query", "--store", str(store), "--sampler", "vmstat",
            "--job", "1", "--limit", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vmstat (raw):" in out
        out_csv = tmp_path / "win.csv"
        rc = main([
            "dsos", "query", "--store", str(store), "--sampler", "vmstat",
            "--t0", "0", "--t1", "30", "--output", str(out_csv),
        ])
        assert rc == 0
        assert out_csv.exists()
        from repro.telemetry.io import read_csv

        frame = read_csv(out_csv)
        assert frame.n_rows > 0
        assert frame.timestamp.max() <= 30.0

    def test_query_matches_legacy_store(self, populated):
        """The CLI store path preserves the bit-parity oracle end to end."""
        import numpy as np

        from oracles.dsos import DsosStore
        from repro.hist import HistStore
        from repro.telemetry.io import read_csv

        store, telemetry = populated
        frame = read_csv(telemetry)
        legacy = DsosStore()
        names = [n for n in frame.metric_names if n.endswith("::vmstat")]
        sub_vals = np.column_stack([frame.column(n) for n in names])
        from repro.telemetry import TelemetryFrame

        legacy.ingest("vmstat", TelemetryFrame(
            frame.job_id, frame.component_id, frame.timestamp, sub_vals, tuple(names)
        ))
        hist = HistStore(store)
        a = hist.query("vmstat", job_id=1)
        b = legacy.query("vmstat", job_id=1)
        np.testing.assert_array_equal(a.timestamp, b.timestamp)
        assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_stats_renders_layout_and_rollup(self, populated, capsys):
        store, _ = populated
        rc = main(["dsos", "compact", "--store", str(store)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["dsos", "stats", "--store", str(store), "--t0", "0", "--t1", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "historical store" in out and "rollup (tier 1min" in out

    def test_stats_json(self, populated, capsys):
        store, _ = populated
        rc = main(["dsos", "stats", "--store", str(store), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"store", "rollup"}

    def test_empty_store_is_operator_error(self, tmp_path, capsys):
        rc = main(["dsos", "stats", "--store", str(tmp_path / "nothing")])
        assert rc == 2
        assert "empty" in capsys.readouterr().err

    def test_runtime_flags_rejected(self, tmp_path, capsys):
        # No dsos action extracts features, so none takes the runtime flags.
        with pytest.raises(SystemExit) as exc:
            main(["dsos", "stats", "--store", str(tmp_path / "s"), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_unknown_sampler_one_line_error(self, populated, capsys):
        store, _ = populated
        rc = main(["dsos", "query", "--store", str(store), "--sampler", "nvml"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-prodigy: error:") and "available" in err

    def test_unknown_tier_rejected(self, populated, capsys):
        store, _ = populated
        rc = main([
            "dsos", "query", "--store", str(store), "--sampler", "vmstat",
            "--tier", "5min",
        ])
        assert rc == 2
        assert "unknown tier" in capsys.readouterr().err
