"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_config, build_parser, main


class TestParseConfig:
    def test_ints_floats_strings(self):
        assert _parse_config(["n=256", "x=0.5", "mode=fast"]) == {
            "n": 256,
            "x": 0.5,
            "mode": "fast",
        }

    def test_bad_pair_rejected(self):
        with pytest.raises(SystemExit):
            _parse_config(["oops"])

    def test_true_and_false_are_booleans(self):
        from repro.store import CampaignSpec

        assert _parse_config(["a=true", "b=false", "c=False"]) == {
            "a": True, "b": False, "c": "False",
        }
        for value, channels in (("false", 1), ("true", 4)):
            spec = CampaignSpec(
                kernel="lavamd", device="k40", n_faulty=4,
                config=_parse_config([f"include_forces={value}", "nb=2"]),
            )
            assert spec.build_campaign().kernel.channels == channels

    def test_run_ids_of_number_configs_are_unchanged(self):
        from repro.store import CampaignSpec

        dgemm = CampaignSpec(
            kernel="dgemm", device="k40", config=_parse_config(["n=16"]),
            seed=3, n_faulty=12,
        )
        clamr = CampaignSpec(
            kernel="clamr", device="xeonphi", seed=1, n_faulty=4,
            config=_parse_config(["n=16", "coarsen_fraction=0.05", "scheme=muscl"]),
        )
        assert (dgemm.run_id(), clamr.run_id()) == (
            "e3ec232598bf6405", "f3c9704ac870975d",
        )


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "CLAMR" in out

    def test_campaign(self, capsys):
        code = main(
            ["campaign", "dgemm", "k40", "--config", "n=64", "--faulty", "20",
             "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SDC : crash+hang" in out

    def test_campaign_workers_flag_is_bit_identical(self, capsys):
        """--workers fans the strikes out but prints the same campaign."""
        args = ["campaign", "dgemm", "k40", "--config", "n=64",
                "--faulty", "24", "--seed", "3"]
        assert main(args + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2", "--chunk-size", "6"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_campaign_with_log_then_analyze_and_fleet(self, capsys, tmp_path):
        log = tmp_path / "c.jsonl"
        main(
            ["campaign", "hotspot", "xeonphi", "--config", "n=32",
             "iterations=16", "--faulty", "25", "--log", str(log)]
        )
        capsys.readouterr()
        assert main(["analyze", str(log), "--threshold", "4.0"]) == 0
        out = capsys.readouterr().out
        assert "re-filtered at 4%" in out
        assert "FIT by locality" in out

        assert main(["fleet", str(log), "--devices", "1000"]) == 0
        out = capsys.readouterr().out
        assert "fleet of 1000 devices" in out

    def test_natural_mode(self, capsys):
        code = main(
            ["campaign", "dgemm", "k40", "--config", "n=64", "--natural", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "executions" in out

    def test_figure(self, capsys, monkeypatch):
        # test-scale figures to keep this fast.
        assert main(["figure", "fig9", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "#" in out  # the error map

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_plan(self, capsys):
        assert main(["plan", "dgemm", "--hours", "100", "--config", "n=128"]) == 0
        out = capsys.readouterr().out
        assert "Beam plan at LANSCE" in out
        assert "dgemm/xeonphi" in out

    def test_device_datasheet(self, capsys):
        assert main(["device", "xeonphi"]) == 0
        assert "trigate" in capsys.readouterr().out

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "tables", "campaign", "figure", "analyze", "fleet", "plan",
            "device", "report", "telemetry", "queue", "resume", "runs",
        ):
            assert command in text


class TestBadInputExitCode:
    """Unusable input files exit 2 with a one-line stderr diagnosis."""

    def test_analyze_missing_file(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read log")
        assert len(captured.err.strip().splitlines()) == 1

    def test_analyze_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["analyze", str(empty)]) == 2
        assert "not a usable campaign log" in capsys.readouterr().err

    def test_analyze_truncated_file(self, capsys, tmp_path):
        log = tmp_path / "good.jsonl"
        main(
            ["campaign", "dgemm", "k40", "--config", "n=32", "--faulty", "6",
             "--log", str(log)]
        )
        capsys.readouterr()
        truncated = tmp_path / "torn.jsonl"
        truncated.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
        assert main(["analyze", str(truncated)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_telemetry_missing_file(self, capsys, tmp_path):
        assert main(["telemetry", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_telemetry_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["telemetry", str(empty)]) == 2
        assert "no span events" in capsys.readouterr().err

    def test_telemetry_garbage_file(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("this is not json\n")
        assert main(["telemetry", str(garbage)]) == 2
        assert "not a usable trace file" in capsys.readouterr().err

    def test_resume_unknown_run_id(self, capsys, tmp_path):
        code = main(
            ["resume", "deadbeefdeadbeef", "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "no stored run" in capsys.readouterr().err


class TestStoreVerbs:
    """queue -> runs -> resume over a shared on-disk store."""

    def test_queue_runs_and_resume_roundtrip(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = main(
            ["queue", "dgemm", "k40", "--config", "n=16", "--faulty", "8",
             "--seed", "5", "--store", store, "--backend", "serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "dgemm/k40" in out

        # The listing shows the stored run; pull its id from the store.
        from repro.store import CampaignStore

        (run_id,) = CampaignStore(store).run_ids()
        assert main(["runs", "--store", store]) == 0
        assert run_id in capsys.readouterr().out

        assert main(["runs", run_id, "--store", store]) == 0
        detail = capsys.readouterr().out
        assert "complete" in detail
        assert "8/8 durable" in detail

        # Resuming a complete run is a cache hit, not a re-run.
        assert main(["resume", run_id, "--store", store]) == 0
        assert "resumed from cache" in capsys.readouterr().out

    def test_queue_jobs_file_schedules_both_specs(self, capsys, tmp_path):
        import json

        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"kernel": "dgemm", "device": "k40", "config": {"n": 16},
             "seed": 1, "n_faulty": 6},
            {"kernel": "dgemm", "device": "k40", "config": {"n": 16},
             "seed": 2, "n_faulty": 6, "priority": 2},
        ]))
        store = str(tmp_path / "store")
        code = main(
            ["queue", "--jobs", str(jobs), "--store", store,
             "--backend", "serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("complete") == 2

        from repro.store import CampaignStore, RunStatus

        assert len(CampaignStore(store).find(status=RunStatus.COMPLETE)) == 2

    def test_queue_without_work_exits_with_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["queue", "--store", str(tmp_path / "store")])

    def test_store_upgrade_without_journals(self, capsys, tmp_path):
        assert main(["store", "upgrade", "--store", str(tmp_path)]) == 0
        assert "no journals under" in capsys.readouterr().out

    def test_runs_detail_shows_resume_hint_for_incomplete(
        self, capsys, tmp_path
    ):
        from repro.store import CampaignSpec, CampaignStore

        store_dir = str(tmp_path / "store")
        spec = CampaignSpec(
            kernel="dgemm", device="k40", config={"n": 16}, seed=3, n_faulty=6
        )
        CampaignStore(store_dir).create_run(spec).close()
        assert main(["runs", spec.run_id(), "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "incomplete" in out
        assert f"repro resume {spec.run_id()}" in out


@pytest.mark.telemetry
class TestObservabilityFlags:
    CAMPAIGN = ["campaign", "dgemm", "k40", "--config", "n=48",
                "--faulty", "20", "--seed", "3"]

    def test_campaign_help_documents_observability_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--help"])
        text = capsys.readouterr().out
        assert "--trace" in text
        assert "--metrics-out" in text
        assert "--progress" in text

    def test_trace_flag_writes_trace_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(self.CAMPAIGN + ["--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        from repro.observability import read_trace

        events = read_trace(trace)
        assert sum(1 for e in events if e.kind == "execution") == 20
        assert sum(1 for e in events if e.kind == "campaign") == 1

    def test_metrics_out_prometheus_and_json(self, capsys, tmp_path):
        prom = tmp_path / "m.prom"
        assert main(self.CAMPAIGN + ["--metrics-out", str(prom)]) == 0
        capsys.readouterr()
        text = prom.read_text()
        assert "# TYPE repro_executions_total counter" in text
        assert 'kernel="dgemm"' in text

        import json

        as_json = tmp_path / "m.json"
        assert main(self.CAMPAIGN + ["--metrics-out", str(as_json)]) == 0
        capsys.readouterr()
        payload = json.loads(as_json.read_text())
        from repro.observability import MetricsRegistry

        rebuilt = MetricsRegistry.from_json(payload)
        assert rebuilt.get("repro_executions_total").total() == 20

    def test_observability_does_not_change_the_physics(self, capsys, tmp_path):
        """The campaign summary is byte-identical with and without
        --trace/--metrics-out: observation must not perturb the run."""
        assert main(self.CAMPAIGN) == 0
        plain = capsys.readouterr().out
        assert main(
            self.CAMPAIGN
            + ["--trace", str(tmp_path / "t.jsonl"),
               "--metrics-out", str(tmp_path / "m.prom")]
        ) == 0
        instrumented = capsys.readouterr().out
        assert instrumented.startswith(plain.rstrip("\n"))

    def test_telemetry_command_renders_report(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        main(self.CAMPAIGN + ["--trace", str(trace)])
        capsys.readouterr()
        assert main(["telemetry", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "campaign telemetry" in out
        assert "throughput" in out

    def test_telemetry_command_json_mode(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        main(self.CAMPAIGN + ["--trace", str(trace)])
        capsys.readouterr()
        assert main(["telemetry", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_executions"] == 20
        assert payload["spans_by_kind"]["campaign"] == 1

    def test_progress_flag_prints_throughput_line(self, capsys, tmp_path):
        assert main(self.CAMPAIGN + ["--progress", "0.0001"]) == 0
        err = capsys.readouterr().err
        assert "executions" in err
        assert "exec/s" in err


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestJsonOutput:
    """`--json` emits the same stable schema the service API serves."""

    def _populate(self, store, capsys):
        code = main(
            ["queue", "dgemm", "k40", "--config", "n=16", "--faulty", "6",
             "--seed", "7", "--store", store, "--backend", "serial",
             "--json"]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_queue_json_outcomes_and_run_id_on_stdout(self, capsys, tmp_path):
        import json

        store = str(tmp_path / "store")
        out = self._populate(store, capsys)
        payload = json.loads(out)
        (outcome,) = payload["outcomes"]
        assert set(outcome) == {
            "run_id", "label", "status", "records", "retries", "resumed",
        }
        assert outcome["status"] == "complete"
        assert outcome["records"] == 6
        # Run id is on stdout (scriptable) and is the store's id.
        from repro.store import CampaignStore

        (run_id,) = CampaignStore(store).run_ids()
        assert outcome["run_id"] == run_id
        assert run_id in out

    def test_runs_json_matches_store_summaries(self, capsys, tmp_path):
        import json

        store = str(tmp_path / "store")
        self._populate(store, capsys)
        assert main(["runs", "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.store import CampaignStore

        expected = [s.to_dict() for s in CampaignStore(store).summaries()]
        assert payload == {"runs": expected}
        (entry,) = payload["runs"]
        assert set(entry) == {
            "run_id", "kernel", "device", "label", "seed", "status",
            "n_records", "n_expected", "created", "path",
        }
        assert entry["status"] == "complete"

    def test_queue_text_mode_prints_run_id(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = main(
            ["queue", "dgemm", "k40", "--config", "n=16", "--faulty", "6",
             "--seed", "7", "--store", store, "--backend", "serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        from repro.store import CampaignStore

        (run_id,) = CampaignStore(store).run_ids()
        assert run_id in out

    def test_resume_prints_run_id_on_stdout(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(store, capsys)
        from repro.store import CampaignStore

        (run_id,) = CampaignStore(store).run_ids()
        assert main(["resume", run_id, "--store", store]) == 0
        assert run_id in capsys.readouterr().out
