"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import POLICIES, _print_trace, build_parser, main
from repro.obs.tracing import PacketTrace
from repro.routing.compiled_query import numpy_available

#: The query engine an observed run of a compilable scheme must name.
_WALK_OR_REFEREE = "batch" if numpy_available() else "reference"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_route_defaults(self):
        args = build_parser().parse_args(["route", "widest-path"])
        assert args.n == 48
        assert args.topology == "erdos-renyi"
        assert not args.compact


class TestCommands:
    def test_policies_lists_catalog(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in POLICIES:
            assert name in out

    def test_classify(self, capsys):
        assert main(["classify", "widest-path"]) == 0
        out = capsys.readouterr().out
        assert "compressible" in out
        assert "Theorem 1" in out

    def test_classify_with_measurement(self, capsys):
        assert main(["classify", "usable-path", "--measure"]) == 0
        assert "measured properties" in capsys.readouterr().out

    def test_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["classify", "teleportation"])

    def test_route_small(self, capsys):
        assert main(["route", "widest-path", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "delivered" in out

    def test_route_compact(self, capsys):
        assert main(["route", "shortest-path", "--n", "16", "--compact"]) == 0
        assert "cowen" in capsys.readouterr().out

    def test_route_bgp(self, capsys):
        assert main(["route", "bgp-provider-customer", "--n", "20"]) == 0
        assert "b1-provider-tree" in capsys.readouterr().out

    def test_route_unknown_topology(self):
        with pytest.raises(SystemExit):
            main(["route", "widest-path", "--topology", "moebius"])

    def test_scale(self, capsys):
        assert main(["scale", "usable-path", "--sizes", "16,32,64"]) == 0
        out = capsys.readouterr().out
        assert "best fit" in out

    def test_scale_needs_three_sizes(self):
        with pytest.raises(SystemExit):
            main(["scale", "usable-path", "--sizes", "16,32"])


class TestPrintTrace:
    def trace(self, finish=None):
        trace = PacketTrace(scheme="s", source=0, target=2)
        trace.add(0, "forward", 1, 1, header=2, header_bits=None)
        trace.add(1, "forward", 2, 2, header=2, header_bits=None)
        if finish is not None:
            trace.finish(*finish)
        return trace

    def test_delivered_trace(self, capsys):
        trace = self.trace()
        trace.add(2, "deliver", None, None, header=2, header_bits=None)
        trace.finish(True)
        _print_trace(trace)
        out = capsys.readouterr().out
        assert "2 hops, delivered" in out

    def test_failed_trace_counts_every_forward(self, capsys):
        _print_trace(self.trace(finish=(False, "hop limit exceeded")))
        out = capsys.readouterr().out
        # two forwards = two traversed edges, even without a deliver event
        assert "2 hops, FAILED (hop limit exceeded)" in out

    def test_unfinished_trace_is_not_failed(self, capsys):
        # finish() never ran (e.g. the local routing function raised):
        # delivered is None and must not render as "FAILED ()"
        _print_trace(self.trace(finish=None))
        out = capsys.readouterr().out
        assert "UNFINISHED" in out
        assert "FAILED" not in out

    def test_route_trace_reports_dropped_traces(self, capsys):
        assert main(["route", "widest-path", "--n", "12", "--trace",
                     "--trace-limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "dropped at the capture limit of 2" in out


class TestGoldenCommands:
    def test_golden_record_and_check(self, tmp_path, capsys):
        target = str(tmp_path / "golden")
        assert main(["golden", "record", "--dir", target,
                     "--case", "fig1c-shortest-path"]) == 0
        assert "recorded fig1c-shortest-path" in capsys.readouterr().out
        assert main(["golden", "check", "--dir", target,
                     "--case", "fig1c-shortest-path"]) == 0
        assert "golden check passed" in capsys.readouterr().out

    def test_golden_check_missing_fixture_fails(self, tmp_path, capsys):
        assert main(["golden", "check", "--dir", str(tmp_path / "none"),
                     "--case", "fig1c-shortest-path"]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_golden_unknown_case(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["golden", "check", "--dir", str(tmp_path),
                  "--case", "not-a-case"])


class TestRunTelemetryCommands:
    @pytest.fixture(autouse=True)
    def no_live_progress(self, monkeypatch):
        """Keep control characters out of captured CLI output."""
        from repro.obs.progress import NO_PROGRESS_ENV

        monkeypatch.setenv(NO_PROGRESS_ENV, "1")

    def test_evaluate_record_run_then_report(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["evaluate", "shortest-path", "--n", "16",
                     "--workers", "2", "--record-run", str(run_dir)]) == 0
        err = capsys.readouterr().err
        assert "recorded run ->" in err
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "events.jsonl").exists()

        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "run: evaluate policy=shortest-path" in out
        assert "engine:" in out
        assert "shards:" in out
        assert "stragglers:" in out
        assert "shard_heartbeat" in out

    def test_record_run_manifest_contents(self, tmp_path):
        import json

        run_dir = tmp_path / "run"
        assert main(["evaluate", "widest-path", "--n", "12",
                     "--record-run", str(run_dir)]) == 0
        with open(run_dir / "manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["version"] == 1
        assert manifest["command"] == "evaluate"
        assert manifest["config"]["policy"] == "widest-path"
        assert manifest["report"]["pairs"] == 12 * 11
        assert manifest["engine"]["query_engine"] == _WALK_OR_REFEREE
        assert "metrics" in manifest
        assert "python" in manifest["env"]

    def test_record_run_leaves_telemetry_disabled(self, tmp_path):
        from repro.obs import events as obs_events
        from repro.obs.metrics import enabled as telemetry_enabled

        assert main(["evaluate", "shortest-path", "--n", "12",
                     "--record-run", str(tmp_path / "run")]) == 0
        assert not telemetry_enabled()
        assert not obs_events.enabled()
        assert obs_events.events() == []

    def test_report_missing_run_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="no run manifest"):
            main(["report", str(tmp_path / "nope")])

    def test_profile_record_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["profile", "shortest-path", "--n", "12",
                     "--record-run", str(run_dir)]) == 0
        captured = capsys.readouterr()
        assert "recorded run ->" in captured.err
        import json

        profile = json.loads(captured.out)  # stays valid JSON
        query = profile["query"]
        assert query["engine"] == _WALK_OR_REFEREE
        assert (query["counters"][f"query_engine.{_WALK_OR_REFEREE}_pairs"]
                == profile["report"]["pairs"] == 12 * 11)
        assert main(["report", str(run_dir)]) == 0
        assert "run: profile" in capsys.readouterr().out

    def test_json_output_untouched_by_telemetry_flags(self, tmp_path, capsys):
        import json

        assert main(["evaluate", "shortest-path", "--n", "12", "--json",
                     "--record-run", str(tmp_path / "run")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["pairs"] == 12 * 11


class TestEvaluateJson:
    """``repro evaluate --json``: what the parallel engine and the tree
    store did in this run."""

    @pytest.fixture(autouse=True)
    def no_live_progress(self, monkeypatch):
        from repro.obs.progress import NO_PROGRESS_ENV

        monkeypatch.setenv(NO_PROGRESS_ENV, "1")

    def _evaluate(self, capsys, *extra):
        import json

        main(["evaluate", "shortest-path", "--n", "16", "--json", *extra])
        return json.loads(capsys.readouterr().out)

    def test_serial_run_has_no_parallel_object(self, capsys):
        payload = self._evaluate(capsys)
        assert payload["parallel"] is None
        assert payload["oracle"]["path_engine"] in ("batch", "kernel")

    def test_parallel_run_reports_start_method_and_workers(self, capsys):
        payload = self._evaluate(capsys, "--workers", "2")
        parallel = payload["parallel"]
        assert parallel["workers"] == 2
        assert parallel["start_method"]
        assert parallel["fallback"] is None
        assert "recovery" not in parallel
        assert payload["report"] == self._evaluate(capsys)["report"]

    def test_killed_worker_reports_the_serial_fallback(self, capsys,
                                                       in_workers):
        import os
        import signal

        serial = self._evaluate(capsys)
        in_workers(lambda: os.kill(os.getpid(), signal.SIGKILL))
        payload = self._evaluate(capsys, "--workers", "2")
        parallel = payload["parallel"]
        assert parallel["workers"] == 2
        assert parallel["fallback"]["reason"] == "pool-failure"
        assert parallel["fallback"]["cause"]
        assert payload["report"] == serial["report"]
