"""Tests for the run ledger, cross-run diffing, and the regress gate."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.exec import SweepRunner
from repro.noc.spec import SimulationSpec, TrafficSpec
from repro.telemetry import Ledger, RunRecord, compare_runs
from repro.telemetry.compare import (
    MetricPolicy,
    render_html,
    render_json,
    render_terminal,
)

CFG = NoCConfig()


def small_spec(level=4, rate=0.1, seed=0) -> SimulationSpec:
    topo = SprintTopology.for_level(4, 4, level)
    return SimulationSpec(
        topology=topo,
        traffic=TrafficSpec(tuple(topo.active_nodes), rate,
                            CFG.packet_length_flits, "uniform", seed=seed),
        config=CFG,
        routing="cdor" if level < 16 else "xy",
        warmup_cycles=100, measure_cycles=300, drain_cycles=600,
    )


def make_record(ledger, points=None, headline=None, **kwargs):
    return ledger.record(
        "sweep",
        points=points if points is not None else {
            "k1": {"avg_latency": 20.0, "throughput": 0.10},
            "k2": {"avg_latency": 30.0, "throughput": 0.20},
        },
        headline=headline if headline is not None else {"avg_latency": 25.0},
        **kwargs,
    )


class TestLedger:
    def test_record_query_round_trip(self, tmp_path):
        ledger = Ledger(directory=tmp_path)
        rec = make_record(ledger, label="nightly", backend="reference",
                          spec_keys=("k1", "k2"), wall_s=1.5)
        assert rec is not None
        (loaded,) = ledger.query()
        assert loaded == rec
        assert loaded.label == "nightly"
        assert loaded.points["k1"]["avg_latency"] == 20.0

    def test_run_ids_are_distinct_and_addressable(self, tmp_path):
        ledger = Ledger(directory=tmp_path)
        a = make_record(ledger, ts=1.0)
        b = make_record(ledger, ts=2.0)  # same body, new timestamp
        assert a.run_id != b.run_id
        assert ledger.get(a.run_id) == a
        assert ledger.get(a.run_id[:8]) == a

    def test_baseline_resolution(self, tmp_path):
        ledger = Ledger(directory=tmp_path)
        tagged = make_record(ledger, label="nightly", ts=1.0)
        newest = make_record(ledger, ts=2.0)
        assert ledger.baseline() == newest
        assert ledger.baseline("latest") == newest
        assert ledger.baseline("nightly") == tagged
        assert ledger.baseline(tagged.run_id[:6]) == tagged
        assert ledger.baseline("nope") is None

    def test_env_disable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        ledger = Ledger(directory=tmp_path)
        assert make_record(ledger) is None
        assert not ledger.path.exists()

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        ledger = Ledger(directory=tmp_path)
        rec = make_record(ledger)
        with open(ledger.path, "ab") as fh:
            fh.write(b'{"run_id": "deadbeef", "ts": 2.0, "ki')  # torn mid-append
        assert ledger.query() == [rec]
        assert ledger.latest() == rec

    def test_foreign_lines_are_skipped(self, tmp_path):
        ledger = Ledger(directory=tmp_path)
        ledger.directory.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text('not json\n{"no_run_id": true}\n')
        rec = make_record(ledger)
        assert ledger.query() == [rec]

    def test_unwritable_directory_is_best_effort(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        ledger = Ledger(directory=blocker / "sub")  # mkdir will fail
        assert make_record(ledger) is None  # swallowed, not raised

    def test_concurrent_writers_lose_no_lines(self, tmp_path):
        """Two processes appending via O_APPEND interleave whole lines."""
        script = (
            "import sys; from repro.telemetry import Ledger\n"
            "ledger = Ledger(directory=sys.argv[1])\n"
            "for i in range(40):\n"
            "    ledger.record('sweep', label=sys.argv[2],\n"
            "                  points={'k': {'avg_latency': float(i)}})\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        procs = [
            subprocess.Popen([sys.executable, "-c", script,
                              str(tmp_path), label], env=env)
            for label in ("alpha", "beta")
        ]
        for proc in procs:
            assert proc.wait() == 0
        records = Ledger(directory=tmp_path).query()
        assert len(records) == 80
        assert sum(r.label == "alpha" for r in records) == 40
        assert sum(r.label == "beta" for r in records) == 40
        # every line parsed cleanly: ids unique, none torn
        assert len({r.run_id for r in records}) == 80

    def test_line_is_one_encode_of_the_parent_recipe(self, tmp_path,
                                                     monkeypatch):
        """The appended line and run id are byte for byte what encoding
        the body, hashing it and re-encoding the round-tripped record
        produced; the record is now encoded once."""
        import hashlib

        from repro.telemetry import ledger as ledger_module

        body = {
            "ts": 1234.5, "kind": "sweep", "label": "unit",
            "backend": "vectorized", "git_rev": "abc123",
            "fingerprint": "f" * 16, "spec_keys": ["k2", "k1", "k1"],
            "wall_s": 0.25, "cpu_s": 0.125,
            "points": {"k1": {"avg_latency": 20.0, "saturated": 0.0},
                       "k2": {"avg_latency": 30.5, "saturated": 1.0}},
            "headline": {"avg_latency": 25.25, "failures": 0.0},
            "metrics": {"counters": {"spec_keys": 2}, "ts": [1, 2]},
        }
        encodes = []
        dumps = json.dumps

        def spy(*args, **kwargs):
            encodes.append(args[0])
            return dumps(*args, **kwargs)

        ledger = Ledger(directory=tmp_path)
        monkeypatch.setattr(ledger_module.json, "dumps", spy)
        rec = ledger.record(**{k: v for k, v in body.items() if k != "kind"},
                            kind="sweep")
        monkeypatch.setattr(ledger_module.json, "dumps", dumps)
        assert len(encodes) == 1

        # the recipe the ledger followed before
        blob = dumps(body, sort_keys=True, separators=(",", ":"))
        run_id = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        expected = RunRecord.from_json(dict(body, run_id=run_id))
        line = dumps(expected.to_json(), sort_keys=True,
                     separators=(",", ":")) + "\n"
        assert rec == expected
        assert ledger.path.read_text(encoding="utf-8") == line

    def test_sweep_record_resolves_auto_once(self, tmp_path, monkeypatch):
        """A 24-point auto fig-9 request resolves each spec's engine once,
        before dispatch, and its ledger record reuses them without
        resolving again; specs on two engines still record "mixed"."""
        from benchmarks.bench_fig09_network_latency import paired_specs

        from repro.exec import runner as runner_mod
        from repro.noc.spec import SimulationSpec

        resolve = SimulationSpec.resolved_backend
        calls = {"run": [], "_record_run": []}
        inside = []

        def counting(spec):
            if inside:
                calls[inside[-1]].append(spec)
            return resolve(spec)

        def spied(name, call):
            def wrapper(*args, **kwargs):
                inside.append(name)
                try:
                    return call(*args, **kwargs)
                finally:
                    inside.pop()
            return wrapper

        monkeypatch.setattr(SimulationSpec, "resolved_backend", counting)
        monkeypatch.setattr(runner_mod.SweepRunner, "run",
                            spied("run", runner_mod.SweepRunner.run))
        monkeypatch.setattr(runner_mod.SweepRunner, "_record_run",
                            spied("_record_run",
                                  runner_mod.SweepRunner._record_run))
        specs = [spec.with_backend("auto") for spec in paired_specs()[1]]
        assert len(specs) == 24
        ledger = Ledger(directory=tmp_path)
        report = SweepRunner(ledger=ledger).run(specs)
        assert len(calls["run"]) == len(specs)
        assert calls["_record_run"] == []
        assert report.run_record.backend == "vectorized"

        mixed = [small_spec(rate=0.05).with_backend("reference"),
                 small_spec(rate=0.05).with_backend("vectorized")]
        assert SweepRunner(ledger=ledger).run(mixed).run_record.backend \
            == "mixed"

    def test_sweep_runner_records(self, tmp_path):
        ledger = Ledger(directory=tmp_path)
        runner = SweepRunner(ledger=ledger, ledger_label="unit")
        report = runner.run([small_spec(rate=0.05)])
        rec = report.run_record
        assert rec is not None
        assert rec.kind == "sweep"
        assert rec.label == "unit"
        assert rec.backend == "reference"
        assert len(rec.points) == 1
        assert ledger.latest() == rec


class TestCompare:
    def _pair(self, tmp_path, skew=None):
        ledger = Ledger(directory=tmp_path)
        base = make_record(ledger, ts=1.0)
        points = {k: dict(v) for k, v in base.points.items()}
        if skew:
            skew(points)
        cand = make_record(ledger, points=points, ts=2.0)
        return base, cand

    def test_identical_runs_do_not_regress(self, tmp_path):
        base, cand = self._pair(tmp_path)
        comparison = compare_runs(base, cand)
        assert not comparison.regressed
        assert comparison.regressions == []
        assert all(d.status == "ok" for d in comparison.deltas)

    def test_latency_increase_regresses(self, tmp_path):
        def skew(points):
            points["k1"]["avg_latency"] *= 1.25

        base, cand = self._pair(tmp_path, skew)
        comparison = compare_runs(base, cand)
        assert comparison.regressed
        (delta,) = comparison.regressions
        assert delta.point == "k1" and delta.metric == "avg_latency"
        assert delta.rel == pytest.approx(0.25)

    def test_latency_decrease_improves(self, tmp_path):
        def skew(points):
            points["k1"]["avg_latency"] *= 0.5

        base, cand = self._pair(tmp_path, skew)
        comparison = compare_runs(base, cand)
        assert not comparison.regressed
        (delta,) = comparison.improvements
        assert delta.metric == "avg_latency"

    def test_throughput_drop_regresses(self, tmp_path):
        def skew(points):
            points["k2"]["throughput"] *= 0.5  # higher-is-better metric

        base, cand = self._pair(tmp_path, skew)
        assert compare_runs(base, cand).regressed

    def test_min_abs_guard_suppresses_tiny_deltas(self, tmp_path):
        ledger = Ledger(directory=tmp_path)
        base = make_record(ledger, points={"k": {"avg_latency": 0.1}})
        cand = make_record(ledger, points={"k": {"avg_latency": 0.2}})
        # +100% relative but only +0.1 cycles: under the 0.5-cycle min_abs
        assert not compare_runs(base, cand).regressed

    def test_removed_point_is_a_regression(self, tmp_path):
        ledger = Ledger(directory=tmp_path)
        base = make_record(ledger)
        cand = make_record(ledger, points={"k1": base.points["k1"]})
        comparison = compare_runs(base, cand)
        assert comparison.removed == ["k2"]
        assert comparison.regressed

    def test_rel_threshold_override(self, tmp_path):
        def skew(points):
            points["k1"]["avg_latency"] *= 1.05  # +5%: under default 10%

        base, cand = self._pair(tmp_path, skew)
        assert not compare_runs(base, cand).regressed
        assert compare_runs(base, cand, rel_threshold=0.02).regressed

    def test_custom_policy(self, tmp_path):
        base, cand = self._pair(
            tmp_path, lambda pts: pts["k1"].update(avg_latency=21.0))
        strict = {"avg_latency": MetricPolicy("lower", 0.01, 0.0)}
        assert compare_runs(base, cand, policies=strict).regressed

    def test_renderers(self, tmp_path):
        def skew(points):
            points["k1"]["avg_latency"] *= 1.25

        base, cand = self._pair(tmp_path, skew)
        comparison = compare_runs(base, cand)
        terminal = render_terminal(comparison)
        assert "REGRESSED" in terminal
        assert "avg_latency" in terminal
        payload = json.loads(render_json(comparison))
        assert payload["regressed"] is True
        assert payload["baseline"]["run_id"] == base.run_id
        page = render_html(comparison)
        assert page.startswith("<!doctype html>")
        assert "avg_latency" in page


class TestCliObservatory:
    def _sweep(self, ledger_dir, label=None, seed="0"):
        argv = ["sweep", "--levels", "2", "--rates", "0.05",
                "--warmup", "100", "--measure", "300", "--drain", "400",
                "--seed", seed, "--ledger-dir", str(ledger_dir)]
        if label:
            argv += ["--ledger-label", label]
        return main(argv)

    def test_sweep_records_and_prints_run_id(self, tmp_path, capsys):
        assert self._sweep(tmp_path, label="nightly") == 0
        out = capsys.readouterr().out
        rec = Ledger(directory=tmp_path).latest()
        assert rec is not None and rec.label == "nightly"
        assert f"run recorded: {rec.run_id}" in out

    def test_compare_identical_runs(self, tmp_path, capsys):
        assert self._sweep(tmp_path, label="nightly") == 0
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert main(["compare", "nightly", "latest",
                     "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "OK: no regressions" in out
        assert "avg_latency" in out

    def test_compare_json_and_html(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        page = tmp_path / "cmp.html"
        assert main(["compare", "latest", "latest", "--json",
                     "--html", str(page), "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert payload["regressed"] is False
        assert page.read_text().startswith("<!doctype html>")

    def test_compare_unknown_ref(self, tmp_path, capsys):
        assert main(["compare", "nope", "latest",
                     "--ledger-dir", str(tmp_path)]) == 2
        assert "no ledger run matches" in capsys.readouterr().out

    def test_regress_clean_exits_zero(self, tmp_path, capsys):
        assert self._sweep(tmp_path, label="base") == 0
        assert self._sweep(tmp_path) == 0
        assert main(["regress", "--baseline", "base",
                     "--ledger-dir", str(tmp_path)]) == 0

    def test_regress_selftest_exits_four(self, tmp_path, capsys, monkeypatch):
        assert self._sweep(tmp_path, label="base") == 0
        assert self._sweep(tmp_path) == 0
        monkeypatch.setenv("REPRO_REGRESS_SELFTEST", "1")
        assert main(["regress", "--baseline", "base",
                     "--ledger-dir", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "avg_latency" in out

    def test_regress_detects_real_metric_shift(self, tmp_path):
        ledger = Ledger(directory=tmp_path)
        make_record(ledger, label="base")
        make_record(ledger, points={
            "k1": {"avg_latency": 26.0, "throughput": 0.10},
            "k2": {"avg_latency": 30.0, "throughput": 0.20},
        })
        assert main(["regress", "--baseline", "base",
                     "--ledger-dir", str(tmp_path)]) == 4

    def test_cache_stats(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", "--levels", "2", "--rates", "0.05",
                     "--warmup", "100", "--measure", "300", "--drain", "400",
                     "--cache-dir", str(cache_dir),
                     "--ledger-dir", str(tmp_path / "ledger")]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "disk_entries" in out
        assert "hit_rate" in out
