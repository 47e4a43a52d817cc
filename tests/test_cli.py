"""Tests for the command-line interface."""

import shlex

import pytest

from repro.cli import (
    _grid_specs,
    _parse_fault,
    _resume_hint,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sprint", "nonexistent"])

    def test_network_defaults(self):
        args = build_parser().parse_args(["network"])
        assert args.level == 4
        assert args.pattern == "uniform"

    def test_resume_hint_rebuilds_the_same_sweep(self, tmp_path):
        def keys(args):
            specs = _grid_specs(args.levels, args.rates, args.patterns,
                                args.seed, args.warmup, args.measure,
                                args.drain,
                                faults=[_parse_fault(f) for f in args.fault],
                                backend=args.backend)
            return [spec.cache_key() for spec in specs]

        args = build_parser().parse_args([
            "sweep", "--levels", "2", "4", "--rates", "0.1", "0.25",
            "--patterns", "uniform", "tornado", "--seed", "7",
            "--warmup", "200", "--measure", "800", "--drain", "1500",
            "--fault", "1@300:100", "--backend", "vectorized",
            "--workers", "2", "--fabric", str(tmp_path / "q"),
            "--quarantine-after", "5", "--cache-dir", str(tmp_path / "c d"),
        ])
        hint = _resume_hint(args)
        assert hint.startswith("resume with: python -m repro sweep ")
        tokens = shlex.split(hint[len("resume with: "):])
        again = build_parser().parse_args(tokens[3:])
        assert again.resume and again.cache_dir == str(tmp_path / "c d")
        assert (again.fabric, again.workers, again.quarantine_after) == (
            args.fabric, 2, 5)
        assert keys(again) == keys(args)


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "4 x 4 2D Mesh" in out
        assert "MESI" in out

    def test_sprint_fast(self, capsys):
        assert main(["sprint", "dedup", "--no-network", "--no-thermal"]) == 0
        out = capsys.readouterr().out
        assert "noc_sprinting" in out
        assert "duration gain" in out

    def test_sweep(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out and "freqmine" in out
        assert "S(noc)=3.6" in out or "S(noc)=3.7" in out

    def test_sweep_grid_mode(self, capsys):
        assert main(["sweep", "--levels", "2", "--rates", "0.05",
                     "--warmup", "100", "--measure", "300", "--drain", "400",
                     "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "grid sweep (repro.exec engine)" in out
        assert "100% hit rate" in out  # the --repeat run is fully cached

    def test_sweep_grid_rejects_bad_pattern_shape(self, capsys):
        # shuffle needs a power-of-two endpoint count; level 3 is not
        assert main(["sweep", "--levels", "3", "--rates", "0.05",
                     "--patterns", "shuffle"]) == 2
        assert "invalid sweep grid" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--lease-ttl", "3"],
        ["--levels", "2", "--rates", "0.05", "--quarantine-after", "2"],
    ])
    def test_sweep_refuses_fabric_flags_without_fabric(self, flags, capsys):
        # without --fabric nothing reads them: the legacy summary or an
        # in-process grid would run and drop the flag
        assert main(["sweep", *flags]) == 2
        assert "invalid sweep grid: " in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--workers", "3"], ["--seed", "7"], ["--warmup", "50"],
        ["--measure", "50"], ["--drain", "50"], ["--repeat", "2"],
        ["--sample-interval", "50", "--trace", "sweep.jsonl"],
    ])
    def test_sweep_grid_flags_select_grid_mode(self, flags, monkeypatch,
                                               capsys):
        # the legacy summary reads none of them, so it must not run
        grids = []
        monkeypatch.setattr("repro.cli._cmd_sweep_grid",
                            lambda args: grids.append(args) or 0)
        assert main(["sweep", *flags]) == 0
        assert len(grids) == 1
        assert "PARSEC" not in capsys.readouterr().out

    def test_sweep_refuses_sample_interval_without_a_trace(self, capsys):
        assert main(["sweep", "--sample-interval", "50"]) == 2
        assert "invalid sweep grid: " in capsys.readouterr().out

    def test_network(self, capsys):
        assert main(["network", "--level", "2", "--rates", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "2-node sprint region" in out
        assert "cdor" in out

    def test_network_full_mesh_uses_xy(self, capsys):
        assert main(["network", "--level", "16", "--rates", "0.05"]) == 0
        assert "(xy)" in capsys.readouterr().out

    def test_thermal(self, capsys):
        assert main(["thermal", "dedup"]) == 0
        out = capsys.readouterr().out
        assert "full-sprinting" in out
        assert "floorplan" in out

    def test_duration(self, capsys):
        assert main(["duration"]) == 0
        out = capsys.readouterr().out
        assert "paper +55.4" in out

    def test_figure_unknown_id(self, capsys):
        assert main(["figure", "fig99"]) == 2
        out = capsys.readouterr().out
        assert "no bench matches" in out
        assert "fig03" in out  # lists what is available

    def test_figure_runs_bench(self, capsys):
        assert main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
