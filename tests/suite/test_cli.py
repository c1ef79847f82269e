"""Tests for the pstl-bench CLI."""

import pytest

from repro.suite.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.machine == "A"
        assert args.backend == "gcc-tbb"
        assert args.mode == "model"

    def test_all_flags(self):
        args = build_parser().parse_args(
            [
                "--machine", "C",
                "--backend", "all",
                "--case", "sort",
                "--threads", "64",
                "--size", "2^20",
                "--sweep", "threads",
                "--format", "json",
            ]
        )
        assert args.size == "2^20"
        assert args.sweep == "threads"


class TestMain:
    def test_single_point_console(self, capsys):
        rc = main(["--case", "reduce", "--size", "2^20", "--min-time", "0.001"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reduce<GCC-TBB>" in out

    def test_csv_format(self, capsys):
        rc = main(
            ["--case", "reduce", "--size", "2^16", "--min-time", "0.001", "--format", "csv"]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("name,")

    def test_json_format(self, capsys):
        import json

        rc = main(
            ["--case", "fill", "--size", "2^16", "--min-time", "0.001", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmarks"]

    def test_all_backends_handles_na(self, capsys):
        rc = main(
            [
                "--backend", "all",
                "--case", "inclusive_scan",
                "--size", "2^16",
                "--min-time", "0.001",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "N/A" in captured.err  # GNU's missing scan is reported
        assert "inclusive_scan<GCC-TBB>" in captured.out

    def test_size_sweep(self, capsys):
        rc = main(["--case", "reduce", "--sweep", "sizes", "--min-time", "0.001"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=8" in out and f"n={1 << 30}" in out

    def test_thread_sweep(self, capsys):
        rc = main(
            ["--case", "reduce", "--sweep", "threads", "--size", "2^20", "--machine", "A"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "t=1" in out and "t=32" in out

    def test_unknown_machine_exit_code(self, capsys):
        assert main(["--machine", "Z9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_case_exit_code(self):
        assert main(["--case", "bogo_sort"]) == 2

    def test_all_backends_na_exits_3(self, capsys):
        # GNU has no parallel inclusive_scan: the single requested backend
        # yields nothing, which must not look like success (exit 0).
        rc = main(
            ["--backend", "gcc-gnu", "--case", "inclusive_scan",
             "--size", "2^16", "--min-time", "0.001"]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no data" in captured.err
        assert "GCC-GNU" in captured.err

    def test_all_na_sweep_exits_3(self, capsys):
        rc = main(
            ["--backend", "gcc-gnu", "--case", "inclusive_scan",
             "--sweep", "threads", "--size", "2^16"]
        )
        assert rc == 3
        assert "no data" in capsys.readouterr().err


class TestSweepFormats:
    def test_size_sweep_csv(self, capsys):
        rc = main(
            ["--case", "reduce", "--sweep", "sizes", "--format", "csv"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("name,")
        assert "/n=8," in out
        assert f"/n={1 << 30}," in out

    def test_run_mode_size_sweep_stops_at_the_cap(self, capsys):
        # Run mode materialises arrays up to 2^25 elements; the sweep
        # reports every size up to there instead of failing at 2^26.
        rc = main(
            ["--mode", "run", "--sweep", "sizes", "--case", "reduce",
             "--machine", "A", "--backend", "GCC-TBB", "--threads", "4",
             "--format", "csv"]
        )
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0].rsplit("=", 1)[1] for row in rows] == [
            str(1 << e) for e in range(3, 26)
        ]

    def test_thread_sweep_json(self, capsys):
        import json

        rc = main(
            ["--case", "reduce", "--sweep", "threads", "--size", "2^20",
             "--machine", "A", "--format", "json"]
        )
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["benchmarks"]
        assert len(rows) == 6  # 1, 2, 4, 8, 16, 32 threads on Mach A
        assert all("/t=" in row["name"] for row in rows)
        assert all(row["iterations"] == 1 for row in rows)

    def test_sweep_csv_skips_unsupported_points(self, capsys):
        # GNU sort is supported but GNU inclusive_scan is not; an all-backend
        # sweep keeps the supported backends' rows and reports N/A on stderr.
        rc = main(
            ["--backend", "all", "--case", "inclusive_scan",
             "--sweep", "threads", "--size", "2^16", "--format", "csv"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("name,")
        assert "GCC-GNU" not in captured.out
        assert "GCC-GNU" in captured.err
