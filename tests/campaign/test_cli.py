"""`pstl-campaign` CLI: run/status/resume/query and exit codes."""

from __future__ import annotations

import json

import pytest

from repro.campaign import executor as executor_mod
from repro.campaign.cli import main
from repro.campaign.store import FAILED, ResultStore


SPEC = {
    "name": "cli-tiny",
    "machines": ["A"],
    "backends": ["GCC-TBB", "GCC-GNU"],
    "cases": ["reduce", "inclusive_scan"],
    "size_exps": [12],
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC), encoding="utf-8")
    return path


def test_run_spec_file(spec_file, tmp_path, capsys):
    rc = main(["run", "--spec-file", str(spec_file),
               "--dir", str(tmp_path / "c"), "--workers", "0"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "GCC-TBB/reduce/A" in captured.out
    assert "inclusive_scan" in captured.out  # N/A cell still listed
    assert "executed" in captured.err


def test_run_requires_exactly_one_spec_source(spec_file, capsys):
    assert main(["run"]) == 2
    assert main(["run", "--spec", "table5", "--spec-file", str(spec_file)]) == 2


def test_run_named_spec_renders_table(tmp_path, capsys):
    rc = main(["run", "--spec", "table5", "--size-exp", "12",
               "--dir", str(tmp_path / "t5"), "--workers", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("table5: Speedup vs sequential")  # the scenario's cells
    assert "GCC-TBB/reduce/A" in out
    assert "N/A" in out  # ICC-on-B / GNU-scan cells


def test_status_and_query(spec_file, tmp_path, capsys):
    cdir = tmp_path / "c"
    main(["run", "--spec-file", str(spec_file), "--dir", str(cdir),
          "--workers", "0"])
    capsys.readouterr()

    assert main(["status", str(cdir)]) == 0
    out = capsys.readouterr().out
    assert "cli-tiny" in out
    assert "pending:  0" in out
    assert "wall:" in out and "task(s)" in out
    assert "slowest" in out and "@MachA" in out

    assert main(["query", str(cdir), "--case", "reduce"]) == 0
    out = capsys.readouterr().out
    assert "reduce<GCC-TBB>@MachA" in out

    assert main(["query", str(cdir), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("name,iterations,")

    assert main(["query", str(cdir), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["benchmarks"]
    assert rows and all(row["iterations"] == 1 for row in rows)


def test_warm_rerun_and_resume(spec_file, tmp_path, capsys):
    cdir = tmp_path / "c"
    main(["run", "--spec-file", str(spec_file), "--dir", str(cdir),
          "--workers", "0"])
    capsys.readouterr()
    rc = main(["run", "--spec-file", str(spec_file), "--dir", str(cdir),
               "--workers", "0", "--resume"])
    assert rc == 0
    assert "0 executed" in capsys.readouterr().err
    rc = main(["resume", str(cdir), "--workers", "0"])
    assert rc == 0
    assert "0 executed" in capsys.readouterr().err


def test_trace_output(spec_file, tmp_path):
    trace = tmp_path / "trace.json"
    rc = main(["run", "--spec-file", str(spec_file),
               "--dir", str(tmp_path / "c"), "--workers", "0",
               "--trace", str(trace)])
    assert rc == 0
    events = json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]
    names = {e.get("name") for e in events}
    assert {"campaign.run", "campaign.plan", "cache-miss"} <= names


def test_failures_exit_code_1(spec_file, tmp_path, monkeypatch, capsys):
    def always_fail(payload):
        return {"status": FAILED, "seconds": None, "error": "boom"}

    monkeypatch.setattr(executor_mod, "execute_point", always_fail)
    rc = main(["run", "--spec-file", str(spec_file),
               "--dir", str(tmp_path / "c"), "--workers", "0",
               "--retries", "0", "--no-batch"])
    assert rc == 1


def test_bad_state_exit_code_2(tmp_path, capsys):
    assert main(["status", str(tmp_path / "nothing")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", "--spec-file", str(bad), "--workers", "0"]) == 2


def test_faulted_run_verify_resume_cycle(spec_file, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"cache_corrupt": 1.0}), encoding="utf-8")
    cdir = tmp_path / "c"
    rc = main(["run", "--spec-file", str(spec_file), "--dir", str(cdir),
               "--workers", "0", "--retries", "2",
               "--faults", str(plan), "--fault-seed", "7"])
    assert rc == 0  # faults degrade the store, never the run itself
    assert "faults injected" in capsys.readouterr().err

    assert main(["verify", str(cdir)]) == 1
    out = capsys.readouterr()
    assert "corrupt" in out.out
    assert "--quarantine" in out.err  # points at the recovery path

    assert main(["resume", str(cdir), "--workers", "0"]) == 0
    assert "quarantined" in capsys.readouterr().err

    assert main(["verify", str(cdir)]) == 0
    assert "verify: OK" in capsys.readouterr().out


def test_verify_quarantine_pulls_corrupt_objects(spec_file, tmp_path, capsys):
    cdir = tmp_path / "c"
    main(["run", "--spec-file", str(spec_file), "--dir", str(cdir),
          "--workers", "0"])
    capsys.readouterr()
    store = ResultStore(cdir / "cache")
    key, _row = next(store.index.rows())
    victim = store.locate(key)
    with open(victim.path, "r+b") as fh:  # a torn record, same span length
        fh.seek(victim.offset)
        fh.write(b"{torn".ljust(victim.length))

    assert main(["verify", str(cdir), "--quarantine"]) == 1
    assert "unparseable" in capsys.readouterr().out
    assert ResultStore(cdir / "cache").locate(key) is None  # tombstoned
    assert (cdir / "cache" / "quarantine" / f"{key}.json").exists()
    assert main(["verify", str(cdir)]) == 0  # the audit now comes back clean
    assert "1 orphaned line(s)" in capsys.readouterr().out  # advisory only


def test_fault_seed_requires_a_plan(spec_file, tmp_path, capsys):
    rc = main(["run", "--spec-file", str(spec_file),
               "--dir", str(tmp_path / "c"), "--workers", "0",
               "--fault-seed", "3"])
    assert rc == 2
    assert "--fault-seed requires --faults" in capsys.readouterr().err


def test_verify_outside_a_campaign_dir_exit_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nothing")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_accepts_backoff_flags(spec_file, tmp_path, capsys):
    rc = main(["run", "--spec-file", str(spec_file),
               "--dir", str(tmp_path / "c"), "--workers", "0",
               "--backoff-base", "0.001", "--backoff-factor", "3",
               "--backoff-max", "0.01", "--backoff-jitter", "0.5"])
    assert rc == 0


def test_compact_folds_the_index_and_status_reports_it(spec_file, tmp_path, capsys):
    cdir = tmp_path / "c"
    main(["run", "--spec-file", str(spec_file), "--dir", str(cdir),
          "--workers", "0"])
    capsys.readouterr()

    # fresh runs leave rows in the shard logs; compact folds them away
    assert main(["compact", str(cdir)]) == 0
    out = capsys.readouterr().out
    assert "compact:" in out and "row(s) kept" in out
    assert "shard(s)" in out
    for log in (cdir / "cache" / "index").glob("*.log.jsonl"):
        assert log.stat().st_size == 0

    # a bare store root (no spec.json) is accepted too; idempotent
    assert main(["compact", str(cdir / "cache")]) == 0
    assert "0 log byte(s) merged" in capsys.readouterr().out

    assert main(["status", str(cdir)]) == 0
    assert "index shard(s)" in capsys.readouterr().out

    assert main(["verify", str(cdir)]) == 0
    out = capsys.readouterr().out
    assert "index:" in out and "shard(s)" in out
    assert "verify: OK" in out


def test_compact_outside_a_store_exit_2(tmp_path, capsys):
    assert main(["compact", str(tmp_path)]) == 2
    assert "neither a campaign directory" in capsys.readouterr().err
