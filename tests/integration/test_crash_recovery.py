"""Crash recovery end-to-end: SIGKILL a live campaign, resume, compare.

The strongest robustness claim the pipeline makes (docs/ROBUSTNESS.md)
is that a campaign process dying *at any instant* -- nine bullets, no
atexit handlers, possibly mid-append -- loses at most in-flight work,
never recorded work, and that a resume converges to output bit-identical
to a never-interrupted run. In-process tests cannot check that claim
honestly, so this one runs the real ``pstl-campaign`` CLI in a
subprocess, SIGKILLs it mid-run, resumes, and diffs the query output
byte-for-byte against an untouched control run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: A grid big enough (~1400 tasks) that the run spends real wall-clock
#: executing after its first journal lines land -- the kill window.
SPEC = {
    "name": "crash-recovery",
    "machines": ["A"],
    "backends": ["GCC-SEQ", "GCC-TBB", "GCC-GNU"],
    "cases": [
        "adjacent_difference", "copy", "count", "equal", "exclusive_scan",
        "fill", "find", "for_each_k1", "for_each_k1000", "inclusive_scan",
        "inplace_merge", "is_heap", "is_partitioned", "max_element", "merge",
        "min_element", "minmax_element", "nth_element", "partial_sort",
        "reduce", "remove", "replace", "reverse", "rotate", "search",
        "set_intersection", "set_union", "sort", "stable_partition",
        "stable_sort", "transform", "transform_reduce", "unique",
    ],
    "size_exps": [12, 13, 14, 15],
    "threads": [1, 2, 8, 32],
}


def _cli(*args: str, **popen_kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro.campaign.cli", *args]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **popen_kwargs)


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    proc = _cli(*args)
    out, err = proc.communicate(timeout=120)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


@pytest.mark.chaos
def test_sigkill_mid_campaign_resumes_bit_identical(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SPEC), encoding="utf-8")
    killed_dir = tmp_path / "killed"
    control_dir = tmp_path / "control"

    # -- start the victim and kill it as soon as recorded work exists
    victim = _cli("run", "--spec-file", str(spec_file), "--dir",
                  str(killed_dir), "--workers", "2")
    journal = killed_dir / "journal.jsonl"
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if journal.exists() and journal.stat().st_size > 0:
            break
        if victim.poll() is not None:
            break
        time.sleep(0.002)
    if victim.poll() is not None:
        victim.communicate()
        if victim.returncode == 0:
            pytest.skip("campaign finished before the kill window opened")
        pytest.fail(f"campaign died on its own: rc={victim.returncode}")
    victim.kill()  # SIGKILL: no cleanup, no atexit, possibly mid-append
    victim.communicate()
    assert victim.returncode == -signal.SIGKILL

    # -- recorded work survived; at most the tail line is torn
    lines = journal.read_bytes().split(b"\n")
    intact = [ln for ln in lines if ln.strip()]
    assert intact, "journal lost its recorded entries"

    # -- resume converges, and the store audits clean afterwards
    resumed = _run_cli("resume", str(killed_dir), "--workers", "2")
    assert resumed.returncode == 0, resumed.stderr
    verified = _run_cli("verify", str(killed_dir))
    assert verified.returncode == 0, verified.stdout + verified.stderr
    assert "verify: OK" in verified.stdout

    # -- the control run never saw a fault
    control = _run_cli("run", "--spec-file", str(spec_file), "--dir",
                       str(control_dir), "--workers", "2")
    assert control.returncode == 0, control.stderr

    # -- byte-for-byte identical query output
    killed_query = _run_cli("query", str(killed_dir), "--format", "json")
    control_query = _run_cli("query", str(control_dir), "--format", "json")
    assert killed_query.returncode == 0 and control_query.returncode == 0
    assert killed_query.stdout == control_query.stdout
    rows = json.loads(killed_query.stdout)["benchmarks"]
    assert rows, "query returned an empty grid"


# -- remote executor death ----------------------------------------------

#: Small enough to finish in seconds, large enough for several waves.
REMOTE_SPEC = {
    "name": "crash-remote",
    "machines": ["A"],
    "backends": ["GCC-SEQ", "GCC-TBB"],
    "cases": ["reduce", "transform", "sort", "find", "copy"],
    "size_exps": [10, 11],
    "threads": [2, 4],
}


def _executor_proc(base_url: str, root: Path, *, faults: Path | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro.remote.cli", "--url", base_url,
           "--root", str(root), "--max-idle", "30"]
    if faults is not None:
        cmd += ["--faults", str(faults)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


@pytest.mark.chaos
@pytest.mark.distributed
def test_sigkill_remote_executor_reassigns_and_stays_bit_identical(tmp_path):
    """A remote executor dying mid-wave must cost nothing but time.

    One executor runs with ``executor_dead=1.0`` -- it SIGKILLs itself
    the moment it claims its first wave, exactly like a host losing
    power. The coordinator must notice the lapsed lease, reassign the
    wave to the survivor, and finish a campaign whose results are
    byte-identical to a single-process fault-free run.
    """
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec, canonical_json
    from repro.service import ServiceClient, start_background

    doomed_plan = tmp_path / "doomed.json"
    doomed_plan.write_text(json.dumps({"seed": 5, "executor_dead": 1.0}),
                           encoding="utf-8")
    with start_background(tmp_path / "svc", concurrent=2,
                          lease_ttl=0.5) as svc:
        client = ServiceClient(svc.base_url)
        doomed = _executor_proc(svc.base_url, tmp_path / "doomed",
                                faults=doomed_plan)
        survivor = _executor_proc(svc.base_url, tmp_path / "survivor")
        try:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if len(client.executors()["executors"]) == 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("executors never registered")
            doc = client.submit(REMOTE_SPEC)
            done = client.wait(doc["id"], timeout=120)
            assert done["state"] == "complete"
            remote_rows = client.results(doc["id"])["rows"]
            metrics = client.metrics()
        finally:
            survivor.kill()
            survivor.communicate()
            doomed.communicate()
    # the doomed executor really died by SIGKILL after claiming
    assert doomed.returncode == -signal.SIGKILL
    # its wave was reassigned rather than lost
    assert metrics["service_remote_waves_reassigned"] >= 1
    # and the outcome is indistinguishable from a fault-free local run
    outcome = run_campaign(CampaignSpec.from_dict(REMOTE_SPEC))
    control = []
    for task in outcome.plan.tasks:
        result = outcome.results.get(task.task_id)
        if result is None:
            continue
        p = task.point
        control.append({
            "task_id": task.task_id, "kind": task.kind,
            "machine": p.machine, "backend": p.backend, "case": p.case,
            "size_exp": p.size_exp, "threads": p.threads,
            "status": result.status, "seconds": result.seconds,
            "error": result.error,
        })
    assert canonical_json(remote_rows) == canonical_json(control)
