"""The distributed bit-identity harness (docs/DISTRIBUTION.md's headline).

Four real executor *processes* serve one campaign over HTTP while the
chaos plan attacks every layer of the shipping protocol at once:

- ``lease_expire`` sweeps claimed waves back to pending mid-flight;
- ``segment_lost`` eats first deliveries, forcing bounded re-ships;
- ``segment_dup_ship`` makes executors ship sealed segments twice;
- one executor runs ``executor_dead=1.0`` and SIGKILLs itself on its
  first claim -- a host dying without a goodbye.

The invariant under all of it: the finished campaign's result rows are
byte-identical to a single-process fault-free ``run_campaign``, and the
shared store holds exactly one index row per unique point (no lost
rows, no duplicates -- exactly-once ingest).
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

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, canonical_json
from repro.campaign.store import ResultStore
from repro.faults import FaultPlan
from repro.service import ServiceClient, start_background

REPO = Path(__file__).resolve().parents[2]

SPEC = {
    "name": "distributed-identity",
    "machines": ["A"],
    "backends": ["GCC-SEQ", "GCC-TBB", "GCC-GNU"],
    "cases": ["reduce", "transform", "sort", "find", "copy", "merge"],
    "size_exps": [10, 11],
    "threads": [2, 4],
}

FLEET = 4


def _spawn_executor(base_url: str, root: Path, *, faults: Path | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro.remote.cli", "--url", base_url,
           "--root", str(root), "--max-idle", "30"]
    if faults is not None:
        cmd += ["--faults", str(faults)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _control_rows() -> list[dict]:
    outcome = run_campaign(CampaignSpec.from_dict(SPEC))
    rows = []
    for task in outcome.plan.tasks:
        result = outcome.results.get(task.task_id)
        if result is None:
            continue
        p = task.point
        rows.append({
            "task_id": task.task_id, "kind": task.kind,
            "machine": p.machine, "backend": p.backend, "case": p.case,
            "size_exp": p.size_exp, "threads": p.threads,
            "status": result.status, "seconds": result.seconds,
            "error": result.error,
        })
    return rows


@pytest.mark.chaos
@pytest.mark.distributed
def test_four_executor_chaos_campaign_is_bit_identical(tmp_path):
    service_faults = FaultPlan(seed=23, segment_lost=1.0, lease_expire=0.4)
    dup_plan = tmp_path / "dup.json"
    dup_plan.write_text(json.dumps({"seed": 29, "segment_dup_ship": 1.0}),
                        encoding="utf-8")
    dead_plan = tmp_path / "dead.json"
    dead_plan.write_text(json.dumps({"seed": 31, "executor_dead": 1.0}),
                         encoding="utf-8")

    svc_root = tmp_path / "svc"
    with start_background(svc_root, concurrent=2, lease_ttl=0.5,
                          faults=service_faults) as svc:
        client = ServiceClient(svc.base_url)
        fleet = [
            _spawn_executor(svc.base_url, tmp_path / f"ex{i}",
                            faults=dead_plan if i == 0 else dup_plan)
            for i in range(FLEET)
        ]
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if len(client.executors()["executors"]) == FLEET:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("fleet never finished registering")
            doc = client.submit(SPEC)
            done = client.wait(doc["id"], timeout=180)
            assert done["state"] == "complete"
            remote_rows = client.results(doc["id"])["rows"]
            metrics = client.metrics()
        finally:
            for proc in fleet:
                if proc.poll() is None:
                    proc.kill()
                proc.communicate()

    # -- the chaos actually happened
    assert fleet[0].returncode == -signal.SIGKILL  # host death was real
    assert metrics["service_remote_lost_ships"] >= 1
    assert metrics["service_remote_waves_reassigned"] >= 1
    assert metrics["service_remote_duplicate_ships"] \
        + metrics["service_remote_stale_ships"] >= 1

    # -- headline: byte-identical to the single-process fault-free run
    assert canonical_json(remote_rows) == canonical_json(_control_rows())

    # -- executors keep no files: --root is accepted and left untouched
    for i in range(FLEET):
        root = tmp_path / f"ex{i}"
        assert not root.exists() or not any(root.iterdir()), root

    # -- exactly-once: one row per unique point, nothing superseded
    store = ResultStore(svc_root / "cache")
    assert store.indexed
    assert store.compact().superseded == 0
    scan = store.scan()
    assert scan.errors == 0
