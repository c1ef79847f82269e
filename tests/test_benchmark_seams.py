"""The pipeline benchmark's seams into the program stay whole.

``benchmarks/pipeline`` imports ``repro`` names, and its traced runs
patch every ``tracing.WRAPPERS`` row and read result fields in the
wrappers' hooks. A wrapped name that is renamed or deleted breaks only
the traced benchmark, while every untraced run still passes, so this
test walks the same seams: the workloads' imports, ``install()``, one
small campaign through a patched use site, and ``uninstall()``.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec

PIPELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "pipeline"


def _site(module: str, path: str) -> tuple[object, str]:
    """The object that owns a wrapped use site, and the attribute's name."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's ``workloads`` module, imported as its runner does."""
    monkeypatch.syspath_prepend(str(PIPELINE))
    return importlib.import_module("workloads")


def test_traced_campaign_patches_and_restores_every_seam(workloads, tmp_path):
    tracing = workloads.tracing
    originals = {(module, path): getattr(*_site(module, path))
                 for module, path, _, _ in tracing.WRAPPERS}
    recorder = tracing.install("seams")
    try:
        for module, path, name, _ in tracing.WRAPPERS:
            patched = getattr(*_site(module, path))
            assert getattr(patched, "__pipeline_span__", None) == name, \
                f"{module}.{path} was not patched"
        spec = CampaignSpec(name="seams", machines=("A",),
                            backends=("GCC-TBB",), cases=("reduce",),
                            size_exps=(12,), threads=(2,))
        workloads.campaign.run_campaign(spec, campaign_dir=tmp_path / "c",
                                        workers=0)
    finally:
        recorder.uninstall()
    (run,) = [span for span in recorder.spans if span.name == "campaign.run"]
    assert run.attrs["executed"] == 2
    assert "error" not in run.attrs
    for (module, path), original in originals.items():
        assert getattr(*_site(module, path)) == original, \
            f"{module}.{path} was not restored"


def test_the_fleet_workloads_calls_still_bind():
    """``ServiceFleet`` calls the client and starts executors this way.

    The calls are copied from ``workloads.py`` (``ServiceFleet.setup``,
    ``measure`` and ``_client``); a signature change that breaks one
    fails here instead of inside a benchmark run.
    """
    from repro.remote.cli import _build_parser
    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:1")  # never connects
    payload = {"name": "seams"}
    inspect.signature(client.submit).bind(payload, max_attempts=8)
    inspect.signature(client.wait).bind("cid", timeout=60.0, poll=0.005)
    inspect.signature(client.results).bind("cid")
    inspect.signature(client.executors).bind()
    inspect.signature(client.metrics).bind()
    args = _build_parser().parse_args(
        ["--service-root", "R", "--root", "R/executor-0", "--max-idle", "600"])
    assert (args.service_root, args.max_idle) == ("R", 600.0)
