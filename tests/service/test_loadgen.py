"""The load generator waits on campaigns by long-poll, not by timer."""

from __future__ import annotations

import re

from repro.service import loadgen, start_background
from repro.service.loadgen import LoadgenConfig, assert_slo, run_loadgen

#: A status request: ``GET /campaigns/{id}``, with or without a query.
_STATUS = re.compile(r"/campaigns/[^/?]+(\?.*)?")


def test_the_completion_wait_makes_one_status_request_per_state_change(
        tmp_path, monkeypatch):
    statuses: list[str] = []
    auditing: list[bool] = []
    real_http, real_audit = loadgen._http, loadgen._audit_results

    async def spy_http(host, port, method, path, *args, **kwargs):
        if method == "GET" and _STATUS.fullmatch(path) and not auditing:
            statuses.append(path)
        return await real_http(host, port, method, path, *args, **kwargs)

    async def spy_audit(*args, **kwargs):
        auditing.append(True)
        return await real_audit(*args, **kwargs)

    monkeypatch.setattr(loadgen, "_http", spy_http)
    monkeypatch.setattr(loadgen, "_audit_results", spy_audit)
    with start_background(tmp_path / "svc", concurrent=2) as svc:
        report = run_loadgen(svc.base_url,
                             LoadgenConfig(submissions=60, concurrency=16))
    assert_slo(report)
    assert report.campaigns == report.completed > 0
    # after its submission a campaign changes state at most twice
    # (queued -> running -> complete), and each long-poll answers one
    # change, or a finished campaign at once
    assert len(statuses) <= 2 * report.campaigns
    assert all("?wait=" in path for path in statuses)
