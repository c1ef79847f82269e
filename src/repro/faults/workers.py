"""Picklable pool-worker wrappers that apply claimed fault directives.

The injector decides *in the parent* which task gets which fault; these
module-level functions carry the directive across the process boundary
(they must stay importable and picklable, like the executor's own
worker entries) and apply it before delegating to the real evaluation:

* ``worker_exception`` raises :class:`~repro.errors.InjectedFaultError`
  so the future completes exceptionally, exactly like an unexpected
  worker crash would;
* ``worker_hang`` sleeps ``hang_seconds`` and then proceeds -- a stall,
  not a death -- so the parent's timeout machinery is what surfaces it;
* ``worker_kill`` SIGKILLs the worker process itself, which breaks the
  whole :class:`~concurrent.futures.ProcessPoolExecutor` and exercises
  the executor's pool-rebuild path.

The campaign executors are imported lazily inside each wrapper to keep
``repro.faults`` import-light and cycle-free.
"""

from __future__ import annotations

import os
import signal
import time

from repro.errors import InjectedFaultError

__all__ = ["faulty_point", "faulty_wave", "apply_directive"]


def apply_directive(directive: str, hang_seconds: float) -> None:
    """Apply one worker-site fault directive in the current process."""
    if directive == "worker_hang":
        time.sleep(hang_seconds)
        return
    if directive == "worker_kill":
        os.kill(os.getpid(), signal.SIGKILL)  # never returns
        return  # pragma: no cover - unreachable
    if directive == "worker_exception":
        raise InjectedFaultError("injected worker exception")
    raise InjectedFaultError(f"unknown fault directive {directive!r}")


def faulty_point(payload: dict, directive: str, hang_seconds: float) -> dict:
    """:func:`~repro.campaign.executor.execute_point` under one directive."""
    apply_directive(directive, hang_seconds)
    from repro.campaign.executor import execute_point

    return execute_point(payload)


def faulty_wave(payloads: list[dict], directives: list[str | None],
                hang_seconds: float) -> list[dict]:
    """:func:`~repro.campaign.executor.execute_wave` under per-point directives.

    Directives are applied in submission order before any evaluation, so
    a single faulted point poisons the whole shard future -- the shape
    real worker crashes have, and what forces the executor's per-point
    scalar retry path.
    """
    for directive in directives:
        if directive is not None:
            apply_directive(directive, hang_seconds)
    from repro.campaign.executor import execute_wave

    return execute_wave(payloads)
