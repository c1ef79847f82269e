"""Result type returned by every algorithm invocation."""

from __future__ import annotations

import copy
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.report import SimReport
from repro.sim.wave import ArrayProfile
from repro.trace.core import get_tracer

if TYPE_CHECKING:
    from repro.execution.context import ExecutionContext
    from repro.memory.array import SimArray

__all__ = ["AlgoResult", "uncosted"]

#: Set while a caller builds profiles that a fused wave will cost.
_UNCOSTED: ContextVar[bool] = ContextVar("uncosted", default=False)


@contextmanager
def uncosted() -> Iterator[None]:
    """CPU calls made inside never cost their profile, traced or not."""
    token = _UNCOSTED.set(True)
    try:
        yield
    finally:
        _UNCOSTED.reset(token)


class AlgoResult:
    """Outcome of one parallel-STL call.

    Attributes
    ----------
    value:
        The algorithm's functional result (run mode), or ``None``/an
        expectation in model mode (documented per algorithm).
    profile:
        The array work profile the invocation built.
    report:
        Simulated timing and counters: ``ctx.simulate`` of the profile.
        A CPU call costs its profile when ``report`` is first read, so a
        caller that only needs the profile (a fused campaign wave) never
        costs it on its own. Under an enabled tracer it is costed at
        the call, so its spans land where the call happened -- except
        inside :func:`uncosted`. A GPU call is always costed at once,
        because unified-memory migration mutates its arrays' residency
        in call order.
    """

    __slots__ = ("value", "profile", "_ctx", "_report")

    def __init__(
        self,
        ctx: "ExecutionContext",
        value: Any,
        profile: ArrayProfile,
        arrays: "tuple[SimArray, ...]" = (),
    ) -> None:
        self.value = value
        self.profile = profile
        if ctx.is_gpu or (get_tracer().enabled and not _UNCOSTED.get()):
            self._ctx, self._report = None, ctx.simulate(profile, arrays)
        else:
            self._ctx, self._report = ctx, None

    @property
    def report(self) -> SimReport:
        """The profile's cost on the context's engine (cached)."""
        if self._report is None:
            self._report = self._ctx.simulate(self.profile)
            self._ctx = None
        return self._report

    @property
    def seconds(self) -> float:
        """Simulated wall time of the call."""
        return self.report.seconds

    def with_value(self, value: Any) -> "AlgoResult":
        """The same invocation, reporting a different functional result."""
        other = copy.copy(self)
        other.value = value
        return other
