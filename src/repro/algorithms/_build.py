"""The profile builder: every algorithm's work, as array profiles.

Algorithms describe their work as per-element costs over a partition; the
helpers here turn that into :class:`~repro.sim.wave.ArrayPhase` phases of
an :class:`~repro.sim.wave.ArrayProfile` in a uniform way, so run mode
and model mode provably build identical profiles for deterministic
algorithms. A phase keeps only its chunk->thread ids and element counts
(both shared with the partition it was cut from, unless early exit
scales the counts) plus four per-element costs; every other per-chunk
quantity is ``elems x cost``. This is the only profile builder: the wave
engine costs these profiles directly, and the scalar reference engine
reads them through :func:`~repro.sim.wave.arrays_to_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import SimulationError, UnsupportedOperationError
from repro.execution.context import ExecutionContext
from repro.execution.partition import Partition
from repro.memory.array import SimArray
from repro.memory.layout import PagePlacement
from repro.sim.wave import ArrayPhase, ArrayProfile
from repro.sim.work import PhaseKind

__all__ = [
    "PerElem",
    "blend_placement",
    "parallel_phase",
    "sequential_phase",
    "make_profile",
    "require_support",
]

#: The chunk->thread map of every single-chunk phase (thread 0).
_THREAD0 = np.zeros(1, dtype=np.int64)
_THREAD0.flags.writeable = False


@dataclass(frozen=True, slots=True)
class PerElem:
    """Intrinsic per-element cost of one pass of an algorithm."""

    instr: float
    fp: float = 0.0
    read: float = 0.0
    write: float = 0.0

    def scaled(self, factor: float) -> "PerElem":
        """All components multiplied by ``factor``."""
        return PerElem(
            instr=self.instr * factor,
            fp=self.fp * factor,
            read=self.read * factor,
            write=self.write * factor,
        )


def blend_placement(
    arrays: Sequence[tuple[SimArray, float]],
) -> PagePlacement | None:
    """Traffic-weighted blend of several arrays' placements.

    A phase that reads array A and writes array B sees a mix of both
    placements; weights are the bytes moved per array. Equal blends
    return one shared (frozen) placement.
    """
    items = tuple((a.placement, w) for a, w in arrays if w > 0)
    return _blend(items) if items else None


@lru_cache(maxsize=256)
def _blend(items: tuple[tuple[PagePlacement, float], ...]) -> PagePlacement:
    nnodes = max(p.num_nodes for p, _ in items)
    total = sum(w for _, w in items)
    fractions = [0.0] * nnodes
    for placement, weight in items:
        for node, frac in enumerate(placement.node_fractions):
            fractions[node] += frac * weight / total
    policies = {p.policy for p, _ in items}
    policy = items[0][0].policy if len(policies) > 1 else policies.pop()
    return PagePlacement(node_fractions=tuple(fractions), policy=policy)


def parallel_phase(
    name: str,
    partition: Partition,
    per_elem: PerElem,
    placement: PagePlacement | None,
    working_set: float,
    scan_fractions: np.ndarray | None = None,
    sync_points: int = 0,
    spread_penalty: float = 1.0,
    apply_instr_overhead: bool = True,
    vectorizable: bool = True,
) -> ArrayPhase:
    """Build a parallel phase from a partition and per-element costs.

    ``scan_fractions`` (one entry per chunk) scales each chunk's work, for
    early-exit algorithms where a chunk only processes a prefix. Chunks
    left with no work are dropped when the partition has several; a phase
    left with no chunks keeps one empty chunk on thread 0.
    """
    thread, elems = partition.thread, partition.elems
    if scan_fractions is not None:
        elems = elems * scan_fractions
    if len(elems) > 1:
        keep = elems > 0.0
        if not keep.all():
            thread, elems = thread[keep], elems[keep]
    if len(elems) == 0:
        thread, elems = _THREAD0, np.zeros(1)
    return ArrayPhase(
        name=name,
        kind=PhaseKind.PARALLEL,
        thread=thread,
        elems=elems,
        instr_per_elem=per_elem.instr,
        fp_per_elem=per_elem.fp,
        read_per_elem=per_elem.read,
        write_per_elem=per_elem.write,
        placement=placement,
        working_set=working_set,
        sched_chunks=partition.num_chunks,
        sync_points=sync_points,
        spread_penalty=spread_penalty,
        apply_instr_overhead=apply_instr_overhead,
        vectorizable=vectorizable,
    )


@lru_cache(maxsize=1024)
def _single(elems: float) -> np.ndarray:
    """A read-only one-chunk ``elems`` array, shared by equal phases."""
    array = np.array([elems], dtype=np.float64)
    array.flags.writeable = False
    return array


def sequential_phase(
    name: str,
    elems: float,
    per_elem: PerElem,
    placement: PagePlacement | None,
    working_set: float,
    spread_penalty: float = 1.0,
    apply_instr_overhead: bool = False,
    vectorizable: bool = True,
) -> ArrayPhase:
    """Build a single-thread phase (sequential runs, fix-ups, combines)."""
    if elems < 0:
        raise SimulationError("elems must be non-negative")
    return ArrayPhase(
        name=name,
        kind=PhaseKind.SEQUENTIAL,
        thread=_THREAD0,
        elems=_single(elems),
        instr_per_elem=per_elem.instr,
        fp_per_elem=per_elem.fp,
        read_per_elem=per_elem.read,
        write_per_elem=per_elem.write,
        placement=placement,
        working_set=working_set,
        spread_penalty=spread_penalty,
        apply_instr_overhead=apply_instr_overhead,
        vectorizable=vectorizable,
    )


def make_profile(
    ctx: ExecutionContext,
    alg: str,
    n: int,
    elem,
    phases: Sequence[ArrayPhase],
    parallel: bool,
    regions: int = 1,
    notes: Sequence[str] = (),
) -> ArrayProfile:
    """Assemble the final profile for one invocation."""
    return ArrayProfile(
        alg=alg,
        n=n,
        elem=elem,
        threads=ctx.threads if parallel else 1,
        policy=ctx.policy,
        phases=tuple(phases),
        regions=regions if parallel else 0,
        notes=tuple(notes),
    )


def require_support(ctx: ExecutionContext, alg: str) -> None:
    """Raise if the backend lacks the algorithm entirely.

    GNU's parallel-mode library has no ``inclusive_scan`` (Section 5.4);
    requesting it raises, which experiments surface as the paper's "N/A"
    cells.
    """
    from repro.backends.base import Support

    if ctx.backend.support(alg) is Support.UNSUPPORTED:
        raise UnsupportedOperationError(
            f"{ctx.backend.name} does not implement {alg}"
        )
