"""Artifact registry: regenerate each figure/table in checkable form.

Each builder measures through the **scenario registry**
(:mod:`repro.scenarios`): the artifact's registered scenario spec is
executed by its analysis kind and the resulting cells/curves become the
:class:`~repro.fidelity.measure.MeasuredArtifact`. The artifact also
carries the scenario's float-hex ``output`` object, which each refdata
file pins with a ``golden`` claim -- so a scenario regression fails
conformance here and the deviation names the changed cells.

The campaign-backed grids (Tables 5 and 6) accept the shared
:class:`~repro.campaign.store.ResultStore` through
:class:`~repro.scenarios.analyses.RunOptions`, so fidelity runs reuse the
campaign cache: a second ``pstl-fidelity run --campaign-dir D`` serves
both tables entirely from cache.

The fig3 builder additionally traces the seven per-call measurements of
one small fig3 curve (:func:`trace_fig3_calls`) and records the
Chrome-trace structure summary as a golden object -- the conformance
home of the former bespoke ``tests/trace`` golden file.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

from repro.errors import FidelityError
from repro.fidelity.measure import MeasuredArtifact, trace_structure_summary
from repro.fidelity.refdata import ARTIFACT_IDS
from repro.scenarios.analyses import RunOptions

__all__ = [
    "build_artifact",
    "artifact_builders",
    "fig3_trace_spec",
    "trace_fig3_calls",
]

#: Size exponent of the traced fig3 golden sweep (small on purpose: the
#: trace *structure* is size-independent and the check stays fast).
FIG3_TRACE_SIZE_EXP = 16


def _scenario_builder(artifact: str) -> Callable[[RunOptions], MeasuredArtifact]:
    """A builder that measures ``artifact`` through its registered scenario."""

    def build(opts: RunOptions) -> MeasuredArtifact:
        from repro.scenarios.runner import run_scenario

        return run_scenario(artifact, opts).artifact()

    return build


def fig3_trace_spec():
    """fig3 narrowed to the one traced curve of the trace golden.

    Mach A, GCC-TBB, k_it = 1000 at 2^16: one sequential baseline call
    plus one call per thread count.
    """
    from repro.scenarios.registry import get_scenario

    return dataclasses.replace(
        get_scenario("fig3"), machines=("A",), backends=("GCC-TBB",),
        k_values=(1000,), size_exps=(FIG3_TRACE_SIZE_EXP,), exclude=(),
    )


def trace_fig3_calls() -> None:
    """The per-call measurements of :func:`fig3_trace_spec`'s curve.

    ``measure_case`` on the one-thread sequential baseline, then on
    each thread count of the curve: the calls whose bench, call, phase,
    lane and fork/join spans the trace golden pins. A traced scenario
    run costs the same curve as one fused wave instead.
    """
    from repro.scenarios.resolve import make_context, resolve_case
    from repro.suite.sweeps import thread_counts
    from repro.suite.wrappers import measure_case

    spec = fig3_trace_spec()
    (machine,), (backend,) = spec.machines, spec.backends
    (k,), (exp,) = spec.k_values, spec.size_exps
    case = resolve_case(spec.option("case_template", "for_each_k{k}").format(k=k))
    baseline = spec.option("baseline_backend", "GCC-SEQ")
    measure_case(case, make_context(machine, baseline, threads=1), 1 << exp)
    ctx = make_context(machine, backend)
    for threads in thread_counts(ctx.machine.total_cores):
        measure_case(case, ctx.with_(threads=threads), 1 << exp)


def _fig3(opts: RunOptions) -> MeasuredArtifact:
    """fig3 via the registry, plus the traced-calls golden object."""
    from repro.scenarios.runner import run_scenario
    from repro.trace import Tracer, to_chrome_trace, use_tracer

    measured = run_scenario("fig3", opts).artifact()
    with use_tracer(Tracer()) as tracer:
        trace_fig3_calls()
    summary = trace_structure_summary(to_chrome_trace(tracer))
    return dataclasses.replace(
        measured, objects={**measured.objects, "trace_summary": summary}
    )


_BUILDERS: Mapping[str, Callable[[RunOptions], MeasuredArtifact]] = {
    artifact: (_fig3 if artifact == "fig3" else _scenario_builder(artifact))
    for artifact in ARTIFACT_IDS
}


def artifact_builders() -> dict[str, Callable[[RunOptions], MeasuredArtifact]]:
    """All registered builders, keyed by artifact id (report order)."""
    return {a: _BUILDERS[a] for a in ARTIFACT_IDS}


def build_artifact(
    artifact: str, opts: RunOptions | None = None
) -> MeasuredArtifact:
    """Regenerate one artifact's measured grid."""
    if artifact not in _BUILDERS:
        raise FidelityError(
            f"unknown artifact {artifact!r}; known: {list(ARTIFACT_IDS)}"
        )
    return _BUILDERS[artifact](opts if opts is not None else RunOptions())
