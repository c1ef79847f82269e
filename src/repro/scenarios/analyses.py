"""Analysis kinds: the data-driven engine behind every scenario.

Each paper artifact family is one *kind* -- a generic runner that reads
its grid entirely from a :class:`~repro.scenarios.schema.ScenarioSpec`
(machines, backends, cases, sweep axes, options) and produces the flat
``cells``/``curves`` maps the fidelity layer checks. Each registered
scenario's output is frozen bit for bit (floats as hex) as the
``output`` golden of its ``refdata/`` artifact, so any change to a
kind's numbers fails ``pstl-fidelity run`` naming the divergent cell.

Kinds and the artifacts they generalise:

========================  =============================================
``allocator-grid``        fig1 (custom-allocator speedup grid)
``problem-panels``        fig2 (time vs size per machine and k_it)
``strong-scaling``        fig3 (speedup vs threads per machine and k_it)
``algo-panels``           fig4-fig7 (problem + scaling panel pair)
``gpu-problem``           fig8 (GPU vs host sweep, forced transfers)
``gpu-chaining``          fig9 (GPU chaining vs per-call transfers)
``counter-table``         table3/table4 (Likwid-region counters)
``campaign-speedup``      table5 (campaign-planned speedup grid)
``campaign-efficiency``   table6 (max threads at >= 70 % efficiency)
``binary-sizes``          table7 (compile/link model sizes)
``campaign-grid``         user-defined sweeps (service-submittable)
========================  =============================================

``campaign-*`` kinds also expose :meth:`AnalysisKind.campaign_spec_for`,
mapping a scenario onto a :class:`~repro.campaign.spec.CampaignSpec`;
that is what lets ``repro.service`` accept a scenario name as a
campaign payload with content-derived dedup. :func:`campaign_cells`
folds an executed campaign back into the kind's cells, so callers that
run the campaign themselves (``pstl-campaign run --spec table5``) print
the same cells the scenario would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import ScenarioError, UnsupportedOperationError
from repro.scenarios.resolve import make_context, resolve_case

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import CampaignSpec
    from repro.scenarios.schema import ScenarioSpec

__all__ = [
    "AnalysisKind",
    "RunOptions",
    "get_analysis",
    "analysis_kinds",
    "campaign_cells",
    "Cells",
    "Curves",
]

#: Flat scalar grid, keyed like the fidelity refdata (``None`` = N/A).
Cells = Mapping[str, "float | None"]
#: (x, y) series keyed per artifact convention.
Curves = Mapping[str, "tuple[tuple[float, float], ...]"]


@dataclass(frozen=True)
class RunOptions:
    """Execution knobs orthogonal to the spec (shared with fidelity).

    ``store``/``workers`` only affect campaign-backed kinds, so a
    second run against the same store serves them from cache;
    ``size_step`` overrides the size-sweep stride of kinds with a size
    axis (``None`` keeps each spec's own default -- the grid the stored
    ``output`` goldens freeze).
    """

    store: Any = None
    workers: int = 0
    size_step: int | None = None


def _pow2_exp(n: int) -> int:
    """Exponent of a power-of-two size (the ``t@2^{exp}`` cell labels)."""
    if n < 1 or n & (n - 1):
        raise ScenarioError(f"size {n} is not a power of two")
    return n.bit_length() - 1


def _measure_point(case, ctx, n: int, elem=None) -> float:
    """One batch-aware measurement (the kinds' shared inner step)."""
    from repro.suite.batch import measure_case_batch, use_batch_path
    from repro.suite.wrappers import measure_case
    from repro.types import FLOAT64

    elem = elem if elem is not None else FLOAT64
    if use_batch_path(None, ctx):
        return measure_case_batch(case, ctx, n, elem)
    return measure_case(case, ctx, n, elem)


def _seq_baseline(machine: str, case_name: str, n: int,
                  baseline_backend: str = "GCC-SEQ") -> float:
    """The sequential denominator (Table 5's rule: one thread)."""
    ctx = make_context(machine, baseline_backend, threads=1)
    return _measure_point(resolve_case(case_name), ctx, n)


def _size_step(spec: "ScenarioSpec", options: RunOptions, default: int = 1) -> int:
    """Sweep stride: RunOptions override > spec option > kind default."""
    if options.size_step is not None:
        return options.size_step
    return spec.option("size_step", default)


def _foreach_case(k: int):
    """The ``for_each`` case at arithmetic intensity ``k``.

    Built directly so k values outside the registered k1/k1000 presets
    -- fig8's k=10000 -- work too.
    """
    from repro.suite.cases import _case_for_each

    return _case_for_each(k)


# ---------------------------------------------------------------------------
# Kind runners. Each reads only the spec + options and returns
# (cells, curves) keyed the way the refdata claims reference them.
# ---------------------------------------------------------------------------


def _run_allocator_grid(spec, options):
    """fig1: T_default / T_custom per (backend, case); cells
    ``{backend}/{case}``, ``None`` for capability gaps."""
    machine = spec.machines[0]
    threads = spec.threads[0]
    n = 1 << spec.size_exps[0]
    custom = spec.option("custom_allocator", "first-touch")
    cells: dict[str, float | None] = {}
    for backend in spec.backends:
        for case_name in spec.cases:
            case = resolve_case(case_name)
            try:
                default_ctx = make_context(
                    machine, backend, threads=threads, allocator="default"
                )
                custom_ctx = make_context(
                    machine, backend, threads=threads, allocator=custom
                )
                t_default = _measure_point(case, default_ctx, n)
                t_custom = _measure_point(case, custom_ctx, n)
            except UnsupportedOperationError:
                cells[f"{backend}/{case_name}"] = None
                continue
            cells[f"{backend}/{case_name}"] = t_default / t_custom
    return cells, {}


def _run_problem_panels(spec, options):
    """fig2: time vs size per (machine, k, backend); cells
    ``{machine}/k{k}/{backend}/t@2^{exp}``."""
    from repro.suite.sweeps import problem_scaling, problem_sizes

    sizes = problem_sizes(
        max_exp=spec.option("max_exp", 30), step=_size_step(spec, options)
    )
    template = spec.option("case_template", "for_each_k{k}")
    cells: dict[str, float | None] = {}
    curves: dict[str, tuple] = {}
    for machine in spec.machines:
        for k in spec.k_values:
            case = resolve_case(template.format(k=k))
            for backend in spec.backends:
                ctx = make_context(machine, backend)
                sweep = problem_scaling(case, ctx, sizes)
                key = f"{machine}/k{k}/{backend}"
                for n, seconds in zip(sweep.xs(), sweep.ys()):
                    cells[f"{key}/t@2^{_pow2_exp(n)}"] = seconds
                curves[key] = tuple(zip(sweep.xs(), sweep.ys()))
    return cells, curves


def _run_strong_scaling(spec, options):
    """fig3: speedup vs threads per (machine, k, backend); cells
    ``{backend}/k{k}/{machine}/speedup@{t}`` + ``.../max_speedup``."""
    from repro.analysis.speedup import ScalingCurve
    from repro.suite.sweeps import strong_scaling

    n = 1 << spec.size_exps[0]
    template = spec.option("case_template", "for_each_k{k}")
    baseline_backend = spec.option("baseline_backend", "GCC-SEQ")
    excluded = set(spec.exclude)
    cells: dict[str, float | None] = {}
    curves: dict[str, tuple] = {}
    for machine in spec.machines:
        for k in spec.k_values:
            case_name = template.format(k=k)
            case = resolve_case(case_name)
            baseline = _seq_baseline(machine, case_name, n, baseline_backend)
            for backend in spec.backends:
                if (machine, backend) in excluded:
                    continue
                sweep = strong_scaling(case, make_context(machine, backend), n)
                curve = ScalingCurve(
                    label=f"{backend}/k{k}/{machine}",
                    threads=tuple(sweep.xs()),
                    seconds=tuple(sweep.ys()),
                    baseline_seconds=baseline,
                )
                for t, s in zip(curve.threads, curve.speedups()):
                    cells[f"{curve.label}/speedup@{t}"] = s
                cells[f"{curve.label}/max_speedup"] = curve.max_speedup()
                curves[curve.label] = tuple(zip(curve.threads, curve.speedups()))
    return cells, curves


def _run_algo_panels(spec, options):
    """fig4-fig7: the problem + strong-scaling panel pair for one
    (machine, algorithm); cells ``problem/...`` and ``scaling/...``."""
    from repro.analysis.speedup import ScalingCurve
    from repro.suite.sweeps import problem_scaling, problem_sizes, strong_scaling

    machine = spec.machines[0]
    case_name = spec.cases[0]
    n = 1 << spec.size_exps[0]
    reference = spec.option("reference_backend", "GCC-SEQ")
    excluded = set(spec.exclude)
    available = tuple(b for b in spec.backends if (machine, b) not in excluded)
    case = resolve_case(case_name)
    sizes = problem_sizes(step=_size_step(spec, options))

    cells: dict[str, float | None] = {}
    curves: dict[str, tuple] = {}
    for backend in (reference, *available):
        sweep = problem_scaling(case, make_context(machine, backend), sizes)
        for size, seconds in zip(sweep.xs(), sweep.ys()):
            cells[f"problem/{backend}/t@2^{_pow2_exp(size)}"] = seconds
        curves[f"problem/{backend}"] = tuple(zip(sweep.xs(), sweep.ys()))

    baseline = _seq_baseline(machine, case_name, n, reference)
    for backend in available:
        try:
            sweep = strong_scaling(case, make_context(machine, backend), n)
        except UnsupportedOperationError:
            cells[f"scaling/{backend}/max_speedup"] = None
            continue
        if not sweep.xs():
            cells[f"scaling/{backend}/max_speedup"] = None
            continue
        curve = ScalingCurve(
            label=f"{backend}/{case_name}/{machine}",
            threads=tuple(sweep.xs()),
            seconds=tuple(sweep.ys()),
            baseline_seconds=baseline,
        )
        for t, s in zip(curve.threads, curve.speedups()):
            cells[f"scaling/{backend}/speedup@{t}"] = s
        cells[f"scaling/{backend}/max_speedup"] = curve.max_speedup()
        curves[f"scaling/{backend}"] = tuple(zip(curve.threads, curve.speedups()))
    return cells, curves


def _series_sweep(entry: Mapping[str, Any], case, sizes, elem, transfer_back=True):
    """One fig8/fig9 series sweep: host backends sweep normally, GPU
    series get a CUDA context with the panel's transfer policy."""
    from repro.sim.gpu import GpuExecution
    from repro.suite.sweeps import problem_scaling

    if entry.get("gpu"):
        ctx = make_context(
            entry["machine"],
            entry["backend"],
            threads=1,
            gpu_options=GpuExecution(transfer_back=transfer_back),
        )
    else:
        ctx = make_context(entry["machine"], entry["backend"])
    return problem_scaling(case, ctx, sizes, elem)


def _run_gpu_problem(spec, options):
    """fig8: GPU vs host sweep with D2H forced; cells
    ``k{k}/{series}/t@2^{exp}`` + ``k{k}/{gpu}/ratio@2^{max}``."""
    from repro.suite.sweeps import problem_sizes
    from repro.types import elem_type

    sizes = problem_sizes(
        max_exp=spec.option("max_exp", 30), step=_size_step(spec, options)
    )
    elem = elem_type(spec.option("elem", "double"))
    series_list = spec.option("series", ())
    ratio_baseline = spec.option("ratio_baseline")
    ratio_series = tuple(spec.option("ratio_series", ()))
    cells: dict[str, float | None] = {}
    curves: dict[str, tuple] = {}
    for k in spec.k_values:
        case = _foreach_case(k)
        by_key: dict[str, dict[int, float]] = {}
        for entry in series_list:
            key = entry["key"]
            sweep = _series_sweep(entry, case, sizes, elem)
            by_key[key] = dict(zip(sweep.xs(), sweep.ys()))
            for n, seconds in by_key[key].items():
                cells[f"k{k}/{key}/t@2^{_pow2_exp(n)}"] = seconds
            curves[f"k{k}/{key}"] = tuple(zip(sweep.xs(), sweep.ys()))
        host = by_key.get(ratio_baseline, {})
        for gpu in ratio_series:
            common = sorted(set(host) & set(by_key.get(gpu, {})))
            if common:
                n = common[-1]
                cells[f"k{k}/{gpu}/ratio@2^{_pow2_exp(n)}"] = (
                    host[n] / by_key[gpu][n]
                )
    return cells, curves


def _run_gpu_chaining(spec, options):
    """fig9: chained vs forced-transfer GPU calls; cells
    ``{panel}/{series}/t@2^{exp}`` + ``{series}/chain_saving``."""
    from repro.sim.gpu import GpuExecution
    from repro.suite.sweeps import problem_sizes
    from repro.suite.wrappers import run_case
    from repro.types import elem_type

    sizes = problem_sizes(
        max_exp=spec.option("max_exp", 30), step=_size_step(spec, options)
    )
    elem = elem_type(spec.option("elem", "double"))
    case = resolve_case(spec.cases[0])
    min_time = spec.option("min_time", 5.0)
    panels = tuple(spec.option("panels", ()))
    series_list = spec.option("series", ())
    chain_series = spec.option("chain_ratio_series")
    cells: dict[str, float | None] = {}
    curves: dict[str, tuple] = {}
    by_key: dict[str, dict[int, float]] = {}
    for panel in panels:
        pkey = panel["key"]
        transfer = panel["transfer_back"]
        for entry in series_list:
            key = entry["key"]
            if entry.get("gpu"):
                # A fresh context per point: the chaining effect lives
                # in per-context UM residency, so sharing one context
                # across sizes would understate the first-touch
                # migration cost.
                points = []
                for n in sizes:
                    ctx = make_context(
                        entry["machine"],
                        entry["backend"],
                        threads=1,
                        gpu_options=GpuExecution(transfer_back=transfer),
                    )
                    result = run_case(case, ctx, n, elem, min_time=min_time)
                    points.append((n, result.mean_time))
            else:
                sweep = _series_sweep(entry, case, sizes, elem)
                points = list(zip(sweep.xs(), sweep.ys()))
            by_key[f"{pkey}/{key}"] = dict(points)
            for n, seconds in points:
                cells[f"{pkey}/{key}/t@2^{_pow2_exp(n)}"] = seconds
            curves[f"{pkey}/{key}"] = tuple(points)
    if chain_series and len(panels) == 2:
        forced = by_key.get(f"{panels[0]['key']}/{chain_series}", {})
        chained = by_key.get(f"{panels[1]['key']}/{chain_series}", {})
        common = sorted(set(forced) & set(chained))
        if common:
            n = common[-1]
            cells[f"{chain_series}/chain_saving"] = forced[n] / chained[n]
    return cells, curves


def _run_counter_table(spec, options):
    """table3/table4: Likwid-region counters per backend; cells
    ``{backend}/{metric}``."""
    from repro.counters.likwid import LikwidMarkers

    machine = spec.machines[0]
    case_name = spec.cases[0]
    n = 1 << spec.size_exps[0]
    calls = spec.option("calls", 100)
    cells: dict[str, float | None] = {}
    for backend in spec.backends:
        ctx = make_context(machine, backend)
        case = resolve_case(case_name)
        arrays = case.setup(ctx, n, case.elem)
        markers = LikwidMarkers()
        # One real invocation; the simulation is deterministic, so the
        # remaining calls are identical and the region is scaled.
        with markers.region(case.name) as region:
            result = case.invoke(ctx, arrays, 0)
            region.record(result.report)
            region.calls = calls
            region.seconds = result.report.seconds * calls
            region.counters = result.report.counters.scaled(calls)
        stats = markers.get(case.name)
        cells[f"{backend}/instructions"] = float(stats.counters.instructions)
        cells[f"{backend}/fp_scalar"] = float(stats.counters.fp_scalar)
        cells[f"{backend}/fp_packed_128"] = float(stats.counters.fp_packed_128)
        cells[f"{backend}/fp_packed_256"] = float(stats.counters.fp_packed_256)
        cells[f"{backend}/gflops"] = stats.gflops
        cells[f"{backend}/bandwidth_gib"] = stats.bandwidth_gib
        cells[f"{backend}/data_volume_gib"] = stats.data_volume_gib
    return cells, {}


def _campaign_for_grid(spec) -> "CampaignSpec":
    """A scenario's axes as a campaign spec (shared by campaign kinds).

    The default campaign name appends the size exponent (``table5-2^30``),
    the identity earlier inline submissions used, so scenario-driven
    service submissions dedup against stored campaigns too.
    """
    from repro.campaign.spec import CampaignSpec

    default_name = f"{spec.name}-2^{spec.size_exps[0]}"
    return CampaignSpec(
        name=spec.option("campaign_name") or default_name,
        machines=spec.machines,
        backends=spec.backends,
        cases=spec.cases,
        size_exps=spec.size_exps,
        threads=spec.threads if spec.threads else (None,),
        allocators=spec.allocators if spec.allocators else (None,),
        baseline_backend=spec.option("baseline_backend", "GCC-SEQ"),
        exclude=spec.exclude,
        min_time=spec.option("min_time", 0.0),
    )


def _speedup_cells(spec, outcome):
    """table5: the campaign folded into speedups; cells
    ``{backend}/{case}/{machine}``."""
    from repro.campaign.query import speedup_grid

    return dict(speedup_grid(outcome))


def _efficiency_cells(spec, outcome):
    """table6: the thread-sweep campaign folded into the max-threads-at-
    efficiency grid; cells ``{backend}/{case}/{machine}``."""
    from repro.campaign.query import efficiency_grid

    grid = efficiency_grid(outcome, spec.option("efficiency_threshold", 0.70))
    return {k: (None if v is None else float(v)) for k, v in grid.items()}


def _run_binary_sizes(spec, options):
    """table7: compile/link model sizes; cells ``{backend}/mib``."""
    from repro.binaries import binary_size
    from repro.util.units import MIB

    return (
        {f"{backend}/mib": binary_size(backend) / MIB for backend in spec.backends},
        {},
    )


def _grid_cells(spec, outcome):
    """User-defined sweeps: every measured point as seconds + speedup.

    Cells: ``{backend}/{case}/{machine}/2^{exp}/{threads}t[/{alloc}]``
    suffixed ``/seconds`` and ``/speedup`` (``None`` where the paper
    would say N/A or no baseline exists).
    """
    cells: dict[str, float | None] = {}
    for task in outcome.plan.measures:
        p = task.point
        key = f"{p.backend}/{p.case}/{p.machine}/2^{p.size_exp}/{p.threads}t"
        if p.allocator is not None:
            key = f"{key}/{p.allocator}"
        seconds = outcome.seconds(task.task_id)
        cells[f"{key}/seconds"] = seconds
        baseline = (
            outcome.seconds(task.baseline_id)
            if task.baseline_id is not None
            else None
        )
        speedup = None
        if seconds is not None and baseline is not None and seconds > 0:
            speedup = baseline / seconds
        cells[f"{key}/speedup"] = speedup
    return cells


#: Campaign kind -> the fold from its executed campaign to its cells.
_CAMPAIGN_FOLDS: Mapping[str, Callable] = {
    "campaign-speedup": _speedup_cells,
    "campaign-efficiency": _efficiency_cells,
    "campaign-grid": _grid_cells,
}


def campaign_cells(spec: "ScenarioSpec", outcome) -> dict[str, float | None]:
    """A campaign-shaped scenario's cells from its executed campaign."""
    return _CAMPAIGN_FOLDS[spec.analysis](spec, outcome)


def _run_campaign(spec, options):
    """Campaign kinds: plan + execute the grid campaign, then fold it."""
    from repro.campaign.executor import run_campaign

    outcome = run_campaign(
        _campaign_for_grid(spec), store=options.store, workers=options.workers,
        batch=True,
    )
    return campaign_cells(spec, outcome), {}


# ---------------------------------------------------------------------------
# Kind-specific deep validation (beyond axis/option shape).
# ---------------------------------------------------------------------------


def _check_case_template(spec) -> None:
    """Every k value must yield a registered case via the template."""
    template = spec.option("case_template", "for_each_k{k}")
    for k in spec.k_values:
        name = template.format(k=k)
        try:
            resolve_case(name)
        except Exception:
            raise ScenarioError(
                f"scenario {spec.name!r}: field 'k_values' entry {k} maps to "
                f"unknown case {name!r} (via option 'case_template')"
            ) from None


def _check_series(spec) -> None:
    """GPU-kind ``series`` entries must reference declared axis values."""
    series = spec.option("series", ())
    if not series:
        raise ScenarioError(
            f"scenario {spec.name!r}: option 'series' must list at least one "
            "series ({key, machine, backend[, gpu]})"
        )
    keys = set()
    for entry in series:
        if not isinstance(entry, Mapping) or not {"key", "machine", "backend"} <= set(entry):
            raise ScenarioError(
                f"scenario {spec.name!r}: option 'series' entries need "
                f"'key', 'machine' and 'backend', got {entry!r}"
            )
        if entry["key"] in keys:
            raise ScenarioError(
                f"scenario {spec.name!r}: option 'series' has overlapping "
                f"key {entry['key']!r}"
            )
        keys.add(entry["key"])
        if entry["machine"] not in spec.machines:
            raise ScenarioError(
                f"scenario {spec.name!r}: series {entry['key']!r} names "
                f"machine {entry['machine']!r} absent from field 'machines'"
            )
        if entry["backend"] not in spec.backends:
            raise ScenarioError(
                f"scenario {spec.name!r}: series {entry['key']!r} names "
                f"backend {entry['backend']!r} absent from field 'backends'"
            )
    for opt in ("ratio_baseline", "chain_ratio_series"):
        wanted = spec.option(opt)
        if wanted is not None and wanted not in keys:
            raise ScenarioError(
                f"scenario {spec.name!r}: option {opt!r} names unknown "
                f"series {wanted!r}"
            )
    for wanted in spec.option("ratio_series", ()):
        if wanted not in keys:
            raise ScenarioError(
                f"scenario {spec.name!r}: option 'ratio_series' names "
                f"unknown series {wanted!r}"
            )
    panels = spec.option("panels")
    if panels is not None:
        pkeys = set()
        for panel in panels:
            if not isinstance(panel, Mapping) or not {"key", "transfer_back"} <= set(panel):
                raise ScenarioError(
                    f"scenario {spec.name!r}: option 'panels' entries need "
                    f"'key' and 'transfer_back', got {panel!r}"
                )
            if panel["key"] in pkeys:
                raise ScenarioError(
                    f"scenario {spec.name!r}: option 'panels' has overlapping "
                    f"key {panel['key']!r}"
                )
            pkeys.add(panel["key"])


@dataclass(frozen=True)
class AnalysisKind:
    """One analysis family: axis contract, options, runner, campaign map.

    ``required_axes`` must be non-empty in a spec, ``singleton_axes``
    must hold exactly one entry, and any axis in neither
    ``required_axes`` nor ``optional_axes`` must stay empty -- so a spec
    with a stray axis fails validation naming that field instead of the
    axis being silently ignored.
    """

    name: str
    summary: str
    run: Callable[["ScenarioSpec", RunOptions], tuple]
    required_axes: tuple[str, ...] = ()
    optional_axes: tuple[str, ...] = ()
    singleton_axes: tuple[str, ...] = ()
    option_defaults: Mapping[str, Any] = field(default_factory=dict)
    campaign_spec_for: Callable[["ScenarioSpec"], "CampaignSpec"] | None = None
    honors_size_step: bool = False
    extra_check: Callable[["ScenarioSpec"], None] | None = None

    def check(self, spec: "ScenarioSpec") -> None:
        """Validate ``spec`` against this kind's axis/option contract."""
        from repro.scenarios.schema import AXIS_FIELDS

        for axis in self.required_axes:
            if not getattr(spec, axis):
                raise ScenarioError(
                    f"scenario {spec.name!r}: field {axis!r} is empty, but "
                    f"analysis kind {self.name!r} requires it (empty grid)"
                )
        allowed = set(self.required_axes) | set(self.optional_axes)
        for axis in AXIS_FIELDS:
            if axis not in allowed and getattr(spec, axis):
                raise ScenarioError(
                    f"scenario {spec.name!r}: field {axis!r} is not used by "
                    f"analysis kind {self.name!r}; allowed axes: "
                    f"{sorted(allowed)}"
                )
        for axis in self.singleton_axes:
            values = getattr(spec, axis)
            if len(values) != 1:
                raise ScenarioError(
                    f"scenario {spec.name!r}: field {axis!r} must hold exactly "
                    f"one entry for analysis kind {self.name!r}, got "
                    f"{len(values)}"
                )
        unknown = set(spec.options) - set(self.option_defaults)
        if unknown:
            raise ScenarioError(
                f"scenario {spec.name!r}: field 'options' has unknown key(s) "
                f"{sorted(unknown)} for analysis kind {self.name!r}; known: "
                f"{sorted(self.option_defaults)}"
            )
        if self.extra_check is not None:
            self.extra_check(spec)


_KINDS: dict[str, AnalysisKind] = {}


def _register(kind: AnalysisKind) -> AnalysisKind:
    """Add ``kind`` to the registry (duplicate names are a bug)."""
    assert kind.name not in _KINDS, kind.name
    _KINDS[kind.name] = kind
    return kind


_register(AnalysisKind(
    name="allocator-grid",
    summary="custom-vs-default allocator speedup grid (fig1 shape)",
    run=_run_allocator_grid,
    required_axes=("machines", "backends", "cases", "threads", "size_exps"),
    singleton_axes=("machines", "threads", "size_exps"),
    option_defaults={"custom_allocator": "first-touch"},
))

_register(AnalysisKind(
    name="problem-panels",
    summary="time-vs-size panels per machine and k_it (fig2 shape)",
    run=_run_problem_panels,
    required_axes=("machines", "backends", "k_values"),
    option_defaults={
        "case_template": "for_each_k{k}", "max_exp": 30, "size_step": 1,
    },
    honors_size_step=True,
    extra_check=_check_case_template,
))

_register(AnalysisKind(
    name="strong-scaling",
    summary="speedup-vs-threads panels per machine and k_it (fig3 shape)",
    run=_run_strong_scaling,
    required_axes=("machines", "backends", "k_values", "size_exps"),
    singleton_axes=("size_exps",),
    option_defaults={
        "case_template": "for_each_k{k}", "baseline_backend": "GCC-SEQ",
    },
    extra_check=_check_case_template,
))

_register(AnalysisKind(
    name="algo-panels",
    summary="problem + strong-scaling panel pair for one algorithm "
            "(fig4-fig7 shape)",
    run=_run_algo_panels,
    required_axes=("machines", "backends", "cases", "size_exps"),
    singleton_axes=("machines", "cases", "size_exps"),
    option_defaults={"reference_backend": "GCC-SEQ", "size_step": 1},
    honors_size_step=True,
))

_register(AnalysisKind(
    name="gpu-problem",
    summary="GPU-vs-host size sweep with forced transfers (fig8 shape)",
    run=_run_gpu_problem,
    required_axes=("machines", "backends", "k_values"),
    option_defaults={
        "series": (), "max_exp": 30, "size_step": 1, "elem": "double",
        "ratio_baseline": None, "ratio_series": (),
    },
    honors_size_step=True,
    extra_check=_check_series,
))

_register(AnalysisKind(
    name="gpu-chaining",
    summary="chained vs per-call-transfer GPU panels (fig9 shape)",
    run=_run_gpu_chaining,
    required_axes=("machines", "backends", "cases"),
    singleton_axes=("cases",),
    option_defaults={
        "series": (), "panels": (), "max_exp": 30, "size_step": 1,
        "elem": "double", "min_time": 5.0, "chain_ratio_series": None,
    },
    honors_size_step=True,
    extra_check=_check_series,
))

_register(AnalysisKind(
    name="counter-table",
    summary="Likwid-region hardware counters per backend "
            "(table3/table4 shape)",
    run=_run_counter_table,
    required_axes=("machines", "backends", "cases", "size_exps"),
    singleton_axes=("machines", "cases", "size_exps"),
    option_defaults={"calls": 100},
))

_register(AnalysisKind(
    name="campaign-speedup",
    summary="campaign-planned speedup-vs-sequential grid (table5 shape)",
    run=_run_campaign,
    required_axes=("machines", "backends", "cases", "size_exps", "threads"),
    singleton_axes=("size_exps",),
    option_defaults={
        "campaign_name": None, "baseline_backend": "GCC-SEQ", "min_time": 0.0,
    },
    campaign_spec_for=_campaign_for_grid,
))

_register(AnalysisKind(
    name="campaign-efficiency",
    summary="max threads at >= threshold parallel efficiency "
            "(table6 shape)",
    run=_run_campaign,
    required_axes=("machines", "backends", "cases", "size_exps", "threads"),
    singleton_axes=("size_exps",),
    option_defaults={
        "campaign_name": None, "baseline_backend": "GCC-SEQ",
        "efficiency_threshold": 0.70, "min_time": 0.0,
    },
    campaign_spec_for=_campaign_for_grid,
))

_register(AnalysisKind(
    name="binary-sizes",
    summary="compile/link-model binary sizes per backend (table7 shape)",
    run=_run_binary_sizes,
    required_axes=("backends",),
))

_register(AnalysisKind(
    name="campaign-grid",
    summary="generic user-defined sweep: seconds + speedup per point",
    run=_run_campaign,
    required_axes=("machines", "backends", "cases", "size_exps", "threads"),
    optional_axes=("allocators",),
    singleton_axes=("size_exps",),
    option_defaults={
        "campaign_name": None, "baseline_backend": "GCC-SEQ", "min_time": 0.0,
    },
    campaign_spec_for=_campaign_for_grid,
))


def analysis_kinds() -> dict[str, AnalysisKind]:
    """All registered kinds, keyed by name (registration order)."""
    return dict(_KINDS)


def get_analysis(name: str, scenario: str | None = None) -> AnalysisKind:
    """Look up one analysis kind; unknown names raise naming the field."""
    try:
        return _KINDS[name]
    except KeyError:
        where = f"scenario {scenario!r}: " if scenario else ""
        raise ScenarioError(
            f"{where}unknown analysis kind {name!r} in field 'analysis'; "
            f"known: {sorted(_KINDS)}"
        ) from None
