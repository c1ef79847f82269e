"""Run scenarios: spec -> measured cells/curves -> checkable artifact.

:func:`run_scenario` accepts a registered name, a validated
:class:`~repro.scenarios.schema.ScenarioSpec`, or a raw payload dict,
dispatches to the spec's analysis kind, and wraps the result in a
:class:`ScenarioRun` whose ``artifact()`` is the fidelity layer's
:class:`~repro.fidelity.measure.MeasuredArtifact` -- so everything that
consumes fidelity artifacts (claim checks, refdata diffs, CI
conformance) can consume scenario output unchanged.

:func:`campaign_spec` compiles a campaign-shaped scenario (plus
optional axis overrides) into its :class:`~repro.campaign.spec.
CampaignSpec` -- ``pstl-campaign run --spec table5`` uses it.
:func:`campaign_payload` is the service bridge: the same spec as the
plain campaign-spec dict ``repro.service`` already accepts, so a
scenario submission dedups against the equivalent inline submission via
the same content-derived campaign id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ScenarioError
from repro.scenarios.analyses import RunOptions, get_analysis
from repro.scenarios.registry import get_scenario
from repro.scenarios.schema import ScenarioSpec, scenario_from_dict, validate_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import CampaignSpec
    from repro.fidelity.measure import MeasuredArtifact

__all__ = [
    "RunOptions",
    "ScenarioRun",
    "resolve_spec",
    "run_scenario",
    "campaign_spec",
    "campaign_payload",
    "service_payload",
    "describe_scenario",
]


def resolve_spec(scenario: "str | ScenarioSpec | Mapping[str, Any]") -> ScenarioSpec:
    """A validated spec from a name, spec instance, or payload dict."""
    if isinstance(scenario, ScenarioSpec):
        return validate_scenario(scenario)
    if isinstance(scenario, str):
        return get_scenario(scenario)
    if isinstance(scenario, Mapping):
        return scenario_from_dict(scenario)
    raise ScenarioError(
        f"cannot interpret {type(scenario).__name__} as a scenario "
        "(want a name, a ScenarioSpec, or a spec dict)"
    )


@dataclass(frozen=True)
class ScenarioRun:
    """One executed scenario: the spec plus its measured grids."""

    spec: ScenarioSpec
    cells: Mapping[str, float | None] = field(default_factory=dict)
    curves: Mapping[str, tuple] = field(default_factory=dict)

    def artifact(self) -> "MeasuredArtifact":
        """As a fidelity artifact (id = the spec's claims binding/name).

        The ``output`` object is every cell and curve point in float-hex
        form, flat-keyed ``cells/<key>`` and ``curves/<key>``: what the
        artifact's ``golden`` claim compares bit for bit, so a diverging
        golden names each changed cell or curve.
        """
        from repro.fidelity.measure import MeasuredArtifact

        return MeasuredArtifact(
            self.spec.claims or self.spec.name,
            cells=dict(self.cells),
            curves=dict(self.curves),
            objects={"output": self.output()},
        )

    def output(self) -> dict[str, Any]:
        """Cells and curves as a flat, sorted float-hex dict (N/A = null)."""
        flat: dict[str, Any] = {
            f"cells/{key}": _hex(value) for key, value in self.cells.items()
        }
        for key, curve in self.curves.items():
            flat[f"curves/{key}"] = [[_hex(x), _hex(y)] for x, y in curve]
        return dict(sorted(flat.items()))

    def rendered(self) -> str:
        """A flat, human-readable table of the measured cells."""
        from repro.util.tables import TextTable

        table = TextTable(
            headers=["Cell", "Value"],
            title=f"{self.spec.name}: {self.spec.title or self.spec.analysis}",
        )
        for key in sorted(self.cells):
            value = self.cells[key]
            table.add_row([key, "N/A" if value is None else f"{value:.6g}"])
        lines = [table.render()]
        if self.curves:
            lines.append(f"curves: {len(self.curves)} series "
                         f"({', '.join(sorted(self.curves))})")
        return "\n".join(lines)


def _hex(value: float | None) -> str | None:
    """Bit-exact JSON form of one number."""
    return None if value is None else float(value).hex()


def run_scenario(
    scenario: "str | ScenarioSpec | Mapping[str, Any]",
    options: RunOptions | None = None,
) -> ScenarioRun:
    """Validate, dispatch to the analysis kind, and measure one scenario."""
    spec = resolve_spec(scenario)
    kind = get_analysis(spec.analysis, scenario=spec.name)
    cells, curves = kind.run(spec, options if options is not None else RunOptions())
    return ScenarioRun(spec=spec, cells=dict(cells), curves=dict(curves))


def campaign_spec(
    scenario: "str | ScenarioSpec | Mapping[str, Any]",
    overrides: Mapping[str, Any] | None = None,
) -> "CampaignSpec":
    """A campaign-shaped scenario as the campaign spec it compiles to.

    Only campaign-shaped kinds (``campaign-speedup``,
    ``campaign-efficiency``, ``campaign-grid``) map onto the campaign
    planner; others raise. ``overrides`` replaces axis fields (e.g.
    ``{"size_exps": [12]}``) *before* conversion and re-validation, so a
    narrowed scenario is still a fully-checked spec.
    """
    spec = resolve_spec(scenario)
    if overrides:
        spec = validate_scenario(spec.with_axes(**overrides))
    kind = get_analysis(spec.analysis, scenario=spec.name)
    if kind.campaign_spec_for is None:
        raise ScenarioError(
            f"scenario {spec.name!r}: analysis kind {kind.name!r} has no "
            "campaign form; service submission needs a campaign-shaped kind "
            "(campaign-speedup, campaign-efficiency, campaign-grid)"
        )
    return kind.campaign_spec_for(spec)


def campaign_payload(
    scenario: "str | ScenarioSpec | Mapping[str, Any]",
    overrides: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """A scenario as a service-submittable campaign-spec dict
    (:func:`campaign_spec` in JSON form)."""
    return campaign_spec(scenario, overrides).to_dict()


def service_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Resolve a ``{"scenario": ..., **axis overrides}`` submission.

    The ``scenario`` key holds a registered name (or a full spec dict);
    every other key is an axis override (``size_exps``, ``threads``,
    ...). Returns the campaign-spec dict the scheduler admits, so a
    scenario submission and the equivalent inline spec share one
    content-derived campaign id and dedup against each other.
    """
    data = dict(payload)
    scenario = data.pop("scenario")
    return campaign_payload(scenario, data or None)


def describe_scenario(spec: ScenarioSpec) -> str:
    """A human summary of one spec: kind contract + canonical JSON."""
    kind = get_analysis(spec.analysis, scenario=spec.name)
    lines = [
        f"{spec.name}: {spec.title or '(untitled)'}",
        f"  analysis: {kind.name} -- {kind.summary}",
        f"  claims:   {spec.claims or '(none)'}",
    ]
    for axis in ("machines", "backends", "cases", "size_exps", "threads",
                 "k_values", "allocators"):
        values = getattr(spec, axis)
        if values:
            lines.append(f"  {axis}: {list(values)}")
    if spec.exclude:
        lines.append(f"  exclude: {[list(p) for p in spec.exclude]}")
    if spec.options:
        lines.append(f"  options: {dict(spec.options)}")
    if kind.campaign_spec_for is not None:
        lines.append("  service: submittable as a campaign payload "
                     '({"scenario": "%s"})' % spec.name)
    lines.append(f"  spec: {spec.canonical()}")
    return "\n".join(lines)
