"""Reference-data schema: the paper's numbers as versioned JSON.

One file per artifact under ``refdata/`` (``fig1.json`` ... ``fig9.json``,
``table3.json`` ... ``table7.json``). Each file transcribes the ICPP 2024
paper's values for that figure or table as a list of machine-checkable
**claims**, plus the **waivers** that encode the documented deviations of
EXPERIMENTS.md. The schema is deliberately small (see docs/FIDELITY.md):

``claims``
    Each claim has a unique ``id``, a ``kind`` and kind-specific fields:

    * ``ordering`` -- ``cell`` must be the ``expect`` (``"max"``/``"min"``)
      of the non-N/A cells in ``group`` (the *who wins* tier);
    * ``ratio`` -- ``measured / paper`` must land inside the
      multiplicative ``band`` ``[lo, hi]`` (the *by what factor* tier);
    * ``bound`` -- the cell must fall inside an absolute ``[min, max]``
      interval (ratio tier; used for paper statements like "never
      exceeds the STREAM ratio");
    * ``na`` -- the cell must be N/A, reproducing the paper's capability
      gaps (ordering tier: the N/A pattern is structural);
    * ``crossover`` -- the x where ``curve_a`` first beats ``curve_b``
      must land within ``steps`` sweep steps of ``paper_x`` (the *where
      crossovers fall* tier);
    * ``golden`` -- the measured object named by ``cell`` must equal the
      artifact's stored golden (ratio tier; every artifact pins its
      scenario's float-hex ``output``, fig3 also its trace-event summary).

``waivers``
    ``{"claim": id, "reason": ..., "experiments_md": ...}`` --
    ``experiments_md`` must quote the matching EXPERIMENTS.md deviation
    note verbatim (``tests/fidelity/test_refdata.py`` enforces it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import FidelityError

__all__ = [
    "Claim",
    "Waiver",
    "ArtifactRef",
    "CLAIM_KINDS",
    "TIER_BY_KIND",
    "ARTIFACT_IDS",
    "refdata_dir",
    "refdata_path",
    "load_refdata",
    "load_all_refdata",
    "save_refdata",
]

#: Every artifact of the paper's evaluation section, in report order.
ARTIFACT_IDS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "table3", "table4", "table5", "table6", "table7",
)

#: Recognised claim kinds.
CLAIM_KINDS = ("ordering", "ratio", "bound", "na", "crossover", "golden")

#: Claim kind -> claim tier (the three tiers of EXPERIMENTS.md's thesis:
#: *who wins*, *by roughly what factor*, *where crossovers fall*).
TIER_BY_KIND = {
    "ordering": "ordering",
    "na": "ordering",
    "ratio": "ratio",
    "bound": "ratio",
    "golden": "ratio",
    "crossover": "crossover",
}


@dataclass(frozen=True)
class Claim:
    """One machine-checkable statement transcribed from the paper."""

    id: str
    kind: str
    cell: str | None = None
    group: tuple[str, ...] = ()
    expect: str | None = None
    paper: float | None = None
    band: tuple[float, float] | None = None
    min: float | None = None
    max: float | None = None
    curve_a: str | None = None
    curve_b: str | None = None
    paper_x: float | None = None
    steps: int = 1
    note: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in CLAIM_KINDS:
            raise FidelityError(
                f"claim {self.id!r}: unknown kind {self.kind!r}; known: {CLAIM_KINDS}"
            )
        if self.kind == "ordering":
            if not self.cell or len(self.group) < 2 or self.expect not in ("max", "min"):
                raise FidelityError(
                    f"claim {self.id!r}: ordering needs cell, group (>= 2) "
                    "and expect in {'max', 'min'}"
                )
            if self.cell not in self.group:
                raise FidelityError(
                    f"claim {self.id!r}: ordering cell must be in its group"
                )
        elif self.kind == "ratio":
            if not self.cell or self.paper is None or self.band is None:
                raise FidelityError(
                    f"claim {self.id!r}: ratio needs cell, paper and band"
                )
            lo, hi = self.band
            if not (0 < lo <= hi):
                raise FidelityError(f"claim {self.id!r}: band must be 0 < lo <= hi")
        elif self.kind == "bound":
            if not self.cell or (self.min is None and self.max is None):
                raise FidelityError(
                    f"claim {self.id!r}: bound needs cell and min and/or max"
                )
        elif self.kind == "na":
            if not self.cell:
                raise FidelityError(f"claim {self.id!r}: na needs cell")
        elif self.kind == "crossover":
            if not self.curve_a or not self.curve_b or self.paper_x is None:
                raise FidelityError(
                    f"claim {self.id!r}: crossover needs curve_a, curve_b, paper_x"
                )
            if self.steps < 0:
                raise FidelityError(f"claim {self.id!r}: steps must be >= 0")
        elif self.kind == "golden":
            if not self.cell:
                raise FidelityError(f"claim {self.id!r}: golden needs cell")

    @property
    def tier(self) -> str:
        """The claim's tier: ``ordering``, ``ratio`` or ``crossover``."""
        return TIER_BY_KIND[self.kind]

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Claim":
        """Build from one JSON claim object."""
        known = {
            "id", "kind", "cell", "group", "expect", "paper", "band",
            "min", "max", "curve_a", "curve_b", "paper_x", "steps", "note",
        }
        unknown = set(payload) - known
        if unknown:
            raise FidelityError(
                f"claim {payload.get('id')!r}: unknown fields {sorted(unknown)}"
            )
        if "id" not in payload or "kind" not in payload:
            raise FidelityError(f"claim missing id/kind: {dict(payload)!r}")
        band = payload.get("band")
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            cell=payload.get("cell"),
            group=tuple(payload.get("group", ())),
            expect=payload.get("expect"),
            paper=payload.get("paper"),
            band=tuple(band) if band is not None else None,
            min=payload.get("min"),
            max=payload.get("max"),
            curve_a=payload.get("curve_a"),
            curve_b=payload.get("curve_b"),
            paper_x=payload.get("paper_x"),
            steps=int(payload.get("steps", 1)),
            note=payload.get("note"),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON form (kind-specific fields only, stable order)."""
        out: dict[str, Any] = {"id": self.id, "kind": self.kind}
        for key in ("cell", "expect", "paper", "min", "max",
                    "curve_a", "curve_b", "paper_x", "note"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.group:
            out["group"] = list(self.group)
        if self.band is not None:
            out["band"] = list(self.band)
        if self.kind == "crossover":
            out["steps"] = self.steps
        return out


@dataclass(frozen=True)
class Waiver:
    """A documented deviation: the claim it covers and its citation."""

    claim: str
    reason: str
    experiments_md: str

    def __post_init__(self) -> None:
        if not self.claim or not self.reason or not self.experiments_md:
            raise FidelityError(
                "waivers need claim, reason and an experiments_md citation"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Waiver":
        """Build from one JSON waiver object."""
        unknown = set(payload) - {"claim", "reason", "experiments_md"}
        if unknown:
            raise FidelityError(
                f"waiver {payload.get('claim')!r}: unknown fields {sorted(unknown)}"
            )
        return cls(
            claim=payload.get("claim", ""),
            reason=payload.get("reason", ""),
            experiments_md=payload.get("experiments_md", ""),
        )

    def to_dict(self) -> dict[str, str]:
        """JSON form."""
        return {
            "claim": self.claim,
            "reason": self.reason,
            "experiments_md": self.experiments_md,
        }


@dataclass(frozen=True)
class ArtifactRef:
    """One artifact's reference data: claims, waivers and goldens."""

    artifact: str
    title: str
    source: str
    claims: tuple[Claim, ...]
    waivers: tuple[Waiver, ...] = ()
    goldens: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [c.id for c in self.claims]
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise FidelityError(
                f"{self.artifact}: duplicate claim ids {sorted(dupes)}"
            )
        known = set(ids)
        for waiver in self.waivers:
            if waiver.claim not in known:
                raise FidelityError(
                    f"{self.artifact}: waiver for unknown claim {waiver.claim!r}"
                )
        for claim in self.claims:
            if claim.kind == "golden" and claim.cell not in self.goldens:
                raise FidelityError(
                    f"{self.artifact}: golden claim {claim.id!r} has no "
                    f"stored golden {claim.cell!r}"
                )

    def waiver_for(self, claim_id: str) -> Waiver | None:
        """The waiver covering ``claim_id``, if any."""
        for waiver in self.waivers:
            if waiver.claim == claim_id:
                return waiver
        return None

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArtifactRef":
        """Build from one refdata JSON document."""
        unknown = set(payload) - {"artifact", "title", "source", "claims",
                                  "waivers", "goldens"}
        if unknown:
            raise FidelityError(
                f"refdata {payload.get('artifact')!r}: unknown fields "
                f"{sorted(unknown)}"
            )
        for key in ("artifact", "title", "source", "claims"):
            if key not in payload:
                raise FidelityError(f"refdata missing {key!r}: {sorted(payload)}")
        return cls(
            artifact=payload["artifact"],
            title=payload["title"],
            source=payload["source"],
            claims=tuple(Claim.from_dict(c) for c in payload["claims"]),
            waivers=tuple(Waiver.from_dict(w) for w in payload.get("waivers", ())),
            goldens=dict(payload.get("goldens", {})),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON form (round-trips through :meth:`from_dict`)."""
        out: dict[str, Any] = {
            "artifact": self.artifact,
            "title": self.title,
            "source": self.source,
            "claims": [c.to_dict() for c in self.claims],
        }
        if self.waivers:
            out["waivers"] = [w.to_dict() for w in self.waivers]
        if self.goldens:
            out["goldens"] = dict(self.goldens)
        return out


def refdata_dir() -> Path:
    """The repository's ``refdata/`` directory."""
    return Path(__file__).resolve().parents[3] / "refdata"


def refdata_path(artifact: str, root: str | Path | None = None) -> Path:
    """The JSON file holding ``artifact``'s reference data."""
    return (Path(root) if root is not None else refdata_dir()) / f"{artifact}.json"


def load_refdata(artifact: str, root: str | Path | None = None) -> ArtifactRef:
    """Load and validate one artifact's reference file."""
    path = refdata_path(artifact, root)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FidelityError(f"no reference data for {artifact!r} at {path}") from None
    except json.JSONDecodeError as exc:
        raise FidelityError(f"corrupt reference data at {path}: {exc}") from None
    ref = ArtifactRef.from_dict(payload)
    if ref.artifact != artifact:
        raise FidelityError(
            f"{path} declares artifact {ref.artifact!r}, expected {artifact!r}"
        )
    return ref


def load_all_refdata(
    artifacts: Sequence[str] | None = None, root: str | Path | None = None
) -> list[ArtifactRef]:
    """Load reference data for ``artifacts`` (default: all known)."""
    ids = tuple(artifacts) if artifacts is not None else ARTIFACT_IDS
    unknown = [a for a in ids if a not in ARTIFACT_IDS]
    if unknown:
        raise FidelityError(
            f"unknown artifacts {unknown}; known: {list(ARTIFACT_IDS)}"
        )
    return [load_refdata(a, root) for a in ids]


def save_refdata(ref: ArtifactRef, root: str | Path | None = None) -> Path:
    """Write ``ref`` back to its JSON file (pretty, stable order)."""
    path = refdata_path(ref.artifact, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ref.to_dict(), indent=2) + "\n", encoding="utf-8")
    return path
