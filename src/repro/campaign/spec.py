"""Declarative campaign specifications.

A :class:`CampaignSpec` names the full cross product of a sweep --
machines x backends x cases x sizes x threads x allocators x modes --
the way pSTL-Bench's campaign runner takes one (compiler, backend) pair
and a benchmark list per invocation. The planner (`repro.campaign.plan`)
expands a spec into concrete :class:`PointSpec` tasks, pruning cells the
capability matrix marks N/A and deduplicating shared sequential
baselines.

Both classes serialise to canonical JSON (sorted keys, no whitespace
variance), which is what the content-addressed store hashes: the same
point always maps to the same cache key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from repro.errors import CampaignError
from repro.memory.allocators import ALLOCATOR_FACTORIES

__all__ = ["PointSpec", "CampaignSpec", "canonical_json"]

#: Modes a point may execute in (DESIGN.md section 1).
_VALID_MODES = ("model", "run")


#: The one canonical encoder. ``json.dumps`` with these options builds
#: a new encoder on every call; this shared one (``encode`` keeps no
#: state between calls) yields the same bytes without that cost.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Its C encoder, made once: ``encode`` makes one per call. It is built
#: with ``_CANONICAL``'s settings but no circular-reference markers,
#: since every thread shares it; None where ``json`` has no C speedups.
_C_ENCODE = None if json.encoder.c_make_encoder is None else \
    json.encoder.c_make_encoder(
        None, _CANONICAL.default, json.encoder.encode_basestring_ascii,
        _CANONICAL.indent, _CANONICAL.key_separator,
        _CANONICAL.item_separator, _CANONICAL.sort_keys,
        _CANONICAL.skipkeys, _CANONICAL.allow_nan)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, compact separators)."""
    if _C_ENCODE is None:
        return _CANONICAL.encode(payload)
    return "".join(_C_ENCODE(payload, 0))


@dataclass(frozen=True, slots=True)
class PointSpec:
    """One executable grid point: a single (machine, backend, case) run.

    ``threads`` is always a concrete integer here -- the planner resolves
    the spec-level ``None`` ("all cores") against the machine model before
    emitting points, so a point's identity (and therefore its cache key)
    is unambiguous.
    """

    machine: str
    backend: str
    case: str
    size_exp: int
    threads: int
    mode: str = "model"
    allocator: str | None = None
    min_time: float = 0.0

    def __post_init__(self) -> None:
        if self.size_exp < 0:
            raise CampaignError("size_exp must be non-negative")
        if self.threads < 1:
            raise CampaignError("threads must be >= 1")
        if self.mode not in _VALID_MODES:
            raise CampaignError(f"mode must be one of {_VALID_MODES}, got {self.mode!r}")
        if self.allocator is not None and self.allocator not in ALLOCATOR_FACTORIES:
            raise CampaignError(
                f"allocator must be one of {tuple(ALLOCATOR_FACTORIES)} or None, "
                f"got {self.allocator!r}"
            )
        if self.min_time < 0:
            raise CampaignError("min_time must be non-negative")

    @property
    def n(self) -> int:
        """Problem size in elements (2^size_exp)."""
        return 1 << self.size_exp

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready).

        Spelled out rather than ``dataclasses.asdict`` -- every field is
        a scalar, and asdict's recursive deepcopy dominates the warm
        (all-cache-hit) campaign path, where this runs per task.
        """
        return {
            "machine": self.machine, "backend": self.backend,
            "case": self.case, "size_exp": self.size_exp,
            "threads": self.threads, "mode": self.mode,
            "allocator": self.allocator, "min_time": self.min_time,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], *,
                  ignore_unknown: bool = False) -> "PointSpec":
        """Rebuild from :meth:`to_dict` output.

        Unknown keys are rejected by default (a mistyped spec should
        fail loudly); ``ignore_unknown=True`` drops them instead, for
        readers of *stored* records that may carry fields from a newer
        schema -- the store's integrity scan, for one.
        """
        known = {f.name for f in fields(cls)}
        extra = set(payload) - known
        if extra and not ignore_unknown:
            raise CampaignError(f"unknown PointSpec fields: {sorted(extra)}")
        return cls(**{k: v for k, v in payload.items() if k in known})

    def canonical(self) -> str:
        """Canonical JSON identity (what the cache key hashes)."""
        return canonical_json(self.to_dict())


def _tuple_of(value, kind=None) -> tuple:
    """Normalise list-ish spec fields to tuples (frozen dataclass hygiene)."""
    out = tuple(value)
    if kind is not None:
        for item in out:
            if item is not None and not isinstance(item, kind):
                raise CampaignError(f"expected {kind.__name__} or None, got {item!r}")
    return out


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: the cross product the planner expands.

    ``threads`` entries may be ``None`` ("all cores of the machine") or a
    concrete count; counts larger than a machine's core total are skipped
    for that machine, so one spec can drive a strong-scaling sweep across
    machines of different widths. ``exclude`` lists (machine, backend)
    pairs that are unavailable -- the paper's "ICC was not installed on
    Mach B" -- and renders those cells N/A without running them.
    """

    name: str
    machines: tuple[str, ...]
    backends: tuple[str, ...]
    cases: tuple[str, ...]
    size_exps: tuple[int, ...] = (30,)
    threads: tuple[int | None, ...] = (None,)
    modes: tuple[str, ...] = ("model",)
    allocators: tuple[str | None, ...] = (None,)
    baseline_backend: str = "GCC-SEQ"
    exclude: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    min_time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("machines", "backends", "cases", "size_exps", "threads",
                     "modes", "allocators"):
            object.__setattr__(self, name, _tuple_of(getattr(self, name)))
        object.__setattr__(
            self, "exclude", tuple(tuple(pair) for pair in self.exclude)
        )
        if not self.name:
            raise CampaignError("campaign needs a non-empty name")
        for name in ("machines", "backends", "cases", "size_exps", "threads",
                     "modes", "allocators"):
            if not getattr(self, name):
                raise CampaignError(f"campaign spec field {name!r} must be non-empty")
        for mode in self.modes:
            if mode not in _VALID_MODES:
                raise CampaignError(f"invalid mode {mode!r}")
        for exp in self.size_exps:
            if not isinstance(exp, int) or exp < 0:
                raise CampaignError(f"invalid size_exp {exp!r}")
        for t in self.threads:
            if t is not None and (not isinstance(t, int) or t < 1):
                raise CampaignError(f"invalid thread count {t!r}")
        for pair in self.exclude:
            if len(pair) != 2:
                raise CampaignError(f"exclude entries are (machine, backend) pairs, got {pair!r}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready; exclude pairs become lists)."""
        payload = asdict(self)
        payload["exclude"] = [list(pair) for pair in self.exclude]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        known = {f.name for f in fields(cls)}
        extra = set(payload) - known
        if extra:
            raise CampaignError(f"unknown CampaignSpec fields: {sorted(extra)}")
        data = dict(payload)
        if "exclude" in data:
            data["exclude"] = tuple(tuple(pair) for pair in data["exclude"])
        for name in ("machines", "backends", "cases", "size_exps", "threads",
                     "modes", "allocators"):
            if name in data:
                data[name] = tuple(data[name])
        return cls(**data)

    def canonical(self) -> str:
        """Canonical JSON identity of the whole spec."""
        return canonical_json(self.to_dict())
