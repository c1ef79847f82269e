#!/usr/bin/env python
"""Documentation lint: executable code fences + docstring coverage.

Two checks, wired into tier-1 via ``tests/test_docs.py``:

1. **Fence execution** — every ```` ```python ```` fence in each file of
   :data:`FENCE_FILES` is executed, cumulatively per file (later fences
   may use names defined by earlier ones), inside a temporary working
   directory so snippets that write files do not pollute the repo. A
   fence that raises fails the lint with its file/line and the error.
2. **Docstring coverage** — every public module, class, function and
   method in :data:`DOCSTRING_PACKAGES` (the trace, campaign, batch and
   wave simulation, fidelity, and fault-injection layers) must carry a
   non-empty docstring.

Run directly::

    python tools/check_docs.py          # lint
    python tools/check_docs.py --list   # show what is covered, lint nothing
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Files whose ``python`` fences must execute cleanly.
FENCE_FILES = (
    "README.md",
    "docs/OBSERVABILITY.md",
    "docs/CAMPAIGNS.md",
    "docs/FIDELITY.md",
    "docs/ROBUSTNESS.md",
    "docs/PERFORMANCE.md",
    "docs/SERVICE.md",
    "docs/DISTRIBUTION.md",
    "docs/SCENARIOS.md",
)

#: Packages (or plain modules) whose public API must be fully documented.
DOCSTRING_PACKAGES = (
    "repro.trace",
    "repro.campaign",
    "repro.sim.wave",
    "repro.suite.batch",
    "repro.fidelity",
    "repro.faults",
    "repro.service",
    "repro.remote",
    "repro.scenarios",
)

#: Backwards-compatible alias (first entry of :data:`DOCSTRING_PACKAGES`).
DOCSTRING_PACKAGE = DOCSTRING_PACKAGES[0]

_FENCE_RE = re.compile(r"^```(\w*)\s*$")


def _ensure_importable() -> None:
    """Make ``repro`` importable when running from a source checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def extract_fences(path: Path) -> list[tuple[int, str]]:
    """All ```python fences of ``path`` as (1-based start line, source)."""
    fences: list[tuple[int, str]] = []
    lang: str | None = None
    buf: list[int | str] = []
    start = 0
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        match = _FENCE_RE.match(line)
        if lang is None:
            if match:
                lang = match.group(1)
                start = lineno + 1
                buf = []
        elif line.strip() == "```":
            if lang == "python":
                fences.append((start, "\n".join(buf)))
            lang = None
        else:
            buf.append(line)
    return fences


def run_fences(path: Path) -> list[str]:
    """Execute ``path``'s python fences cumulatively; return error strings."""
    _ensure_importable()
    errors: list[str] = []
    namespace: dict = {"__name__": "__docs__"}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="check_docs_") as tmp:
        os.chdir(tmp)
        try:
            for lineno, source in extract_fences(path):
                try:
                    code = compile(source, f"{path.name}:{lineno}", "exec")
                    exec(code, namespace)  # noqa: S102 - the point of the lint
                except Exception:
                    tb = traceback.format_exc(limit=3)
                    errors.append(
                        f"{path.relative_to(REPO)}:{lineno}: fence failed\n{tb}"
                    )
        finally:
            os.chdir(cwd)
    return errors


def _public_members(module) -> list[tuple[str, object]]:
    """Public classes/functions defined in ``module`` (not re-exports)."""
    members = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members.append((name, obj))
    return members


def walk_modules(package: str) -> list:
    """``package`` plus its direct submodules, imported (no recursion --
    the documented layers are flat packages)."""
    _ensure_importable()
    import importlib
    import pkgutil

    root = importlib.import_module(package)
    modules = [root]
    paths = getattr(root, "__path__", None)  # plain modules have none
    if paths is not None:
        for info in pkgutil.iter_modules(paths, prefix=f"{package}."):
            modules.append(importlib.import_module(info.name))
    return modules


def check_docstrings(package: str = DOCSTRING_PACKAGE) -> list[str]:
    """Undocumented public symbols in ``package``; empty list = clean."""
    errors: list[str] = []
    for module in walk_modules(package):
        if not (module.__doc__ or "").strip():
            errors.append(f"{module.__name__}: missing module docstring")
        for name, obj in _public_members(module):
            qual = f"{module.__name__}.{name}"
            if not (obj.__doc__ or "").strip():
                errors.append(f"{qual}: missing docstring")
            if inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    if mname.startswith("_"):
                        continue
                    func = member
                    if isinstance(member, property):
                        func = member.fget
                    elif isinstance(member, (staticmethod, classmethod)):
                        func = member.__func__
                    elif not inspect.isfunction(member):
                        continue
                    if func is not None and not (func.__doc__ or "").strip():
                        errors.append(f"{qual}.{mname}: missing docstring")
    return errors


def list_coverage() -> int:
    """``--list``: show what the lint covers without linting anything."""
    print("fence files:")
    for rel in FENCE_FILES:
        path = REPO / rel
        count = len(extract_fences(path)) if path.exists() else "MISSING"
        print(f"  {rel}: {count} python fence(s)")
    print("docstring packages:")
    for package in DOCSTRING_PACKAGES:
        modules = walk_modules(package)
        symbols = sum(len(_public_members(m)) for m in modules)
        print(f"  {package}: {len(modules)} module(s), "
              f"{symbols} public symbol(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run both checks; print failures; exit non-zero on any."""
    parser = argparse.ArgumentParser(
        prog="check_docs", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list covered files/packages and exit")
    args = parser.parse_args(argv)
    if args.list_only:
        return list_coverage()
    errors: list[str] = []
    for rel in FENCE_FILES:
        errors.extend(run_fences(REPO / rel))
    for package in DOCSTRING_PACKAGES:
        errors.extend(check_docstrings(package))
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    fences = sum(len(extract_fences(REPO / rel)) for rel in FENCE_FILES)
    print(f"check_docs: OK ({fences} fences executed, "
          f"{', '.join(DOCSTRING_PACKAGES)} documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
