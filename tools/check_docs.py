#!/usr/bin/env python3
"""Documentation hygiene checker (run by the CI ``docs`` job).

Four checks over the repo's markdown:

1. **Intra-repo links resolve.**  Every relative markdown link target
   (``[text](path)``, ``path`` not a URL or pure anchor) must exist on
   disk, relative to the file containing it.
2. **Python snippets compile.**  Every fenced ``python`` block in the
   checked files must at least byte-compile (the ``docs`` CI job
   additionally *executes* the API.md / TUTORIAL.md / SERVING.md
   blocks via ``tests/test_docs_snippets.py``).
3. **Public symbols are documented.**  Every name in
   ``repro.api.__all__`` and ``repro.serving.__all__`` must be
   mentioned somewhere under ``docs/`` (or the README) -- the facade
   surface cannot silently outgrow its documentation.  (Runs only in
   default mode, where the full corpus is checked.)
4. **Dotted names resolve.**  Every dotted ``repro.…`` name written in
   backticks must import and resolve, so a deleted or renamed name
   cannot linger in the prose.

Usage:  python tools/check_docs.py [files...]
        (no arguments = README.md + all of docs/)

Exit status: 0 = clean, 1 = problems found.
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: [text](target) -- excluding images; target captured up to ) or space
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
#: a backticked dotted name rooted at the package: `repro.api.compile`
_DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def default_files() -> list[pathlib.Path]:
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def check_links(path: pathlib.Path) -> list[str]:
    problems = []
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.is_relative_to(REPO):
            # escapes the checkout: a host-relative web link (e.g. the
            # CI badge's ../../actions/... URL), not a repo file
            continue
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO)}: broken link -> {target}")
    return problems


def python_blocks(path: pathlib.Path) -> list[str]:
    """Fenced ``python`` blocks of a markdown file, in document order.
    (Also used by ``tests/test_docs_snippets.py`` to *execute* them.)"""
    return _FENCE.findall(path.read_text())


def check_snippets(path: pathlib.Path) -> list[str]:
    problems = []
    for i, block in enumerate(python_blocks(path)):
        try:
            compile(block, f"{path.name}[block {i}]", "exec")
        except SyntaxError as err:
            problems.append(
                f"{path.relative_to(REPO)}: python block {i} does not "
                f"compile: {err}"
            )
    return problems


#: facade modules whose entire ``__all__`` must appear in the docs
_COVERED_MODULES = (
    "repro.api",
    "repro.serving",
    "repro.faults",
    "repro.placement",
    "repro.pipeline",
)


def check_symbol_coverage(files: list[pathlib.Path]) -> list[str]:
    """Every public facade symbol is mentioned in the doc corpus."""
    corpus = "\n".join(f.read_text() for f in files if f.exists())
    problems = []
    for module_name in _COVERED_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            if name not in corpus:
                problems.append(
                    f"{module_name}.{name} is public but never "
                    f"mentioned in README.md or docs/"
                )
    return problems


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an importable module, or an attribute
    path under the longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_dotted_names(path: pathlib.Path) -> list[str]:
    """Every backticked ``repro.…`` name in a file resolves."""
    return [
        f"{path.relative_to(REPO)}: `{name}` does not resolve"
        for name in sorted(set(_DOTTED.findall(path.read_text())))
        if not resolves(name)
    ]


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    files = [pathlib.Path(a).resolve() for a in args] or default_files()
    problems: list[str] = []
    sys.path.insert(0, str(REPO / "src"))
    try:
        for f in files:
            if not f.exists():
                problems.append(f"missing file: {f}")
                continue
            problems += check_links(f)
            problems += check_snippets(f)
            problems += check_dotted_names(f)
        if not args:  # full-corpus mode: coverage is meaningful
            problems += check_symbol_coverage(files)
    finally:
        sys.path.remove(str(REPO / "src"))
    if problems:
        print("documentation problems:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    coverage = "" if args else ", public symbols covered"
    print(
        f"docs OK: {len(files)} files, links resolve, snippets "
        f"compile, dotted names resolve{coverage}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
