"""Doc snippets are executable: the documentation cannot rot.

Every fenced ``python`` block in ``docs/API.md``, ``docs/TUTORIAL.md``
and ``docs/SERVING.md`` is executed top-to-bottom in one namespace per
file (the documents are written as sequential walkthroughs).  A failing
snippet fails this test, which the CI ``docs`` job runs alongside the
markdown link/coverage checker (``tools/check_docs.py``).
"""

import importlib.util
import pathlib

import pytest

REPO = pathlib.Path(__file__).parent.parent
DOCS = REPO / "docs"

# one fence parser for the whole repo: reuse the checker's, so "which
# blocks exist" can never disagree between the compile and execute checks
_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def python_blocks(path: pathlib.Path) -> list[str]:
    return check_docs.python_blocks(path)


@pytest.mark.parametrize(
    "doc", ["API.md", "TUTORIAL.md", "SERVING.md", "RELIABILITY.md"]
)
def test_doc_snippets_execute(doc):
    path = DOCS / doc
    blocks = python_blocks(path)
    assert blocks, f"{doc} has no python snippets"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"{doc}[block {i}]", "exec"), namespace)
        except Exception as err:  # pragma: no cover - diagnostic path
            pytest.fail(
                f"{doc} snippet {i} failed: {err}\n--- snippet ---\n{block}"
            )


def test_docs_exist_and_are_linked():
    """The documentation suite is present and indexed from the README."""
    for name in (
        "API.md",
        "TUTORIAL.md",
        "SERVING.md",
        "ARCHITECTURE.md",
        "RELIABILITY.md",
    ):
        assert (DOCS / name).exists(), f"docs/{name} missing"
    readme = (DOCS.parent / "README.md").read_text()
    for name in (
        "docs/API.md",
        "docs/TUTORIAL.md",
        "docs/SERVING.md",
        "docs/ARCHITECTURE.md",
        "docs/RELIABILITY.md",
    ):
        assert name in readme, f"README does not link {name}"


def test_backticked_dotted_names_resolve():
    """The checker finds backticked dotted ``repro.…`` names and refuses
    one that no longer resolves; modules, attributes and nested
    attributes resolve."""
    text = "see `repro`, `repro.compile` and `repro.compile_plan()`"
    assert check_docs._DOTTED.findall(text) == ["repro.compile"]
    assert check_docs.resolves("repro.api")
    assert check_docs.resolves("repro.api.PlanPolicy")
    assert check_docs.resolves("repro.api.PlanPolicy.make_optimizer")
    assert not check_docs.resolves("repro.compile_plan")
    assert not check_docs.resolves("repro.no_such_module.thing")
