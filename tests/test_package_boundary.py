"""The shipped package holds only the system.

Test oracles live under ``tests/oracles/`` and the randomized generators
and Hypothesis strategies in ``tests/generators.py``; ``hypothesis`` is
a test-only dependency.  This guard imports ``repro`` and every
subpackage and checks that none of that test-only code is back in it.
"""

import importlib
import importlib.util
import pathlib
import pkgutil
import re

import repro

ORACLE_NAMES = (
    "plan_partitions_reference",
    "brute_force_placement",
    "remap_pair_bytes_reference",
    "replay_reference",
    "pipeline_cost_ms",
    "sequential_cost_ms",
)

SRC = pathlib.Path(repro.__file__).parent


def _all_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        modules.append(importlib.import_module(info.name))
    return modules


def test_no_module_exports_or_defines_an_oracle():
    offenders = [
        f"{module.__name__}.{name}"
        for module in _all_modules()
        for name in ORACLE_NAMES
        if hasattr(module, name) or name in getattr(module, "__all__", ())
    ]
    assert not offenders


def test_no_testing_module():
    assert importlib.util.find_spec("repro.testing") is None


def test_no_source_file_imports_hypothesis():
    pattern = re.compile(r"^\s*(import|from)\s+hypothesis\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert not offenders
