"""Source structure: one way between accepted steps.

Every value between a solver's accepted points comes from the step's own
interpolant, evaluated in ``integrate.py``: no module interpolates
linearly, and only ``integrate.py`` reads a kernel's step record or sets
numpy's error state for its trial steps.  Checked on the syntax trees of
``src/qsslab/*.py``, so comments and docstrings may name these functions.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qsslab").glob("*.py"))
STEP_NAMES = {"_dopri_steps", "_radau_steps", "dense_output", "collocation_output", "errstate"}


def _names(path: Path) -> set[str]:
    """Every name, attribute and imported name that ``path`` references."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"analysis.py", "claims.py", "integrate.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_linear_interpolation(path):
    assert "interp" not in _names(path)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_integrate_reads_a_step(path):
    used = _names(path) & STEP_NAMES
    if path.name == "integrate.py":
        assert used == STEP_NAMES
    else:
        assert not used, f"{path.name} references {sorted(used)}"
