"""Source-level rules for the package: its invariant checks survive
``python -O`` (they raise exceptions instead of using ``assert``, which -O
strips), it does not import mpmath, which only the tests use as an
oracle, it names the coefficient types in one place, and it builds CycRat
values only as scalars."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qzeta"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_or_debug_flag(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert not found, f"{path.name}: assert or __debug__ on lines {found}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_mpmath_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [node.lineno for name in names if name.split(".")[0] == "mpmath"]
    assert not found, f"{path.name}: mpmath imported on lines {found}"


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "fields.py"}),
                         ids=lambda p: p.name)
def test_scalar_types_are_named_once(path):
    # fields.SCALARS is the one spelling of the coefficient types
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and {"int", "Fraction", "CycRat"} <= {getattr(e, "id", None) for e in node.elts}
    ]
    assert not found, f"{path.name}: (int, Fraction, CycRat) spelled out on lines {found}"


CYCRAT_BUILDERS = {"CycRat", "CycRat.zero", "CycRat.one", "CycRat.zeta_power"}


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                        - {PACKAGE / "fields.py", PACKAGE / "characters.py"}),
                         ids=lambda p: p.name)
def test_cycrat_values_are_built_only_as_scalars(path):
    # a polynomial over Q(zeta_m) is integer lanes (poly.Poly.lanes); a CycRat
    # is built in fields, as a character value, and in poly's coefficient view
    tree = ast.parse(path.read_text(), filename=str(path))
    view = [node for node in ast.walk(tree) if path.name == "poly.py"
            and isinstance(node, ast.FunctionDef) and node.name == "coeff"]
    allowed = {id(node) for fn in view for node in ast.walk(fn)}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in CYCRAT_BUILDERS
        and id(node) not in allowed
    ]
    assert not found, f"{path.name}: CycRat built on lines {found}"
