"""Layout rules that every module under src/ and tests/ keeps."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_MAX_COLUMNS = 120
# defined under src/ but referenced there by no name, with the reason each is kept
_UNREFERENCED = {
    "xi_bar": "the documented b-momentum of a phase point; the CSV writes x * xi from rows",
}


def test_no_source_line_is_over_120_columns():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert any(path.is_relative_to(ROOT / "src") for path in files)
    long = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > _MAX_COLUMNS
    ]
    assert not long, "\n".join(long)


def test_every_src_definition_is_referenced_in_src():
    """Every function, method and class under src/ is read by name (an AST
    Name or Attribute) somewhere in src/; dunders are exempt, and
    ``_UNREFERENCED`` names the few kept for readers."""
    defined, referenced = set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dunders = {name for name in defined if name.startswith("__") and name.endswith("__")}
    assert set(_UNREFERENCED) <= defined - referenced
    assert defined - referenced - dunders == set(_UNREFERENCED)


def test_only_bessel_imports_scipy_special():
    """The toy models' Bessel functions stay in one module: no other file
    under src/ imports ``scipy.special`` or a name from it."""
    importers = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names] + [str(node.module)]
            else:
                continue
            if any(name == "scipy.special" or name.startswith("scipy.special.") for name in names):
                importers.add(path.relative_to(ROOT / "src").as_posix())
    assert importers == {"adskg/bessel.py"}
