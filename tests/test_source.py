"""Layout rules that every module under src/ and tests/ keeps."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_MAX_COLUMNS = 120


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
