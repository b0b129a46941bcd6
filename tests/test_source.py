"""Layout rules that every module under src/ keeps."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_MAX_COLUMNS = 120


def test_no_source_line_is_over_120_columns():
    files = sorted(SRC.rglob("*.py"))
    assert files
    long = [
        f"{path.relative_to(SRC)}:{number}: {len(line)} columns"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > _MAX_COLUMNS
    ]
    assert not long, "\n".join(long)
