"""Every Markdown file the code and its docs cite must exist.

A docstring or comment that points readers at a missing document is a dead
end; this test only reads files.  A citation resolves against the repository
root or the citing file's own directory (``perfbench/`` cites its own
README).
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src", "benchmarks", "tests", "perfbench")
SCANNED_FILES = ("README.md", "pyproject.toml")
SUFFIXES = {".py", ".md", ".toml", ".txt", ".json", ".yml", ".yaml", ".cfg"}

#: A path-like token ending in ``.md`` (``README.md``, ``perfbench/README.md``).
CITATION = re.compile(r"(?<![\w./-])(\w[\w./-]*\.md)\b")


def _scanned() -> list[Path]:
    files = [ROOT / name for name in SCANNED_FILES]
    for directory in SCANNED_DIRS:
        files += [p for p in sorted((ROOT / directory).rglob("*"))
                  if p.suffix in SUFFIXES and p.is_file()
                  and not any(d.startswith((".", "__")) for d in p.relative_to(ROOT).parts[:-1])]
    return files


def test_cited_markdown_files_exist():
    missing = []
    for path in _scanned():
        text = path.read_text(encoding="utf-8", errors="replace")
        for lineno, line in enumerate(text.splitlines(), 1):
            for cited in CITATION.findall(line):
                if not ((ROOT / cited).is_file() or (path.parent / cited).is_file()):
                    missing.append(f"{path.relative_to(ROOT)}:{lineno}: {cited}")
    assert not missing, "cited Markdown files that do not exist:\n" + "\n".join(missing)


def test_the_scan_finds_citations():
    """Guard against a regex that silently matches nothing."""
    cited = {c for p in _scanned() for c in CITATION.findall(p.read_text(encoding="utf-8"))}
    assert {"PAPER.md", "README.md"} <= cited
