"""Non-blank, non-comment line counts of the package, per module and in total.

    python3 tools/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/gspurify. A line counts unless it is blank or
its first non-blank character is `#`, so docstrings count: the same figure
as `cat *.py | grep -v '^\\s*$' | grep -v '^\\s*#' | wc -l`.
"""

from __future__ import annotations

import sys
from pathlib import Path


def count_lines(path: Path) -> int:
    """Lines of path that are neither blank nor a comment alone."""
    lines = path.read_text().split("\n")
    return sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "gspurify"
    modules = sorted(package.glob("*.py"))
    if not modules:
        sys.stderr.write(f"loc: no Python modules in {package}\n")
        return 2
    total = 0
    for path in modules:
        lines = count_lines(path)
        total += lines
        print(f"{path.name:<16}{lines:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
