"""Count the library's lines: the non-blank lines of each module.

    python tests/loc.py TREE [TREE]

For one source tree it prints the non-blank line count of each module of
``TREE/src/slitbound`` and their total, the count ROADMAP.md gives.  Given
a second tree it prints both counts and the change from the first tree to
the second, with a module that one tree lacks counted as 0 lines there.
pytest does not collect this file.
"""

from __future__ import annotations

import pathlib
import sys


def count(tree: str) -> dict[str, int]:
    """Non-blank lines of each ``src/slitbound`` module of the tree, by module name."""
    package = pathlib.Path(tree) / "src" / "slitbound"
    return {path.stem: sum(1 for line in path.read_text().splitlines() if line.strip())
            for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    counts = [count(tree) for tree in argv]
    names = sorted(set().union(*counts), key=lambda name: (-counts[-1].get(name, 0), name))
    for name in names + ["total"]:
        lines = [sum(c.values()) if name == "total" else c.get(name, 0) for c in counts]
        delta = f"  {lines[1] - lines[0]:+d}" if len(lines) == 2 else ""
        print(f"{name:<14}" + "".join(f"{n:>6}" for n in lines) + delta)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
