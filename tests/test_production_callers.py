"""Every public function in ``src/repro`` has a caller outside ``tests/``.

A name scan: for each public ``def`` under ``src/repro``, count the
word-boundary occurrences of its name across the production trees
(``src``, ``perfbench``, ``examples``, ``scripts``, ``benchmarks``).
A count of one is the ``def`` itself, so only tests reach the function
and it should be deleted with its tests (or called from a real flow).

A common word (``groups``, ``join``) also matches unrelated code, so
the scan can miss a test-only name; it never flags a used one.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PRODUCTION_DIRS = ("src", "perfbench", "examples", "scripts", "benchmarks")

#: test-only names kept on purpose: name -> why it stays
ALLOWED = {}

_DEF = re.compile(r"^\s*def ([A-Za-z]\w*)\(", re.MULTILINE)


def _production_text() -> str:
    return "\n".join(
        path.read_text(encoding="utf-8")
        for top in PRODUCTION_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
        if "out" not in path.relative_to(ROOT).parts)


def test_every_public_function_has_a_production_caller():
    text = _production_text()
    orphans = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for name in _DEF.findall(path.read_text(encoding="utf-8")):
            if name in ALLOWED:
                continue
            if len(re.findall(rf"\b{name}\b", text)) == 1:
                orphans.append(f"{path.relative_to(ROOT)}::{name}")
    assert not orphans, (
        "only tests call these; delete them with their tests or call "
        "them from a production path:\n  " + "\n  ".join(orphans))
