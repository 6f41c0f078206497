"""Every definition under ``src/`` is reached from ``src/`` or ``bench/``.

A function, class or method that only tests name is code no run
executes: it belongs under ``tests/`` (as an oracle or a fixture) or
nowhere.  The scan walks ``src/`` with :mod:`ast` and looks for each
definition's name, as a whole word, anywhere under ``src/`` or
``bench/`` outside the definition's own lines.  Dunder names are
skipped.  Whatever it flags must be on :data:`ALLOWED` with the reason it
stays, and an entry the scan no longer flags fails as well, so the list
cannot rot.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Set, Tuple

ROOT = Path(__file__).resolve().parents[1]

_WORD = re.compile(r"\w+")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: ``(path under src/, name)`` -> why it stays although no run names it.
ALLOWED = {
    ("repro/graph/history.py", "is_serializable"): (
        "the serialization-theorem oracle three test modules check the "
        "engines against"
    ),
    ("repro/server/locking.py", "assert_consistent"): (
        "an invariant check over LockManager's private lock table"
    ),
    ("repro/server/locking.py", "holders_of"): (
        "public read-only view of the lock table, so tests need not read _items"
    ),
    ("repro/server/locking.py", "waiters_of"): (
        "public read-only view of the wait queue, so tests need not read _items"
    ),
    ("repro/server/transactions.py", "last_writer_of"): (
        "public read-only view of the engine's writer tracking, which tests "
        "check against the database's writer tags"
    ),
    ("repro/server/database.py", "versions_held"): (
        "public read-only property; the memory nets bound it"
    ),
    ("repro/broadcast/program.py", "slots_of"): (
        "public lookup of BroadcastProgram; the reference cache and the "
        "program-equality oracle read it"
    ),
    ("repro/broadcast/program.py", "old_versions_of"): (
        "public lookup of BroadcastProgram; the program-equality oracle "
        "compares it"
    ),
    ("repro/stats/online.py", "minimum"): (
        "public read-only property, the pair of maximum"
    ),
    ("repro/stats/online.py", "confidence_interval"): (
        "the per-point 95 % interval that ROADMAP item 9(a) reports"
    ),
    ("repro/runtime.py", "abort_count"): (
        "public accessor of a run's result; examples/mobile_newsreader.py "
        "calls it"
    ),
}


def unreached(root: Path) -> Set[Tuple[str, str]]:
    """``(path under src/, name)`` of every definition under ``root/src``
    whose name appears nowhere under ``root/src`` or ``root/bench``
    outside its own lines."""
    sources = sorted((root / "src").rglob("*.py"))
    texts = {
        path: path.read_text(encoding="utf-8")
        for path in sources + sorted((root / "bench").rglob("*.py"))
    }
    words: Counter = Counter()
    for text in texts.values():
        words.update(_WORD.findall(text))
    flagged = set()
    for path in sources:
        lines = texts[path].splitlines()
        for node in ast.walk(ast.parse(texts[path])):
            if not isinstance(node, _DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(
                _WORD.findall(line).count(name)
                for line in lines[node.lineno - 1 : node.end_lineno]
            )
            if words[name] == own:
                flagged.add((path.relative_to(root / "src").as_posix(), name))
    return flagged


def test_every_definition_under_src_is_reached():
    stray = sorted(unreached(ROOT) - ALLOWED.keys())
    assert not stray, (
        "nothing under src/ or bench/ names these; delete them, move them "
        f"under tests/, or add them to ALLOWED with a reason: {stray}"
    )


def test_allowlist_names_only_unreached_definitions():
    stale = sorted(ALLOWED.keys() - unreached(ROOT))
    assert not stale, f"no longer unreached, drop from ALLOWED: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())
