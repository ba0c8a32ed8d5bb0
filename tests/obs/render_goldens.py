"""Render goldens: what every ``repro.obs`` verb prints for fixed archives.

Each golden is the sha256 of one verb's stdout, with its exit code and
line count, over one archive:

* ``quickstart``, ``classroom``, ``faulty-classroom`` — the streamed
  ``obs_<scenario>.jsonl`` of ``build(scenario, accounting=True,
  stream=path)`` run to its horizon and closed.

Verbs: ``report``, ``critical``, ``dashboard``, ``top``, ``audit
<archive>``, and ``diff`` against a second, independent same-seed
archive.  Before hashing, archive paths are replaced by ``<a>``/``<b>``
and the one wall-clock block, the obs-overhead table, is masked.
Everything left is simulated, so it is the same on every machine.

Re-record with ``PYTHONPATH=src python -m tests.obs.render_goldens``
from the repository root.  Only do that for a change that is *meant*
to alter what a verb prints, and say which goldens moved and why in
the change log; a refactor of the archive path must reproduce them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from typing import Dict, List, Tuple

from repro.core.scenarios import build
from repro.obs.__main__ import main as obs_main

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "render_goldens.json")

SUBJECTS = ("quickstart", "classroom", "faulty-classroom")
VERBS = ("report", "critical", "dashboard", "top", "audit", "diff")

#: wall-clock blocks, masked before hashing
_MASKS: Tuple[Tuple[re.Pattern, str], ...] = (
    (re.compile(r"^observability overhead:.*\n(?:    .*\n)*",
                re.MULTILINE), "<overhead>\n"),
)


def make_archive(subject: str, out_dir: str) -> str:
    """Write *subject*'s archive under *out_dir*; returns its path."""
    path = os.path.join(out_dir, f"obs_{subject}.jsonl")
    run = build(subject, accounting=True, stream=path)
    run.run_to_horizon()
    run.mits.sink.close()
    return path


def render(verb: str, path_a: str, path_b: str) -> Tuple[str, int]:
    """Run one verb in-process; returns ``(normalised stdout, exit)``."""
    argv: List[str] = [verb, path_a]
    if verb == "diff":
        argv.append(path_b)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = obs_main(argv)
    text = out.getvalue()
    for path, tag in ((path_a, "<a>"), (path_b, "<b>")):
        text = text.replace(path, tag)
        text = text.replace(os.path.dirname(path), tag)
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return text, code


def golden(text: str, code: int) -> Dict[str, object]:
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "exit": code, "lines": text.count("\n")}


def record() -> Dict[str, Dict[str, object]]:
    goldens: Dict[str, Dict[str, object]] = {}
    for subject in SUBJECTS:
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [os.path.join(tmp, side) for side in "ab"]
            path_a, path_b = (make_archive(subject, d) for d in dirs)
            for verb in VERBS:
                goldens[f"{subject}/{verb}"] = golden(
                    *render(verb, path_a, path_b))
    return goldens


def load() -> Dict[str, Dict[str, object]]:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    goldens = record()
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS_PATH}")
