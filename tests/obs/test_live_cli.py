"""``python -m repro.obs`` bad input — a missing or unreadable archive,
an unknown scenario or fault plan for ``audit``, a non-positive count —
must exit 2 with a one-line message on stderr instead of a traceback
or a hang."""

import os
import time

import pytest

from repro.obs.__main__ import main
from tests.obs.archives import write_archive


def run_cli(argv, capsys):
    """``(exit code, stdout, stderr)`` of one in-process CLI call;
    argparse rejections arrive as ``SystemExit``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def archive(tmp_path):
    """A complete archive with one span and one ledger row."""
    span = {"span_id": 1, "parent_id": None, "trace_id": 7,
            "name": "rpc.client:get", "start": 0.0, "end": 0.5,
            "attrs": {}}
    row = {"kind": "vc", "key": "1", "note": "", "units_sent": 1,
           "units_delivered": 1, "cells_sent": 1, "cells_delivered": 1,
           "bytes_sent": 48, "bytes_delivered": 48, "drops": 0,
           "residency_seconds": 0.0, "share": 1.0}
    ledger = {"enabled": True, "kinds": {"vc": [row]}}
    return str(write_archive(tmp_path / "obs_bad.jsonl", spans=[span],
                             ledger=ledger))


BAD_INPUT = [
    (["dashboard", "{archive}", "--width", "-3"], "--width", "'-3'"),
    (["dashboard", "{missing}"], "cannot read archive", "obs_missing"),
    (["top", "{missing}"], "cannot read archive", "obs_missing"),
    (["audit", "{missing}"], "unknown scenario", "obs_missing"),
    (["audit", "quickstart", "--faults", "bogus"],
     "unknown fault plan", "'bogus'"),
    (["audit", "bogus"], "unknown scenario", "'bogus'"),
    (["critical", "{archive}", "--trace", "99999"], "trace", "99999"),
    (["critical", "{archive}", "--top", "0"], "--top", "'0'"),
    (["report", "{archive}", "--top", "-1"], "--top", "'-1'"),
    (["top", "{archive}", "--limit", "-1"], "--limit", "'-1'"),
    (["top", "{archive}", "--limit", "0"], "--limit", "'0'"),
]


class TestBadInput:
    @pytest.mark.parametrize("argv,what,value", BAD_INPUT,
                             ids=[" ".join(a) for a, _, _ in BAD_INPUT])
    def test_exits_2_with_a_message(self, argv, what, value, archive,
                                    capsys):
        missing = os.path.join(os.path.dirname(archive), "obs_missing.jsonl")
        argv = [{"{archive}": archive, "{missing}": missing}.get(a, a)
                for a in argv]
        start = time.monotonic()
        code, out, err = run_cli(argv, capsys)
        assert time.monotonic() - start < 5.0
        assert code == 2
        assert what in err and value in err
        assert "Traceback" not in out + err

    def test_audit_of_a_run_that_did_not_finish(self, archive, capsys):
        """Every finished run writes its audit into ``fin``, so only a
        fin-less archive lacks one, and the hint says why."""
        with open(archive) as fh:
            lines = fh.readlines()
        with open(archive, "w") as fh:
            fh.writelines(lines[:-1])
        code, out, err = run_cli(["audit", archive], capsys)
        assert code == 2
        assert out.startswith("!! incomplete archive")
        assert err == (f"audit: {archive} carries no audit block "
                       f"(no fin record: the run did not finish)\n")
