"""Tests for the synchronisation specs (Fig 2.6)."""

import pytest

from repro.mheg import sync
from repro.mheg.classes.behavior import ActionVerb
from repro.mheg.identifiers import ref
from repro.util.errors import AuthoringError

A, B, C = ref("app", 1), ref("app", 2), ref("app", 3)


class TestBuilders:
    def test_atomic_serial(self):
        # Fig 2.6a: composites carry atomic specs as plain dicts
        sync.validate_spec({"kind": "atomic", "mode": "serial",
                            "first": str(A), "second": str(B)})

    def test_atomic_parallel(self):
        sync.validate_spec({"kind": "atomic", "mode": "parallel",
                            "first": str(A), "second": str(B)})

    def test_elementary_offsets(self):
        sync.validate_spec({"kind": "elementary", "entries": [
            {"target": str(A), "time": 0.0},
            {"target": str(B), "time": 2.5}]})

    def test_elementary_rejects_negative(self):
        with pytest.raises(AuthoringError):
            sync.validate_spec({"kind": "elementary", "entries": [
                {"target": str(A), "time": -1.0},
                {"target": str(B), "time": 0.0}]})

    def test_timeline_many_entries(self):
        sync.validate_spec({"kind": "elementary", "entries": [
            {"target": str(r), "time": t}
            for r, t in ((A, 0.0), (B, 1.0), (C, 2.0))]})

    def test_cyclic(self):
        spec = {"kind": "cyclic", "target": str(A), "period": 1.5,
                "repetitions": 4}
        sync.validate_spec(spec)
        sync.validate_spec(dict(spec, repetitions=None))
        with pytest.raises(AuthoringError):
            sync.validate_spec(dict(spec, period=0))
        with pytest.raises(AuthoringError):
            sync.validate_spec(dict(spec, repetitions=0))

    def test_chained(self):
        sync.validate_spec({"kind": "chained",
                            "targets": [str(A), str(B), str(C)]})
        with pytest.raises(AuthoringError):
            sync.validate_spec({"kind": "chained", "targets": []})


class TestValidateSpec:
    def test_unknown_kind(self):
        with pytest.raises(AuthoringError):
            sync.validate_spec({"kind": "quantum"})

    def test_atomic_bad_mode(self):
        with pytest.raises(AuthoringError):
            sync.validate_spec({"kind": "atomic", "mode": "diagonal",
                                "first": "a/1", "second": "a/2"})

    def test_elementary_empty(self):
        with pytest.raises(AuthoringError):
            sync.validate_spec({"kind": "elementary", "entries": []})


class TestLinkBuilders:
    def test_when_stops_run(self):
        link = sync.when_stops_run("app", 10, A, B)
        link.validate()
        cond = link.trigger_conditions[0]
        assert cond.source == A
        assert cond.value == "not-running"
        assert link.effect.actions[0].verb is ActionVerb.RUN
        assert link.effect.actions[0].target == B
