"""The observability archive (repro.obs.sink): the record grammar,
streamed-vs-late-attached render parity, torn and tampered archives,
same-seed byte-identical sampled streams, bounded obs memory under a
sampling policy, and overhead self-metering."""

import json
import os

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.scenarios import build
from repro.obs import sink as sink_module
from repro.obs.__main__ import main
from repro.obs.accounting import render_top
from repro.obs.dashboard import render_dashboard
from repro.obs.export import dump_observability
from repro.obs.report import (
    render_metrics_summary, render_overhead, render_slo_table,
    render_traces,
)
from repro.obs.sampling import SamplingPolicy, scaled_policy
from repro.obs.sink import ObsSink, load_archive
from repro.obs.slo import SloMonitor
from tests.obs.archives import write_archive


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """One quickstart run streamed to its archive, which
    ``dump_observability`` then closes."""
    out = str(tmp_path_factory.mktemp("stream"))
    obs_path = os.path.join(out, "obs_par.jsonl")
    run = build("quickstart", tracing=True, accounting=True,
                stream=obs_path)
    run.run_to_horizon()
    written = dump_observability(run.mits, "par", out)
    return run.mits, out, obs_path, written


@pytest.fixture(scope="module")
def late(tmp_path_factory):
    """The same run without a stream, archived by a late-attached sink."""
    out = str(tmp_path_factory.mktemp("late"))
    run = build("quickstart", tracing=True, accounting=True)
    run.run_to_horizon()
    (path,) = dump_observability(run.mits, "par", out)
    return load_archive(path)


class TestSinkMechanics:
    def test_sink_closed_by_dump_and_listed_first(self, streamed):
        mits, _, obs_path, written = streamed
        assert mits.sink.closed
        assert written[0] == obs_path

    def test_stream_is_a_recognised_sidecar(self, streamed, tmp_path):
        _, _, obs_path, _ = streamed
        assert load_archive(obs_path).complete
        other = tmp_path / "metrics_par.json"
        other.write_text(json.dumps({"metrics": {}}))
        with pytest.raises(ValueError, match=":1: not an obs archive"):
            load_archive(str(other))

    def test_record_grammar(self, streamed):
        _, _, obs_path, _ = streamed
        with open(obs_path) as fh:
            lines = [json.loads(x) for x in fh]
        assert lines[0]["record"] == "meta"
        assert lines[0]["version"] == 1
        assert lines[-2]["record"] == "wall"
        assert lines[-1]["record"] == "fin"
        assert lines[-1]["records"] == len(lines) - 1
        assert len(lines[-1]["digest"]) == 64
        tags = {x["record"] for x in lines}
        assert tags == {"meta", "span", "event", "telemetry", "ledger",
                        "wall", "fin"}

    def test_counters_and_closed_sink_refuses_writes(self, streamed):
        mits, _, obs_path, _ = streamed
        rep = mits.sink.report()
        assert rep["records"] > 0
        assert rep["bytes_written"] == os.path.getsize(obs_path)
        assert rep["flushes"] >= 1
        with pytest.raises(ValueError):
            mits.sink.emit({"record": "late"})

    def test_bounded_buffer_flushes_mid_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sink_module, "BUFFER_RECORDS", 2)
        sink = ObsSink(str(tmp_path / "obs_b.jsonl"))
        sink.emit({"record": "meta", "version": 1})
        assert sink.flushes == 0
        sink.emit({"record": "event"})
        assert sink.flushes == 1  # buffer filled -> flushed
        sink.close()

    def test_no_wall_clock_leaks_into_the_stream(self, streamed):
        # the stream must stay seed-deterministic: wall-clock overhead
        # readings belong to the one wall record before fin
        _, _, obs_path, _ = streamed
        lines = open(obs_path).read().splitlines()
        text = "\n".join(lines[:-2] + lines[-1:])
        assert "obs_overhead_pct" not in text
        assert '"overhead"' not in text
        assert '"overhead"' in lines[-2]


class TestTornStream:
    """A run killed mid-write: the loader keeps what was written and
    says the archive is incomplete, instead of raising or passing a
    truncated stream off as whole."""

    @staticmethod
    def _lines(obs_path):
        with open(obs_path) as fh:
            return [x for x in fh.read().split("\n") if x.strip()]

    @staticmethod
    def _write(tmp_path, text):
        path = str(tmp_path / "obs_torn.jsonl")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def test_whole_stream_is_complete(self, streamed):
        _, _, obs_path, _ = streamed
        archive = load_archive(obs_path)
        assert archive.complete and archive.reason == ""
        assert archive.records == len(self._lines(obs_path))

    @pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_cut_inside_the_last_record(self, streamed, tmp_path, keep):
        _, _, obs_path, _ = streamed
        lines = self._lines(obs_path)
        last = lines[-1]
        cut = max(1, int(len(last) * keep))
        path = self._write(tmp_path,
                           "\n".join(lines[:-1]) + "\n" + last[:cut])
        archive = load_archive(path)
        whole = load_archive(obs_path)
        assert not archive.complete
        assert "torn final line" in archive.reason
        assert archive.records == len(lines) - 1
        # the fin summary was the torn record; everything before it
        # survives intact
        assert archive.summary == {}
        assert archive.spans == whole.spans
        assert archive.events == whole.events

    def test_missing_fin_is_incomplete(self, streamed, tmp_path):
        _, _, obs_path, _ = streamed
        lines = self._lines(obs_path)
        path = self._write(tmp_path, "\n".join(lines[:-1]) + "\n")
        archive = load_archive(path)
        assert not archive.complete
        assert archive.reason == "no fin record (run did not finish)"
        assert archive.records == len(lines) - 1

    def test_malformed_line_before_the_last_raises(self, streamed,
                                                   tmp_path):
        _, _, obs_path, _ = streamed
        lines = self._lines(obs_path)
        lines[1] = lines[1][:len(lines[1]) // 2]
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2: malformed record"):
            load_archive(path)

    def test_report_flags_the_incomplete_archive(self, streamed, tmp_path,
                                                 capsys):
        _, _, obs_path, _ = streamed
        lines = self._lines(obs_path)
        path = self._write(tmp_path, "\n".join(lines[:-1]) + "\n"
                           + lines[-1][:10])
        main(["report", path])
        out = capsys.readouterr().out
        assert (f"!! incomplete archive: {len(lines) - 1} records "
                f"recovered, torn final line skipped, no fin record") in out
        main(["report", obs_path])
        assert "incomplete archive" not in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["critical", "dashboard", "top",
                                      "audit", "diff"])
    def test_every_verb_flags_the_incomplete_archive(
            self, streamed, tmp_path, capsys, verb):
        _, _, obs_path, _ = streamed
        lines = self._lines(obs_path)
        path = self._write(tmp_path, "\n".join(lines[:-1]) + "\n")
        argv = [verb, path] + ([obs_path] if verb == "diff" else [])
        main(argv)
        out = capsys.readouterr().out
        assert out.startswith(
            f"!! incomplete archive: {len(lines) - 1} records recovered,"
            f" no fin record (run did not finish) ({path})\n")


class TestFinIntegrity:
    """``fin`` counts the records before it and digests them, so a
    tampered or spliced archive is never passed off as whole."""

    def test_changed_record_is_a_digest_mismatch(self, streamed,
                                                 tmp_path):
        _, _, obs_path, _ = streamed
        lines = open(obs_path).read().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["tampered"] = True
        lines[1] = json.dumps(record, sort_keys=True) + "\n"
        path = tmp_path / "obs_x.jsonl"
        path.write_text("".join(lines))
        archive = load_archive(str(path))
        assert not archive.complete
        assert archive.reason == "digest mismatch"

    def test_dropped_record_breaks_the_count(self, streamed, tmp_path):
        _, _, obs_path, _ = streamed
        lines = open(obs_path).read().splitlines(keepends=True)
        path = tmp_path / "obs_x.jsonl"
        path.write_text("".join(lines[:3] + lines[4:]))
        archive = load_archive(str(path))
        assert not archive.complete
        assert archive.reason.startswith(
            f"fin counts {len(lines) - 1} records, found {len(lines) - 2}")

    def test_records_after_fin(self, streamed, tmp_path):
        _, _, obs_path, _ = streamed
        lines = open(obs_path).read().splitlines(keepends=True)
        path = tmp_path / "obs_x.jsonl"
        path.write_text("".join(lines + lines[1:2]))
        archive = load_archive(str(path))
        assert archive.reason == "1 record(s) after fin"

    def test_plain_close_is_byte_identical_and_wall_free(self, tmp_path):
        paths = []
        for side in "ab":
            path = str(tmp_path / side / "obs_q.jsonl")
            run = build("quickstart", accounting=True, stream=path)
            run.run_to_horizon()
            run.mits.sink.close()
            paths.append(path)
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b
        assert b'"record": "wall"' not in a
        assert load_archive(paths[0]).complete


def _small_archive(tmp_path_factory):
    """A complete archive with one record of every kind."""
    path = tmp_path_factory.mktemp("fuzz") / "obs_f.jsonl"
    span = {"span_id": 1, "parent_id": None, "trace_id": 1,
            "name": "rpc.client:get", "start": 0.0, "end": 0.5,
            "attrs": {}}
    event = {"time": 0.2, "component": "link", "kind": "drop",
             "severity": "warning", "trace_id": 1, "attrs": {"n": 2}}
    series = {"component": "link", "name": "cells", "labels": {"link": "a"},
              "kind": "counter", "times": [0.0, 0.25, 0.5],
              "values": [0, 4, 9], "rates": [0.0, 16.0, 20.0]}
    ledger = {"enabled": True, "kinds": {"vc": [{"key": "1", "drops": 0}]}}
    write_archive(path, spans=[span], events=[event], series=[series],
                  ledger=ledger, wall={"overhead": {"obs_seconds": 0.1}},
                  telemetry={"interval": 0.25, "capacity": 8},
                  summary={"sim_time": 0.5, "events_run": 7,
                           "metrics": {}})
    return path.read_bytes()


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    return _small_archive(tmp_path_factory)


def _mutations(data):
    lines = data.split(b"\n")[:-1]
    n = len(lines)
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, len(data) - 1)),
        st.tuples(st.just("bitflip"), st.integers(0, len(data) * 8 - 1)),
        st.tuples(st.just("drop"), st.integers(0, n - 1)),
        st.tuples(st.just("reorder"), st.integers(0, n - 1),
                  st.integers(0, n - 1)),
    )


def _mutate(data, mutation):
    lines = data.split(b"\n")[:-1]
    kind = mutation[0]
    if kind == "truncate":
        return data[:mutation[1]]
    if kind == "bitflip":
        i, bit = divmod(mutation[1], 8)
        return data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]
    if kind == "drop":
        del lines[mutation[1]]
    else:
        i, j = mutation[1], mutation[2]
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(line + b"\n" for line in lines)


class TestLoaderProperties:
    def test_the_unmutated_archive_is_complete(self, small_archive,
                                               tmp_path):
        path = tmp_path / "obs_f.jsonl"
        path.write_bytes(small_archive)
        archive = load_archive(str(path))
        assert archive.complete
        assert archive.wall == {"overhead": {"obs_seconds": 0.1}}

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_archive_is_flagged_or_rejected(self, small_archive,
                                                    tmp_path, data):
        mutated = _mutate(small_archive,
                          data.draw(_mutations(small_archive)))
        assume(mutated != small_archive)
        path = tmp_path / "obs_m.jsonl"
        path.write_bytes(mutated)
        try:
            archive = load_archive(str(path))
        except ValueError as exc:
            assert f"{path}:" in str(exc)
            assert str(exc).split(f"{path}:")[1].split(":")[0].isdigit()
        else:
            assert not archive.complete
            assert archive.reason


class TestStreamedRenderParity:
    """A streamed archive renders like a late-attached one of the same
    seed."""

    def test_metrics_summary(self, streamed, late):
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        assert render_metrics_summary(loaded.metrics) \
            == render_metrics_summary(late.metrics)

    def test_slo_table(self, streamed, late):
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        monitor = SloMonitor()
        assert render_slo_table(monitor.evaluate(loaded.metrics)) \
            == render_slo_table(monitor.evaluate(late.metrics))

    def test_traces(self, streamed, late):
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        assert render_traces(loaded.spans, loaded.events, top=5) \
            == render_traces(late.spans, late.events, top=5)

    def test_dashboard(self, streamed, late):
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        assert render_dashboard(loaded.timeseries, width=40, top=5,
                                title="x") \
            == render_dashboard(late.timeseries, width=40, top=5,
                                title="x")

    def test_top(self, streamed, late):
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        for sort in ("bytes", "drops", "residency"):
            assert render_top(loaded.accounting, sort=sort, title="x") \
                == render_top(late.accounting, sort=sort, title="x")


class TestSampledStreamDeterminism:
    def _run(self, path):
        # same file *name* for both paths: the name is embedded in the
        # meta/fin records, the directory must not be
        run = build("quickstart", tracing=True, accounting=True,
                    sampling=scaled_policy(0.5, reservoir=64, top_k=8),
                    stream=path)
        run.run_to_horizon()
        run.mits.sink.close()
        return path

    def test_same_seed_same_policy_byte_identical(self, tmp_path):
        a = self._run(str(tmp_path / "a" / "obs_det.jsonl"))
        b = self._run(str(tmp_path / "b" / "obs_det.jsonl"))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_policy_recorded_in_meta(self, tmp_path):
        path = self._run(str(tmp_path / "obs_det.jsonl"))
        policy = load_archive(path).meta["policy"]
        assert policy["trace_sample_rate"] == 0.5
        assert policy["ledger_top_k"] == 8


class TestBoundedMemoryAtScale:
    @pytest.fixture(scope="class")
    def scaled(self):
        policy = SamplingPolicy(trace_sample_rate=0.1,
                                span_reservoir=512,
                                event_reservoir=512,
                                telemetry_coalesce=True,
                                ledger_top_k=32)
        run = build("classroom", tracing=True, accounting=True,
                    sampling=policy)
        run.run_to_horizon()
        return run.mits

    def test_span_store_is_reservoir_bounded(self, scaled):
        tracer = scaled.sim.tracer
        assert len(tracer.spans) <= 512
        assert tracer.sampled_out > 0  # 90% of traces head-sampled out

    def test_event_overflow_is_reservoir_bounded(self, scaled):
        rec = scaled.sim.recorder
        assert len(rec.events) <= rec._events.maxlen
        assert len(rec.overflow) <= 512

    def test_accounts_bounded_per_kind(self, scaled):
        ledger = scaled.sim.ledger
        assert ledger.kinds()  # accounting actually ran
        for kind in ledger.kinds():
            assert len(ledger.accounts(kind)) <= 32

    def test_telemetry_rings_bounded(self, scaled):
        sampler = scaled.sampler
        for series in sampler.series():
            assert len(series) <= sampler.capacity


class TestDefaultPathUnchanged:
    def test_no_policy_installs_no_sampling_machinery(self):
        run = build("quickstart", tracing=True, accounting=True)
        run.run_to_horizon()
        mits = run.mits
        assert mits.sim.tracer._reservoir is None
        assert mits.sim.tracer.sampled_out == 0
        assert "overflow" not in mits.sim.recorder.snapshot()
        snap = mits.sampler.snapshot()
        assert "stride" not in snap and "coalesced" not in snap
        ledger_snap = mits.sim.ledger.snapshot(sim_time=mits.sim.now)
        assert "top_k" not in ledger_snap

    def test_meter_never_leaks_into_the_snapshot(self):
        on = build("quickstart")
        on.run_to_horizon()
        off = build("quickstart", meter=False)
        off.run_to_horizon()
        assert json.dumps(on.mits.snapshot(), sort_keys=True) \
            == json.dumps(off.mits.snapshot(), sort_keys=True)


class TestOverheadMetering:
    def test_dump_carries_the_attribution_table(self, streamed):
        _, _, obs_path, _ = streamed
        overhead = load_archive(obs_path).overhead
        assert overhead["obs_overhead_pct"] >= 0.0
        assert overhead["obs_bytes"] > 0  # the sink wrote real bytes
        for component in ("tracer", "sampler", "sink"):
            assert overhead["components"][component]["calls"] > 0

    def test_render_overhead(self, streamed):
        mits, _, _, _ = streamed
        text = render_overhead(mits.meter.report())
        assert "observability overhead" in text
        assert "sink" in text

    def test_meter_off_costs_nothing_anywhere(self):
        run = build("quickstart", meter=False)
        run.run_to_horizon()
        assert run.mits.meter is None
        assert run.mits.sim.tracer.meter is None
