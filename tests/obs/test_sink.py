"""The observability archive (repro.obs.sink): the record grammar,
streamed-vs-live render parity, torn and tampered archives, same-seed
byte-identical streams, archives from older writers, every telemetry
tick kept, and overhead self-metering."""

import hashlib
import json
import os
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.scenarios import build
from repro.obs import sink as sink_module
from repro.obs.__main__ import main
from repro.obs.accounting import render_top
from repro.obs.dashboard import render_dashboard
from repro.obs.export import dump_observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    render_metrics_summary, render_overhead, render_slo_table,
    render_traces,
)
from repro.obs.sink import ObsSink, load_archive
from repro.obs.slo import SloMonitor
from repro.obs.timeseries import TelemetrySampler
from tests.obs.archives import Decoded, write_archive


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
def live(streamed):
    """The streamed run's live collectors, normalised the way the
    archive writes them."""
    mits = streamed[0]
    sim = mits.sim

    def canon(rows):
        return json.loads(json.dumps(rows, sort_keys=True))

    return SimpleNamespace(
        metrics=canon(sim.metrics.report()),
        spans=canon([s.to_dict() for s in sim.tracer.spans]),
        events=canon([e.to_dict() for e in sim.recorder.events]),
        accounting=canon(sim.ledger.snapshot(sim_time=sim.now)))


class TestSinkMechanics:
    def test_sink_closed_by_dump_and_listed_first(self, streamed):
        mits, _, obs_path, written = streamed
        assert mits.sink.closed
        assert written[0] == obs_path

    @pytest.mark.parametrize("topology", ["star", "ocrinet"])
    def test_meta_names_the_topology(self, topology, tmp_path):
        """The sink attaches before the network is built (so the first
        tick streams); ``meta`` still names the topology."""
        from repro.core.system import MitsSystem
        path = str(tmp_path / "obs_topo.jsonl")
        mits = MitsSystem(topology=topology, stream=path)
        mits.sink.close()
        with open(path) as fh:
            meta = json.loads(fh.readline())
        assert meta["record"] == "meta"
        assert meta["topology"] == topology == mits.spec.name

    def test_stream_is_a_recognised_sidecar(self, streamed, tmp_path):
        _, _, obs_path, _ = streamed
        assert load_archive(obs_path).complete
        other = tmp_path / "metrics_par.json"
        other.write_text(json.dumps({"metrics": {}}))
        with pytest.raises(ValueError, match=":1: not an obs archive"):
            load_archive(str(other))

    def test_record_grammar(self, tmp_path):
        # faulty-classroom, because its faults really drop cells: a
        # clean run records no flight events, so no ``event`` record
        obs_path = str(tmp_path / "obs_grammar.jsonl")
        run = build("faulty-classroom", tracing=True, accounting=True,
                    stream=obs_path)
        run.run_to_horizon()
        dump_observability(run.mits, "grammar", str(tmp_path))
        with open(obs_path) as fh:
            lines = [json.loads(x) for x in fh]
        assert lines[0]["record"] == "meta"
        assert lines[0]["version"] == 2
        assert lines[-2]["record"] == "wall"
        assert lines[-1]["record"] == "fin"
        assert lines[-1]["records"] == len(lines) - 1
        assert len(lines[-1]["digest"]) == 64
        tags = {x["record"] for x in lines}
        assert tags == {"meta", "series", "span", "event", "telemetry",
                        "ledger", "wall", "fin"}
        # each series is named once, in index order, before a row
        # names its index; a row is [index, value] or, for a histogram,
        # [index, value, p99]
        kinds, seen = {}, 0
        for x in lines:
            if x["record"] == "series":
                assert x["index"] == len(kinds)
                assert set(x) == {"record", "index", "component", "name",
                                  "labels", "kind"}
                kinds[x["index"]] = x["kind"]
            elif x["record"] == "telemetry":
                for row in x["rows"]:
                    assert row[0] in kinds
                    assert len(row) == (3 if kinds[row[0]] == "histogram"
                                        else 2)
                    seen += 1
        # only readings that moved are written
        ticks = sum(x["record"] == "telemetry" for x in lines)
        assert len(kinds) < seen < ticks * len(kinds) / 2

    def test_counters_and_closed_sink_refuses_writes(self, streamed):
        mits, _, obs_path, _ = streamed
        rep = mits.sink.report()
        assert rep["records"] > 0
        assert rep["bytes_written"] == os.path.getsize(obs_path)
        assert rep["flushes"] >= 1
        with pytest.raises(ValueError):
            mits.sink.emit({"record": "late"})

    def test_dump_without_a_stream_is_refused(self, tmp_path):
        """A run built without ``stream=`` kept no telemetry ticks, so
        there is no archive to close."""
        run = build("quickstart")
        run.run_to_horizon()
        with pytest.raises(ValueError, match="stream="):
            dump_observability(run.mits, "nostream", str(tmp_path))
        assert not os.listdir(tmp_path)

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
                  telemetry={"interval": 0.25},
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
    """A streamed archive renders like the live run it recorded."""

    def test_metrics_summary(self, streamed, live):
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        assert render_metrics_summary(loaded.metrics) \
            == render_metrics_summary(live.metrics)

    def test_slo_table(self, streamed, live):
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        monitor = SloMonitor()
        assert render_slo_table(monitor.evaluate(loaded.metrics)) \
            == render_slo_table(monitor.evaluate(live.metrics))

    def test_traces(self, streamed, live):
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        assert render_traces(loaded.spans, loaded.events, top=5) \
            == render_traces(live.spans, live.events, top=5)

    def test_dashboard(self, streamed, live):
        """The plotted series end on the live registry's readings."""
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        queue = [s for s in loaded.timeseries
                 if (s.component, s.name) == ("simulator", "queue_depth")]
        assert [s.values[-1] for s in queue] == [
            row["value"]
            for row in live.metrics["simulator"]["queue_depth"]]
        out = render_dashboard(loaded.timeseries, samples=loaded.samples,
                               interval=loaded.interval, width=40,
                               title="x")
        assert "simulator queue depth" in out

    def test_top(self, streamed, live):
        _, _, obs_path, _ = streamed
        loaded = load_archive(obs_path)
        for sort in ("bytes", "drops", "residency"):
            assert render_top(loaded.accounting, sort=sort, title="x") \
                == render_top(live.accounting, sort=sort, title="x")


class TestEveryTickKept:
    def test_600_ticks_load_600_samples_per_series(self, tmp_path):
        """The loader keeps every tick: no ring caps a long run."""
        times = [i * 0.25 for i in range(600)]
        series = [{"component": "link", "name": "depth",
                   "labels": {"link": "a"}, "kind": "gauge",
                   "times": times, "values": list(range(600))},
                  {"component": "link", "name": "cells", "labels": {},
                   "kind": "counter", "times": times,
                   "values": [4 * i for i in range(600)],
                   "rates": [0.0] + [16.0] * 599}]
        path = write_archive(tmp_path / "obs_long.jsonl", series=series,
                             telemetry={"interval": 0.25})
        archive = load_archive(str(path))
        assert archive.samples == 600
        assert [len(s) for s in archive.timeseries] == [600, 600]
        depth = archive.timeseries[1]
        assert depth.name == "depth" and depth.values[0] == 0
        assert depth.times[-1] == times[-1]


class TestLegacyArchive:
    def test_policy_key_in_meta_is_ignored(self, tmp_path):
        """Archives written while a sampling policy existed carry a
        ``policy`` meta key; it loads as complete and changes nothing
        (even a coalescing policy leaves every repeated point)."""
        series = {"component": "link", "name": "depth", "labels": {},
                  "kind": "gauge", "times": [0.0, 0.25, 0.5],
                  "values": [3, 3, 3]}
        policy = {"trace_sample_rate": 0.5, "span_reservoir": 64,
                  "event_reservoir": 64, "telemetry_stride": 1,
                  "telemetry_coalesce": True, "ledger_top_k": 8,
                  "seed": 0}
        old = write_archive(tmp_path / "obs_old.jsonl", series=[series],
                            telemetry={"interval": 0.25},
                            meta={"policy": policy}, version=1)
        archive = load_archive(str(old))
        assert archive.complete
        assert archive.meta["policy"] == policy
        (loaded,) = archive.timeseries
        assert loaded.times == [0.0, 0.25, 0.5]
        assert loaded.values == [3, 3, 3]

    def test_ring_keys_of_older_writers_are_ignored(self, tmp_path):
        """Older archives name the sampler's ring capacity in ``meta``
        and its evictions in ``fin``; they load like any other."""
        series = {"component": "link", "name": "depth", "labels": {},
                  "kind": "gauge", "times": [0.0, 0.25], "values": [1, 2]}
        path = write_archive(
            tmp_path / "obs_old.jsonl", series=[series],
            telemetry={"interval": 0.25, "capacity": 512},
            summary={"timeseries": {"interval": 0.25, "capacity": 512,
                                    "samples": 2, "evictions": 0},
                     "telemetry": {"sampler_samples": 2,
                                   "sampler_evictions": 0}},
            version=1)
        archive = load_archive(str(path))
        assert archive.complete
        assert (archive.samples, archive.interval) == (2, 0.25)
        assert archive.timeseries[0].values == [1, 2]
        assert main(["dashboard", str(path)]) == 0
        assert main(["report", str(path)]) == 0


def _timeseries_digest(archive):
    """sha256 over every loaded series, types and signs included."""
    return hashlib.sha256(json.dumps(
        [[s.component, s.name, s.labels, s.kind, s.times, s.values,
          s.rates, s.p99s] for s in archive.timeseries],
        sort_keys=True).encode()).hexdigest()


#: a version-1 archive: ``repro.obs audit quickstart`` as the writer
#: wrote it before ``series`` records, one row per series per tick
V1_QUICKSTART = os.path.join(os.path.dirname(__file__), "fixtures",
                             "obs_v1_quickstart.jsonl")


class TestSchemaVersions:
    def test_the_v1_fixture_loads_as_the_v1_loader_read_it(self):
        """The digest was taken by the version-1 loader, which stored
        each row's rate as written."""
        archive = load_archive(V1_QUICKSTART)
        assert archive.complete and archive.meta["version"] == 1
        assert (archive.samples, len(archive.timeseries)) == (13, 152)
        assert _timeseries_digest(archive) == (
            "400240769f7ad25800e48a005461e3c9502a3cf05fcd974fb6d2e6fd9a784854")

    def test_v2_loads_the_series_v1_wrote(self, tmp_path):
        """The same run, written as version 2, loads to the same series
        (rates derived on load) from an archive a third the size."""
        path = str(tmp_path / "obs_audit_quickstart.jsonl")
        run = build("quickstart", accounting=True, stream=path)
        run.run_to_horizon()
        dump_observability(run.mits, "audit_quickstart", str(tmp_path))
        archive = load_archive(path)
        assert archive.complete and archive.meta["version"] == 2
        # the v1 fixture predates the player series the watchdog reads
        added = {("player", name) for name in
                 ("frames_received", "finished", "stall_seconds")}
        archive.timeseries = [s for s in archive.timeseries
                              if (s.component, s.name) not in added]
        assert _timeseries_digest(archive) \
            == _timeseries_digest(load_archive(V1_QUICKSTART))
        assert os.path.getsize(path) < os.path.getsize(V1_QUICKSTART) / 3

    def test_a_gauge_from_0_to_0_0_still_writes_a_row(self):
        """Unchanged means the same value of the same type (and sign),
        so only readings that moved are written, and the loaded reading
        renders as the written one."""
        registry = MetricsRegistry()
        sim = SimpleNamespace(now=0.0, metrics=registry)
        sampler = TelemetrySampler(sim)
        streamed = Decoded(sampler)
        written = []

        def sink(now, columns, rows):
            written.append(rows)
            streamed(now, columns, rows)
        sampler.sink = sink
        gauge = registry.gauge("work", "level")
        registry.gauge("work", "flat").set(1)
        for level in (0, 0.0, 0.0, -0.0, -0.0, 0):
            gauge.set(level)
            sampler.sample()
            sim.now += 1.0
        assert repr(written) == repr([[[0, 0], [1, 1]], [[0, 0.0]], [],
                                      [[0, -0.0]], [], [[0, 0]]])
        level = streamed.get("work", "level")
        assert repr(level.values) == "[0, 0.0, 0.0, -0.0, -0.0, 0]"
        assert streamed.get("work", "flat").values == [1] * 6

    def test_written_zeros_keep_their_sign(self, tmp_path):
        series = {"component": "work", "name": "level", "labels": {},
                  "kind": "gauge", "times": [0.0, 1.0, 2.0, 3.0],
                  "values": [0.0, -0.0, -0.0, 0]}
        path = write_archive(tmp_path / "obs_zeros.jsonl", series=[series],
                             telemetry={"interval": 1.0})
        (loaded,) = load_archive(str(path)).timeseries
        assert repr(loaded.values) == "[0.0, -0.0, -0.0, 0]"

    def test_a_counter_moving_backwards_loads_with_rate_0(self, tmp_path):
        series = {"component": "link", "name": "cells", "labels": {},
                  "kind": "counter", "times": [0.0, 1.0, 2.0, 3.0],
                  "values": [10, 4, 4, 7]}
        path = write_archive(tmp_path / "obs_fall.jsonl", series=[series],
                             telemetry={"interval": 1.0})
        (loaded,) = load_archive(str(path)).timeseries
        assert loaded.values == [10, 4, 4, 7]
        assert loaded.rates == [0.0, 0.0, 0.0, 3.0]


class TestDefaultPathUnchanged:
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
