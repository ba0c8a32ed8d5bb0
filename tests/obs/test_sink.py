"""Streaming obs sidecars (repro.obs.sink): streamed-vs-monolithic
render parity, same-seed byte-identical sampled streams, bounded
obs memory under a sampling policy, and overhead self-metering."""

import json
import os

import pytest

from repro.core.scenarios import build
from repro.obs.accounting import load_accounting_file, render_top
from repro.obs.dashboard import load_timeseries_file, render_dashboard
from repro.obs.export import dump_observability
from repro.obs.report import (
    load_metrics_file, load_trace_file, render_metrics_summary,
    render_overhead, render_slo_table, render_traces,
)
from repro.obs.sampling import SamplingPolicy, scaled_policy
from repro.obs.sink import ObsSink, is_obs_sidecar, load_obs_sidecar
from repro.obs.slo import SloMonitor


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """One quickstart run streamed to a sidecar AND dumped monolithic."""
    out = str(tmp_path_factory.mktemp("stream"))
    obs_path = os.path.join(out, "obs_par.jsonl")
    run = build("quickstart", tracing=True, accounting=True,
                stream=obs_path)
    run.run_to_horizon()
    written = dump_observability(run.mits, "par", out)
    return run.mits, out, obs_path, written


class TestSinkMechanics:
    def test_sink_closed_by_dump_and_listed_first(self, streamed):
        mits, _, obs_path, written = streamed
        assert mits.sink.closed
        assert written[0] == obs_path

    def test_stream_is_a_recognised_sidecar(self, streamed):
        _, out, obs_path, _ = streamed
        assert is_obs_sidecar(obs_path)
        assert not is_obs_sidecar(os.path.join(out, "trace_par.jsonl"))
        assert not is_obs_sidecar(os.path.join(out, "metrics_par.json"))

    def test_record_grammar(self, streamed):
        _, _, obs_path, _ = streamed
        with open(obs_path) as fh:
            lines = [json.loads(x) for x in fh if x.strip()]
        assert lines[0]["record"] == "meta"
        assert lines[0]["version"] == 1
        assert lines[-1]["record"] == "fin"
        tags = {x["record"] for x in lines}
        assert tags >= {"meta", "span", "event", "telemetry", "ledger",
                        "fin"}

    def test_counters_and_closed_sink_refuses_writes(self, streamed):
        mits, _, obs_path, _ = streamed
        rep = mits.sink.report()
        assert rep["records"] > 0
        assert rep["bytes_written"] == os.path.getsize(obs_path)
        assert rep["flushes"] >= 1
        with pytest.raises(ValueError):
            mits.sink.emit({"record": "late"})

    def test_bounded_buffer_flushes_mid_run(self, tmp_path):
        sink = ObsSink(str(tmp_path / "obs_b.jsonl"), buffer_records=2)
        sink.emit({"record": "meta", "version": 1})
        assert sink.flushes == 0
        sink.emit({"record": "event"})
        assert sink.flushes == 1  # buffer filled -> flushed
        sink.close()

    def test_no_wall_clock_leaks_into_the_stream(self, streamed):
        # the stream must stay seed-deterministic: wall-clock overhead
        # readings belong to metrics_*.json only
        _, _, obs_path, _ = streamed
        text = open(obs_path).read()
        assert "obs_overhead_pct" not in text
        assert '"overhead"' not in text


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
        payload = load_obs_sidecar(obs_path)
        assert payload["complete"] and not payload["torn"]
        assert payload["records"] == len(self._lines(obs_path))

    @pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_cut_inside_the_last_record(self, streamed, tmp_path, keep):
        _, _, obs_path, _ = streamed
        lines = self._lines(obs_path)
        last = lines[-1]
        cut = max(1, int(len(last) * keep))
        path = self._write(tmp_path,
                           "\n".join(lines[:-1]) + "\n" + last[:cut])
        payload = load_obs_sidecar(path)
        whole = load_obs_sidecar(obs_path)
        assert payload["torn"] and not payload["complete"]
        assert payload["records"] == len(lines) - 1
        # the fin summary was the torn record; everything before it
        # survives intact
        assert payload["meta"] == {}
        assert payload["spans"] == whole["spans"]
        assert payload["events"] == whole["events"]

    def test_missing_fin_is_incomplete(self, streamed, tmp_path):
        _, _, obs_path, _ = streamed
        lines = self._lines(obs_path)
        path = self._write(tmp_path, "\n".join(lines[:-1]) + "\n")
        payload = load_obs_sidecar(path)
        assert not payload["complete"] and not payload["torn"]
        assert payload["records"] == len(lines) - 1

    def test_malformed_line_before_the_last_raises(self, streamed,
                                                   tmp_path):
        _, _, obs_path, _ = streamed
        lines = self._lines(obs_path)
        lines[1] = lines[1][:len(lines[1]) // 2]
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2: malformed record"):
            load_obs_sidecar(path)

    def test_report_flags_the_incomplete_archive(self, streamed, tmp_path,
                                                 capsys):
        from repro.obs.__main__ import main

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


class TestStreamedRenderParity:
    def test_metrics_summary(self, streamed):
        _, out, obs_path, _ = streamed
        loaded = load_obs_sidecar(obs_path)
        _, mono = load_metrics_file(os.path.join(out, "metrics_par.json"))
        assert render_metrics_summary(loaded["meta"]["metrics"]) \
            == render_metrics_summary(mono)

    def test_slo_table(self, streamed):
        _, out, obs_path, _ = streamed
        loaded = load_obs_sidecar(obs_path)
        _, mono = load_metrics_file(os.path.join(out, "metrics_par.json"))
        monitor = SloMonitor()
        assert render_slo_table(monitor.evaluate(
            loaded["meta"]["metrics"])) \
            == render_slo_table(monitor.evaluate(mono))

    def test_traces(self, streamed):
        _, out, obs_path, _ = streamed
        loaded = load_obs_sidecar(obs_path)
        spans, events = load_trace_file(os.path.join(out,
                                                    "trace_par.jsonl"))
        assert render_traces(loaded["spans"], loaded["events"], top=5) \
            == render_traces(spans, events, top=5)

    def test_dashboard(self, streamed):
        _, out, obs_path, _ = streamed
        loaded = load_obs_sidecar(obs_path)
        mono = load_timeseries_file(os.path.join(out,
                                                 "timeseries_par.json"))
        assert render_dashboard(loaded["timeseries"], width=40, top=5,
                                title="x") \
            == render_dashboard(mono, width=40, top=5, title="x")

    def test_top(self, streamed):
        _, out, obs_path, _ = streamed
        loaded = load_obs_sidecar(obs_path)
        mono = load_accounting_file(os.path.join(out,
                                                 "accounting_par.json"))
        for sort in ("bytes", "drops", "residency"):
            assert render_top(loaded["accounting"], sort=sort,
                              title="x") \
                == render_top(mono, sort=sort, title="x")


class TestSampledStreamDeterminism:
    def _run(self, path):
        # same sink *name* for both paths: the name is embedded in the
        # meta/fin records, the directory must not be
        sink = ObsSink(path, name="det")
        run = build("quickstart", tracing=True, accounting=True,
                    sampling=scaled_policy(0.5, reservoir=64, top_k=8),
                    stream=sink)
        run.run_to_horizon()
        run.mits.sink.close()
        return path

    def test_same_seed_same_policy_byte_identical(self, tmp_path):
        a = self._run(str(tmp_path / "a" / "obs_det.jsonl"))
        b = self._run(str(tmp_path / "b" / "obs_det.jsonl"))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_policy_recorded_in_meta(self, tmp_path):
        path = self._run(str(tmp_path / "obs_det.jsonl"))
        loaded = load_obs_sidecar(path)
        assert loaded["policy"]["trace_sample_rate"] == 0.5
        assert loaded["policy"]["ledger_top_k"] == 8


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
        mits, out, _, _ = streamed
        dump = json.loads(open(os.path.join(out,
                                            "metrics_par.json")).read())
        overhead = dump["overhead"]
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
