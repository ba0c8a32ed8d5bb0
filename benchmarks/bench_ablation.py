"""EX.2-EX.5: ablations of the design choices DESIGN.md calls out.

EX.2 §3.4.2 — content by reference vs embedded in the courseware;
EX.3 §1.3.3/§3.3 — broadband vs narrowband delivery (stall cliff);
EX.4 §3.1.2.2 — descriptor-based negotiation saves wasted transfer;
EX.5 §4.3.1 — static vs dynamic interaction (guidance against
getting lost in the web).
"""

import pytest

from conftest import build_catalog, build_imd, deploy_mits

from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.topology import star_campus
from repro.authoring import CoursewareEditor
from repro.media.production import MediaProductionCenter
from repro.media.video import VideoStream
from repro.mheg import MhegCodec
from repro.mheg.classes.content import ContentClass
from repro.streaming import VideoPlayer, VideoStreamSender


def test_reference_vs_embedded(benchmark, catalog):
    """EX.2: the by-reference scheme MITS chose, against embedding all
    content in the interchanged container."""
    codec = MhegCodec()

    def build_both():
        referenced = CoursewareEditor("ref", catalog=catalog) \
            .compile_imd(build_imd())
        embedded = CoursewareEditor("emb", catalog=catalog) \
            .compile_imd(build_imd())
        for obj in embedded.container.objects:
            if isinstance(obj, ContentClass) and obj.content_ref:
                obj.data = catalog[obj.content_ref].data
                obj.content_ref = None
        return (len(referenced.encode()), len(codec.encode(
            embedded.container)))

    ref_bytes, emb_bytes = benchmark(build_both)
    total_media = sum(m.size for m in catalog.values()
                      if m.name in ("notes", "diagram", "lecture-audio",
                                    "intro-video"))
    benchmark.extra_info["referenced_container_bytes"] = ref_bytes
    benchmark.extra_info["embedded_container_bytes"] = emb_bytes
    # the scenario travels light; media moves only on demand (§3.4.2)
    assert ref_bytes < emb_bytes / 5
    assert emb_bytes > total_media        # embeds all media + structure
    # reuse: two courseware referencing the same video store it once;
    # embedded, it is duplicated in both containers
    assert ref_bytes * 2 < emb_bytes


def test_bandwidth_sweep(benchmark):
    """EX.3: stall behaviour across access bandwidths — the broadband
    argument.  Above the video bitrate: clean playback; below: a
    sharply growing stall time."""
    video = MediaProductionCenter().produce_video(
        "sweep-video", seconds=4.0, width=64, height=64, frame_rate=10.0)
    bitrate = video.bitrate_bps()
    stream = VideoStream(video.data)

    def sweep():
        results = {}
        for factor in (8.0, 2.0, 1.0, 0.6, 0.3):
            bw = bitrate * factor
            sim = Simulator()
            net, _ = star_campus(sim, ["server", "client"],
                                 access_bps=max(bw, 9600.0))
            player = VideoPlayer(sim, preroll=0.5, skip_grace=1.0,
                                 frames_expected=stream.frames)
            vc = net.open_vc("server", "client",
                             TrafficContract(ServiceCategory.UBR,
                                             pcr=max(bw, 9600.0) / 424),
                             player.on_pdu)
            VideoStreamSender(sim, vc, video.data, lead=0.25).start()
            sim.run(until=stream.duration * 6 + 60)
            results[factor] = (player.stats.stalls,
                               round(player.stats.rebuffer_time, 3))
        return results

    results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    benchmark.extra_info["video_bitrate_bps"] = round(bitrate)
    benchmark.extra_info["stalls_by_bandwidth_factor"] = {
        str(k): v for k, v in results.items()}
    # broadband (>= 2x bitrate): stall-free
    assert results[8.0] == (0, 0.0)
    assert results[2.0][0] == 0
    # below the bitrate the presentation degrades, monotonically
    assert results[0.6][1] > 0
    assert results[0.3][1] > results[0.6][1]


def test_descriptor_negotiation(benchmark, catalog):
    """EX.4: checking the descriptor before transfer avoids shipping
    content a site cannot present (§3.1.2.2 'Minimal Resources')."""
    compiled = CoursewareEditor("neg", catalog=catalog) \
        .compile_imd(build_imd())
    descriptor = compiled.descriptor
    capable = {"decoders": ["SIMG", "SMPG", "SPCM", "STXT"],
               "bandwidth_bps": 155e6, "storage_bytes": 1 << 30}
    incapable = {"decoders": ["STXT"], "bandwidth_bps": 9600,
                 "storage_bytes": 1 << 30}

    def negotiate():
        ok, _ = descriptor.check_capabilities(capable)
        bad, problems = descriptor.check_capabilities(incapable)
        return ok, bad, problems

    ok, bad, problems = benchmark(negotiate)
    assert ok is True and bad is False
    assert any("SMPG" in p for p in problems)
    descriptor_bytes = len(MhegCodec().encode(descriptor))
    content_bytes = descriptor.total_size
    benchmark.extra_info["descriptor_bytes"] = descriptor_bytes
    benchmark.extra_info["content_bytes_saved"] = content_bytes
    # the negotiation costs a tiny descriptor instead of the content
    assert descriptor_bytes < content_bytes / 10


def test_policing_protects_conformant_flows(benchmark):
    """EX.6: UPC on vs off.  A source violating its CBR contract
    floods a shared port; with policing its excess dies at the ingress
    switch and a conformant victim flow is untouched — without it the
    violator's cells reach the victim's queue."""
    from repro.atm.aal5 import segment_pdu
    from repro.atm.topology import star_campus
    from repro.atm.train import CellTrain

    def run(police: bool):
        sim = Simulator()
        net, _ = star_campus(sim, ["victim", "violator", "sink"],
                             access_bps=3e6, buffer_cells=48,
                             police=police)
        victim_delays = []
        victim = net.open_vc("victim", "sink",
                             TrafficContract(ServiceCategory.CBR,
                                             pcr=1000),
                             lambda p, i: victim_delays.append(i.delay))
        violator = net.open_vc("violator", "sink",
                               TrafficContract(ServiceCategory.CBR,
                                               pcr=300, cdvt=0.0),
                               lambda p, i: None)

        def victim_source():
            while True:
                victim.send(bytes(300))
                yield 0.02

        sim.spawn(victim_source())
        # the violator bypasses shaper AND uplink: bursts of raw cells
        # slam straight into the switch, as a broken NIC would send
        # them, each arriving on its own as a queued cell does
        sw = net.switches["sw0"]

        def flood():
            # a continuous ~6x-line-rate stream keeps the shared queue
            # pinned full across the victim's arrival instants
            for burst in range(2000):
                for cell in segment_pdu(bytes(2000), vpi=0,
                                        vci=violator.first_vci,
                                        first_seqno=burst):
                    sw.receive_train(CellTrain([cell], ServiceCategory.CBR,
                                               [sim.now], per_cell=True),
                                     "violator")
                yield 0.001
        sim.spawn(flood())
        sim.run(until=3.0)
        import statistics
        ordered = sorted(victim_delays)
        return {"victim_delivery": victim.stats.pdus_delivered
                / max(1, victim.stats.pdus_sent),
                "victim_mean_delay": statistics.mean(victim_delays),
                "victim_p95_delay": ordered[int(len(ordered) * 0.95)],
                "policed_dropped": sw.stats.policed_dropped}

    def both():
        return run(police=True), run(police=False)

    policed, unpoliced = benchmark.pedantic(both, rounds=2, iterations=1)
    benchmark.extra_info["policed"] = {
        k: round(v, 5) for k, v in policed.items()}
    benchmark.extra_info["unpoliced"] = {
        k: round(v, 5) for k, v in unpoliced.items()}
    # with UPC the violator's flood is dropped at ingress and the
    # conformant victim keeps its clean delay profile
    assert policed["policed_dropped"] > 0
    assert policed["victim_delivery"] == 1.0
    # without UPC the flood occupies the shared CBR queue: the victim
    # still gets through (FIFO admits a spread trickle) but its delay
    # and jitter degrade — fatal for the CBR class, whose contract is
    # exactly delay/CDV
    assert unpoliced["policed_dropped"] == 0
    assert unpoliced["victim_mean_delay"] > \
        policed["victim_mean_delay"] * 1.5
    assert unpoliced["victim_p95_delay"] > \
        policed["victim_p95_delay"] * 1.8


def test_static_vs_dynamic(benchmark, catalog):
    """EX.5: in the static (hypermedia) model the learner alone drives
    everything — with no pre-defined scenario, an undirected learner
    can wander without progress; the dynamic (IMD) model's scenario
    carries them through the content by itself."""
    from conftest import build_hyperdoc
    from repro.navigator.presenter import CoursewarePresenter

    hyper = CoursewareEditor("st", catalog=catalog) \
        .compile_hyperdoc(build_hyperdoc())
    imd = CoursewareEditor("dy", catalog=catalog).compile_imd(build_imd())

    def run_both():
        # static: no clicks -> the learner never leaves page one
        p1 = CoursewarePresenter(
            Simulator(), local_resolver=lambda key: catalog[key].data)
        p1.load_blob(hyper.encode())
        p1.preload()
        p1.start()
        p1.sim.run(until=10.0)
        static_seen = set(p1.visible())
        static_playing = p1.playing

        # an aimless learner clicking in circles revisits pages
        p1.click("go-detail")
        p1.click("back")
        p1.click("go-detail")
        wandering = set(p1.visible())

        # dynamic: the scenario advances unaided through both sections
        p2 = CoursewarePresenter(
            Simulator(), local_resolver=lambda key: catalog[key].data)
        p2.load_blob(imd.encode())
        p2.preload()
        p2.start()
        seen = set()
        for _ in range(14):
            p2.sim.run(until=p2.sim.now + 0.5)
            seen.update(p2.visible())
        return static_seen, static_playing, wandering, seen, p2.playing

    static_seen, static_playing, wandering, dynamic_seen, done = \
        benchmark(run_both)
    # static interaction: stuck on the first page, forever
    assert "body" in static_seen and "detail-text" not in static_seen
    assert static_playing            # nothing ever finishes on its own
    assert "detail-text" in wandering
    # dynamic interaction: the scenario presented every scene unaided
    assert {"text1", "image1", "audio1", "video1"} <= dynamic_seen
    assert not done                  # and the course completed
