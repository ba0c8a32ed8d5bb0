"""Tests for paced video streaming and the playout model."""

import pytest

from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.topology import star_campus
from repro.media.production import MediaProductionCenter
from repro.media.video import VideoStream
from repro.streaming import PlayoutStats, VideoPlayer, VideoStreamSender
from repro.streaming.sender import pack_frame, unpack_frame


@pytest.fixture(scope="module")
def video():
    return MediaProductionCenter().produce_video(
        "stream-test", seconds=3.0, width=64, height=64, frame_rate=10.0)


def run_stream(video, *, access_bps=10e6, preroll=0.4, lead=0.2,
               category=ServiceCategory.UBR, buffer_cells=1024,
               until=120.0):
    sim = Simulator()
    net, _ = star_campus(sim, ["server", "client"], access_bps=access_bps,
                         buffer_cells=buffer_cells)
    stream = VideoStream(video.data)
    if category is ServiceCategory.UBR:
        contract = TrafficContract(category, pcr=access_bps / 424)
    else:
        mean_cells = video.bitrate_bps() / 8 / 48
        contract = TrafficContract(category, pcr=mean_cells * 8,
                                   scr=mean_cells * 2, mbs=400)
    player = VideoPlayer(sim, preroll=preroll, skip_grace=0.5,
                         frames_expected=stream.frames)
    vc = net.open_vc("server", "client", contract, player.on_pdu)
    sender = VideoStreamSender(sim, vc, video.data, lead=lead)
    sender.start()
    sim.run(until=until)
    return sim, sender, player


class TestFrameFraming:
    def test_pack_unpack(self):
        data = pack_frame(7, 1.25, True, b"framebytes")
        index, ts, last, payload = unpack_frame(data)
        assert (index, ts, last, payload) == (7, 1.25, True, b"framebytes")


class TestSender:
    def test_all_frames_sent_at_pace(self, video):
        sim, sender, player = run_stream(video)
        stream = VideoStream(video.data)
        assert sender.frames_sent == stream.frames
        assert sender.finished


class TestPlayer:
    def test_clean_playback_on_fast_link(self, video):
        sim, sender, player = run_stream(video, access_bps=10e6)
        assert player.finished
        assert player.stats.stalls == 0 and player.stats.frames_skipped == 0
        assert player.stats.frames_played == VideoStream(video.data).frames

    def test_startup_delay_close_to_preroll(self, video):
        sim, sender, player = run_stream(video, access_bps=10e6,
                                         preroll=0.7)
        assert player.stats.startup_delay == pytest.approx(0.7, abs=0.05)

    def test_starved_link_stalls(self, video):
        slow = video.bitrate_bps() * 0.4
        sim, sender, player = run_stream(video, access_bps=slow)
        assert player.stats.stalls > 0
        assert player.stats.rebuffer_time > 0
        assert player.finished  # eventually completes, degraded

    def test_stall_time_monotone_in_starvation(self, video):
        rebuffer = []
        for factor in (0.6, 0.3):
            _, _, player = run_stream(
                video, access_bps=video.bitrate_bps() * factor)
            rebuffer.append(player.stats.rebuffer_time)
        assert rebuffer[1] > rebuffer[0]

    def test_frame_loss_skipped_not_fatal(self, video):
        # tiny buffers + oversubscription cause real cell loss; lost
        # frames must be skipped after the grace period
        sim, sender, player = run_stream(
            video, access_bps=video.bitrate_bps() * 1.5,
            buffer_cells=8, lead=0.0, until=300.0)
        stats = player.stats
        assert stats.frames_played + stats.frames_skipped > 0
        assert player.finished or stats.frames_skipped > 0

    def test_delay_samples_recorded(self, video):
        sim, sender, player = run_stream(video)
        assert len(player.stats.delays) > 0
        assert all(d >= 0 for d in player.stats.delays)


class TestEmptyStreamRegression:
    """An empty or zero-duration stream must not crash the sender."""

    def _empty_stream_sender(self):
        import struct
        sim = Simulator()
        net, _ = star_campus(sim, ["server", "client"])
        vc = net.open_vc("server", "client",
                         TrafficContract(ServiceCategory.UBR, pcr=1e5),
                         lambda p, i: None)
        # a structurally valid SMPG sequence with zero frames (the
        # codec itself refuses to encode one, but a stored/truncated
        # asset can still present one to the sender)
        data = b"SMPG" + struct.pack(">HHHfB", 0, 8, 8, 10.0, 12) + bytes([60])
        return sim, VideoStreamSender(sim, vc, data)

    def test_empty_stream_start_is_harmless(self):
        sim, sender = self._empty_stream_sender()
        sender.start()
        sim.run(until=1.0)
        assert sender.frames_sent == 0


class TestPlayerMetrics:
    def test_preroll_and_lateness_recorded(self, video):
        sim, sender, player = run_stream(video)
        assert player.stats.preroll_frames > 0
        rep = sim.metrics.report()
        [preroll] = rep["player"]["preroll_fill_frames"]
        assert preroll["value"] == player.stats.preroll_frames
        assert "frame_lateness_seconds" in rep["player"]
