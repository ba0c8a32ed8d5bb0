"""Server-side video streaming.

Frames of an encoded SMPG sequence are sent over a virtual circuit as
individual AAL5 PDUs, each prefixed with a small header carrying the
frame index and presentation timestamp.  The sender paces transmission
by the frame timestamps (optionally shifted earlier by *lead* to fill
the client's pre-roll buffer faster).
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.atm.network import VirtualCircuit
from repro.atm.simulator import Simulator
from repro.media.video import VideoStream
from repro.obs.tracing import NULL_SPAN
from repro.util.errors import NetworkError

_FRAME_HEADER = struct.Struct(">IdB")  # index, timestamp, last flag


def pack_frame(index: int, timestamp: float, last: bool,
               payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(index, timestamp, 1 if last else 0) + payload


def unpack_frame(data: bytes):
    index, timestamp, last = _FRAME_HEADER.unpack_from(data)
    return index, timestamp, bool(last), data[_FRAME_HEADER.size:]


class VideoStreamSender:
    """Paces one encoded video sequence onto a VC."""

    def __init__(self, sim: Simulator, vc: VirtualCircuit, data: bytes, *,
                 lead: float = 0.0) -> None:
        self.sim = sim
        self.vc = vc
        self.stream = VideoStream(data)
        self.lead = lead
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_lost = 0
        self.started_at: Optional[float] = None
        self.finished = False
        #: graceful degradation: fraction of each frame's bytes kept.
        #: Downgrading mid-stream models switching to a coarser SMPG
        #: quantiser when the receiver reports sustained stalls.
        self.quality = 1.0
        self._span = NULL_SPAN
        label = f"vc{vc.vc_id}"
        for field in ("frames_sent", "bytes_sent"):
            sim.metrics.read_through("streaming", field, self, field,
                                     stream=label)
        self._m_degrade = sim.metrics.counter("streaming", "degradations",
                                              stream=label)
        sim.ledger.track("stream", label, self,
                         note=f"{vc.src.name}->{vc.dst.name}")

    def start(self) -> None:
        """Schedule every frame's transmission at its (lead-shifted)
        timestamp relative to now."""
        self.started_at = self.sim.now
        self._span = self.sim.tracer.span(
            "streaming.send", stream=f"vc{self.vc.vc_id}",
            frames=self.stream.frames)
        for i, (timestamp, frame) in enumerate(self.stream):
            send_at = max(0.0, timestamp - self.lead)
            last = i == self.stream.frames - 1
            self.sim.schedule(send_at, self._send_frame, i, timestamp,
                              last, frame)

    def downgrade(self) -> None:
        """Halve the share of each remaining frame's encoded size that
        is sent (floored at 10%) — the receiver asked for relief."""
        self.quality = max(0.1, self.quality * 0.5)
        self._m_degrade.inc()
        self.sim.recorder.record(
            "streaming", "bitrate_downgrade", severity="warning",
            stream=f"vc{self.vc.vc_id}", quality=round(self.quality, 3))

    def _send_frame(self, index: int, timestamp: float, last: bool,
                    frame: bytes) -> None:
        if self.quality < 1.0:
            frame = frame[:max(1, int(len(frame) * self.quality))]
        try:
            self.vc.send(pack_frame(index, timestamp, last, frame))
        except NetworkError:
            # VC torn down under us: frames scheduled before the fault
            # must not unwind the event loop — drop and count them
            self.frames_lost += 1
            if last:
                self.finished = True
                self._span.set(bytes=self.bytes_sent, lost=self.frames_lost)
                self._span.end()
            return
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        if last:
            self.finished = True
            self._span.set(bytes=self.bytes_sent)
            self._span.end()
