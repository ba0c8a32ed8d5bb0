"""Client-side playout model with stall accounting.

The player buffers arriving frames and starts playback after a
*pre-roll* delay.  A frame whose presentation deadline passes before
it arrives causes a **stall**: the playout clock freezes until the
frame shows up, and the stall's duration is recorded.  Lost frames
(AAL5 CRC failures upstream) are skipped after a grace period and
counted separately.

The metrics — startup delay, stall count, total rebuffer time, frame
loss — are exactly what the bandwidth-sweep experiment (EX.3) reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from repro.atm.network import DeliveryInfo
from repro.atm.simulator import Simulator
from repro.streaming.sender import unpack_frame

#: raw per-frame delay samples kept (full distribution in metrics)
DELAY_SAMPLE_CAP = 4096
#: with ``resilient``: up to this many *consecutive* missing frames are
#: concealed (previous frame held) instead of stalling
CONCEAL_LIMIT = 3
#: with ``resilient``: after this many stalls (and each further
#: multiple), ask the sender for a bitrate downgrade
DEGRADE_AFTER_STALLS = 2


@dataclass
class PlayoutStats:
    frames_expected: int = 0
    frames_played: int = 0
    frames_skipped: int = 0
    frames_concealed: int = 0
    degradations: int = 0
    startup_delay: float = 0.0
    stalls: int = 0
    rebuffer_time: float = 0.0
    #: pre-roll fill: frames buffered at the instant playback started
    preroll_frames: int = 0
    #: most recent per-frame network delay samples (bounded)
    delays: Deque[float] = field(
        default_factory=lambda: deque(maxlen=DELAY_SAMPLE_CAP))
    #: net-new frames accepted into the playout buffer
    frames_received: int = 0
    #: frame payload bytes of those frames (headers excluded)
    bytes_received: int = 0
    #: late arrivals dropped because playout already moved past them
    frames_stale: int = 0
    #: arrivals for an index already buffered (counted, overwritten)
    frames_duplicate: int = 0


class VideoPlayer:
    """Consumes a frame stream; drives a playout clock with stalls."""

    def __init__(self, sim: Simulator, *, preroll: float = 0.5,
                 skip_grace: float = 2.0,
                 frames_expected: int = 0, name: str = "player",
                 resilient: bool = False) -> None:
        self.sim = sim
        self.preroll = preroll
        self.skip_grace = skip_grace
        self.name = name
        #: graceful degradation, on with ``resilient``: late-frame
        #: concealment, and a bitrate downgrade asked for through
        #: ``on_degrade`` (set by the owner after construction); 0 = off
        self.conceal_limit = CONCEAL_LIMIT if resilient else 0
        self.degrade_after_stalls = DEGRADE_AFTER_STALLS if resilient else 0
        self.on_degrade: Optional[Callable[[], None]] = None
        self._next_degrade_at = self.degrade_after_stalls
        self._conceal_run = 0
        self.stats = PlayoutStats(frames_expected=frames_expected)
        metrics = sim.metrics
        self._recorder = sim.recorder
        self._m_lateness = metrics.histogram(
            "player", "frame_lateness_seconds", player=name)
        self._m_startup = metrics.histogram(
            "player", "startup_delay_seconds", player=name)
        self._m_buffer = metrics.gauge("player", "buffer_frames", player=name)
        self._m_preroll = metrics.gauge("player", "preroll_fill_frames",
                                        player=name)
        for field in ("stalls", "frames_skipped", "frames_concealed",
                      "degradations", "frames_received"):
            metrics.read_through("player", field, self.stats, field,
                                 player=name)
        # what the watchdog judges a stream by, beside the buffer gauge
        metrics.read_through("player", "finished", self, "finished",
                             player=name)
        metrics.read_through("player", "stall_seconds", self,
                             "stall_seconds", player=name)
        self._buffer: Dict[int, float] = {}   # index -> timestamp
        self._arrival: Dict[int, float] = {}
        self._timestamps: Dict[int, float] = {}
        self._next_frame = 0
        self._play_started: Optional[float] = None
        self._first_arrival: Optional[float] = None
        self._stall_started: Optional[float] = None
        self._clock_offset: Optional[float] = None
        self._last_index: Optional[int] = None
        self.finished = False
        sim.ledger.track("stream", name, self)
        sim.register_entity("player", self)

    @property
    def stall_seconds(self) -> float:
        """How long the current stall has lasted; 0.0 while playing."""
        started = self._stall_started
        return 0.0 if started is None else self.sim.now - started

    # -- network entry point ----------------------------------------------

    def on_pdu(self, payload: bytes, info: DeliveryInfo) -> None:
        index, timestamp, last, frame = unpack_frame(payload)
        if self._play_started is not None and index < self._next_frame:
            # stale: the playout point moved past this frame (skipped
            # or concealed while it was delayed) — never buffer it
            self.stats.frames_stale += 1
            if last:
                self._last_index = index
            return
        if index in self._buffer:
            self.stats.frames_duplicate += 1
        else:
            self.stats.frames_received += 1
            self.stats.bytes_received += len(frame)
        self._buffer[index] = timestamp
        self._arrival[index] = self.sim.now
        self._timestamps[index] = timestamp
        self._m_buffer.set(len(self._buffer))
        if info is not None:
            self.stats.delays.append(info.delay)
        if self._clock_offset is not None:
            # lateness vs the playout deadline; early frames clamp to 0
            lateness = self.sim.now - (self._clock_offset + timestamp)
            self._m_lateness.observe(max(0.0, lateness))
            if lateness > 0.0:
                self._recorder.record(
                    "streaming", "late_frame", severity="warning",
                    player=self.name, frame=index, lateness=lateness)
        if last:
            self._last_index = index
        if self._first_arrival is None:
            self._first_arrival = self.sim.now
            self.sim.schedule(self.preroll, self._start_playback)
        elif self._stall_started is not None and index == self._next_frame:
            self._end_stall()

    def _start_playback(self) -> None:
        self._play_started = self.sim.now
        self.stats.startup_delay = self.sim.now - self._first_arrival \
            + 0.0
        self._m_startup.observe(self.stats.startup_delay)
        # playout clock: frame with timestamp T plays at offset + T
        self._clock_offset = self.sim.now
        self.stats.preroll_frames = len(self._buffer)
        self._m_preroll.set(len(self._buffer))
        self._advance()

    # -- playout loop --------------------------------------------------------

    def _advance(self) -> None:
        if self.finished:
            return
        index = self._next_frame
        if self._last_index is not None and index > self._last_index:
            self.finished = True
            return
        if self.stats.frames_expected and index >= self.stats.frames_expected:
            # the tail of the stream was lost outright: don't wait for
            # a last-frame marker that will never arrive
            self.finished = True
            return
        if index in self._buffer:
            due = self._clock_offset + self._buffer[index]
            if self.sim.now >= due:
                self._play_frame(index)
            else:
                self.sim.schedule(due - self.sim.now, self._advance)
        else:
            # frame missing at its deadline: conceal (hold the previous
            # frame) within the consecutive budget, otherwise stall
            if self._stall_started is None:
                due = self._clock_offset + self._estimate_timestamp(index)
                if self.sim.now >= due:
                    if self._conceal_run < self.conceal_limit:
                        self._conceal_frame(index)
                    else:
                        self._begin_stall()
                else:
                    self.sim.schedule(due - self.sim.now, self._advance)
            # else: already stalling; arrival or skip timer resumes us

    def _conceal_frame(self, index: int) -> None:
        self._conceal_run += 1
        self.stats.frames_concealed += 1
        self._recorder.record("streaming", "frame_concealed",
                              severity="warning", player=self.name,
                              frame=index)
        self._next_frame = index + 1
        self._advance()

    def _estimate_timestamp(self, index: int) -> float:
        if index in self._timestamps:
            return self._timestamps[index]
        if self._timestamps:
            # uniform frame spacing: extrapolate from what we have
            known = sorted(self._timestamps)
            if len(known) >= 2:
                spacing = ((self._timestamps[known[-1]]
                            - self._timestamps[known[0]])
                           / max(1, known[-1] - known[0]))
                return self._timestamps[known[0]] \
                    + (index - known[0]) * spacing
            return self._timestamps[known[0]]
        return 0.0

    def _begin_stall(self) -> None:
        self._stall_started = self.sim.now
        self.stats.stalls += 1
        self._recorder.record("streaming", "stall", severity="warning",
                              player=self.name, frame=self._next_frame)
        if (self.degrade_after_stalls
                and self.stats.stalls >= self._next_degrade_at):
            self._next_degrade_at += self.degrade_after_stalls
            self.stats.degradations += 1
            self._recorder.record(
                "streaming", "degradation_requested", severity="warning",
                player=self.name, stalls=self.stats.stalls)
            if self.on_degrade is not None:
                self.on_degrade()
        self.sim.schedule(self.skip_grace, self._skip_if_still_missing,
                          self._next_frame)

    def _end_stall(self) -> None:
        assert self._stall_started is not None
        stall = self.sim.now - self._stall_started
        self.stats.rebuffer_time += stall
        # freeze the playout clock for the stall duration
        self._clock_offset += stall
        self._stall_started = None
        self._advance()

    def _skip_if_still_missing(self, index: int) -> None:
        if self.finished or self._stall_started is None:
            return
        if self._next_frame == index and index not in self._buffer:
            stall = self.sim.now - self._stall_started
            self.stats.rebuffer_time += stall
            self._clock_offset += stall
            self._stall_started = None
            self.stats.frames_skipped += 1
            self._recorder.record(
                "streaming", "frame_skipped", severity="warning",
                player=self.name, frame=index, stall=stall)
            self._next_frame += 1
            self._advance()

    def _play_frame(self, index: int) -> None:
        self._conceal_run = 0
        self.stats.frames_played += 1
        del self._buffer[index]
        self._m_buffer.set(len(self._buffer))
        self._next_frame = index + 1
        self._advance()
