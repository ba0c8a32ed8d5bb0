"""Multimedia conferencing (§5.2.1 Meeting and Discussing).

"E-mail, telephone, and multimedia conferencing facilities are
provided for the students to choose from according to the resources
available on their platforms."  Text mail and conferences live in
:mod:`repro.school.discussion`; this module adds the audio conference:

* each participant paces 20 ms PCM frames onto a VC toward the bridge;
* the :class:`AudioBridge` (at the facilitator site) aligns frames into
  mixing windows and returns to each participant the **mix-minus** —
  the sum of everyone else's audio, clipped to int16;
* participants record what they hear, with arrival bookkeeping, so
  tests and experiments can check both content and timeliness.

Frames ride as raw AAL5 PDUs (CBR contracts fit: 8 kHz * 16 bit =
128 kb/s per leg), exactly the voice-over-ATM arrangement of the era.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.atm.network import AtmNetwork, DeliveryInfo, VirtualCircuit
from repro.atm.qos import ServiceCategory, TrafficContract
from repro.atm.simulator import Simulator
from repro.util.errors import NetworkError

SAMPLE_RATE = 8000
FRAME_SECONDS = 0.02
FRAME_SAMPLES = int(SAMPLE_RATE * FRAME_SECONDS)

_FRAME_HEADER = struct.Struct(">HI")  # participant id, frame index


def pack_audio_frame(participant: int, index: int,
                     samples: np.ndarray) -> bytes:
    return _FRAME_HEADER.pack(participant, index) + \
        samples.astype("<i2").tobytes()


def unpack_audio_frame(data: bytes):
    participant, index = _FRAME_HEADER.unpack_from(data)
    samples = np.frombuffer(data[_FRAME_HEADER.size:], dtype="<i2")
    return participant, index, samples.astype(np.int16)


def conference_contract() -> TrafficContract:
    """One voice leg: 128 kb/s CBR plus framing headroom."""
    cells_per_frame = (FRAME_SAMPLES * 2 + 8 + 48) // 48 + 1
    return TrafficContract(ServiceCategory.CBR,
                           pcr=cells_per_frame / FRAME_SECONDS * 1.2)


class AudioBridge:
    """The conference mixing bridge at the facilitator site."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: participant id -> VC back toward that participant
        self._return_vcs: Dict[int, VirtualCircuit] = {}
        #: frame index -> participant id -> samples
        self._windows: Dict[int, Dict[int, np.ndarray]] = {}
        self._mixed: set = set()
        self.frames_received = 0
        self.frames_mixed = 0

    def attach(self, participant: int, return_vc: VirtualCircuit) -> None:
        self._return_vcs[participant] = return_vc

    def on_pdu(self, payload: bytes, info: DeliveryInfo) -> None:
        participant, index, samples = unpack_audio_frame(payload)
        if participant not in self._return_vcs:
            return
        self.frames_received += 1
        window = self._windows.setdefault(index, {})
        window[participant] = samples
        if index not in self._mixed:
            self._mixed.add(index)
            # mix after a short alignment delay so slower legs land
            self.sim.schedule(FRAME_SECONDS, self._mix_window, index)

    def _mix_window(self, index: int) -> None:
        window = self._windows.pop(index, {})
        if not window:
            return
        self.frames_mixed += 1
        total = np.zeros(FRAME_SAMPLES, dtype=np.int64)
        for samples in window.values():
            n = min(len(samples), FRAME_SAMPLES)
            total[:n] += samples[:n]
        for participant, vc in self._return_vcs.items():
            # mix-minus: everyone except the listener
            own = window.get(participant)
            minus = total.copy()
            if own is not None:
                n = min(len(own), FRAME_SAMPLES)
                minus[:n] -= own[:n]
            mixed = np.clip(minus, -32768, 32767).astype(np.int16)
            vc.send(pack_audio_frame(0xFFFF, index, mixed))


@dataclass
class HeardFrame:
    index: int
    samples: np.ndarray
    arrived_at: float


class ConferenceParticipant:
    """One student (or facilitator) leg of the audio conference."""

    def __init__(self, sim: Simulator, participant_id: int,
                 send_vc: VirtualCircuit) -> None:
        self.sim = sim
        self.participant_id = participant_id
        self.send_vc = send_vc
        self.heard: List[HeardFrame] = []
        self.frames_sent = 0
        self._talk_process = None

    def on_pdu(self, payload: bytes, info: DeliveryInfo) -> None:
        _, index, samples = unpack_audio_frame(payload)
        self.heard.append(HeardFrame(index=index, samples=samples,
                                     arrived_at=self.sim.now))

    def talk(self, audio: np.ndarray) -> None:
        """Pace *audio* (int16 PCM at 8 kHz) as 20 ms frames."""
        if audio.dtype != np.int16:
            raise NetworkError("conference audio must be int16 PCM")

        def pump():
            index = 0
            pos = 0
            while pos < len(audio):
                frame = audio[pos:pos + FRAME_SAMPLES]
                if len(frame) < FRAME_SAMPLES:
                    frame = np.pad(frame, (0, FRAME_SAMPLES - len(frame)))
                self.send_vc.send(pack_audio_frame(
                    self.participant_id, index, frame))
                self.frames_sent += 1
                index += 1
                pos += FRAME_SAMPLES
                yield FRAME_SECONDS

        self._talk_process = self.sim.spawn(pump())

    def heard_audio(self) -> np.ndarray:
        """Concatenate everything heard, in frame order."""
        if not self.heard:
            return np.zeros(0, dtype=np.int16)
        ordered = sorted(self.heard, key=lambda h: h.index)
        return np.concatenate([h.samples for h in ordered])


def build_conference(sim: Simulator, network: AtmNetwork, bridge_host: str,
                     participant_hosts: List[str]
                     ) -> tuple[AudioBridge, List[ConferenceParticipant]]:
    """Wire a bridge and participants over an existing network."""
    bridge = AudioBridge(sim)
    participants: List[ConferenceParticipant] = []
    contract = conference_contract()
    for pid, host in enumerate(participant_hosts, start=1):
        up = network.open_vc(host, bridge_host, contract, bridge.on_pdu)
        participant = ConferenceParticipant(sim, pid, up)
        down = network.open_vc(bridge_host, host, contract,
                               participant.on_pdu)
        bridge.attach(pid, down)
        participants.append(participant)
    return bridge, participants
