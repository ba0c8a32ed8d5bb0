"""MitsSystem: one whole MITS deployment in one object.

Builds the network (campus star or OCRInet-like metro WAN), places the
five kinds of site on it (Fig 3.1), opens their connections, and
exposes the end-to-end flows: produce media, author and publish
courseware, register students, take a course on demand, ask the
facilitator.  The benchmarks and examples all start from here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.atm.network import AtmNetwork
from repro.atm.simulator import Simulator
from repro.atm.topology import ocrinet_like, star_campus
from repro.core.sites import (
    AuthorSite, DatabaseSite, FacilitatorSite,
    ProductionSite, UserSite,
)
from repro.database.api import wait_for
from repro.media.base import MediaObject
from repro.obs.accounting import Ledger
from repro.obs.audit import ConservationAuditor
from repro.obs.meter import OverheadMeter
from repro.obs.sink import ObsSink
from repro.obs.slo import SloMonitor
from repro.obs.timeseries import TelemetrySampler
from repro.util.errors import NetworkError


class MitsSystem:
    """A deployed MITS instance over a simulated ATM network."""

    def __init__(self, *, topology: str = "star", extra_users: int = 0,
                 seed: int = 1996, access_bps: float = 155.52e6,
                 tracing: bool = False,
                 telemetry_interval: Optional[float] = 0.25,
                 accounting: bool = False,
                 watchdog: bool = True,
                 stream: Optional[str] = None,
                 meter: bool = True,
                 resilient: bool = False) -> None:
        #: overhead self-metering: on by default (a handful of clock
        #: reads per span/tick/flush, nothing per-cell)
        self.meter: Optional[OverheadMeter] = \
            OverheadMeter() if meter else None
        #: per-entity accounting: opt-in, and it decides only whether
        #: the ledger is reported — its rows read the components' own
        #: counters, so a run without it computes the same
        self.sim = Simulator(ledger=Ledger(enabled=accounting))
        self.sim.tracer.enabled = tracing
        self.sim.tracer.meter = self.meter
        self.slos = SloMonitor()
        self.seed = seed
        if topology not in ("star", "ocrinet"):
            raise NetworkError(f"unknown topology {topology!r}")
        #: the topology's name: the archive's ``meta`` record names it
        #: before the network exists
        self.topology = topology
        #: whether the transport and streaming layers fight back
        #: against faults (reconnects, RPC retries, playout
        #: concealment); a clean run is the same either way
        self.resilient = resilient
        #: set by the scenario layer when a fault plan is armed
        self.injector = None
        #: time-series telemetry: on by default (dormancy-aware, so it
        #: never keeps the simulation alive); None disables it
        self.sampler: Optional[TelemetrySampler] = None
        if telemetry_interval is not None:
            self.sampler = TelemetrySampler(
                self.sim, interval=telemetry_interval, meter=self.meter)
        #: anomaly watchdog: whether the archive's ``meta`` asks the
        #: loader to judge the run from its telemetry (obs/watchdog),
        #: as ``accounting`` decides only whether the ledger is reported
        self.watchdog = watchdog
        #: the run's archive, streamed: attach BEFORE the sampler starts
        #: so the very first tick (and everything after) hits the stream.
        #: A tick is kept only in the archive, so a run without one
        #: starts no sampler tick
        self.sink: Optional[ObsSink] = None
        if stream is not None:
            self.sink = ObsSink(stream)
            self.sink.attach(self)
            if self.sampler is not None:
                self.sampler.start()
        if topology == "star":
            hosts = ["production", "author1", "database", "facilitator",
                     "user1"]
            hosts += [f"user{i + 2}" for i in range(extra_users)]
            self.network, self.spec = star_campus(
                self.sim, hosts, access_bps=access_bps)
        else:
            self.network, self.spec = ocrinet_like(
                self.sim, extra_users=extra_users, access_bps=access_bps)

        self.database = DatabaseSite(self.sim, self.network, "database",
                                     resilient=resilient)
        self.facilitator = FacilitatorSite(self.sim, self.network,
                                           "facilitator",
                                           resilient=resilient)
        self.production = ProductionSite(
            self.sim, "production",
            self.database.serve("production"), seed=seed)
        self.authors: Dict[str, AuthorSite] = {}
        self.users: Dict[str, UserSite] = {}

    # -- site management ---------------------------------------------------

    def add_author(self, host: str, application: str,
                   catalog: Optional[Dict[str, MediaObject]] = None
                   ) -> AuthorSite:
        site = AuthorSite(self.sim, host, self.database.serve(host),
                          application, catalog=catalog)
        self.authors[host] = site
        return site

    def add_user(self, host: str) -> UserSite:
        if host not in self.network.hosts:
            self._attach_host(host)
        site = UserSite(self.sim, host,
                        db_rpc=self.database.serve(host),
                        school_rpc=self.facilitator.serve(host))
        self.users[host] = site
        return site

    def _attach_host(self, host: str) -> None:
        """Grow the topology: attach a new host to an edge switch."""
        if self.spec.name == "star":
            switch = "sw0"
        else:
            edge = [s for s in self.spec.switches if s != "ottawa-u"]
            switch = edge[len(self.users) % len(edge)]
        self.network.add_host(host, switch,
                              rate_bps=self.spec.access_bps)
        self.spec.hosts.append(host)

    # -- end-to-end convenience flows ------------------------------------------

    def wait(self, pending) -> Any:
        """Run the simulator until a pending RPC completes."""
        return wait_for(self.sim, pending)

    def publish_media(self, media: MediaObject) -> None:
        self.wait(self.production.publish(media))

    def produce_standard_assets(self, prefix: str = "atm",
                                seconds: float = 1.0) -> Dict[str, MediaObject]:
        """Produce and publish the standard demo asset set."""
        center = self.production.center
        assets = {
            f"{prefix}-intro-video": center.produce_video(
                f"{prefix}-intro-video", seconds=seconds),
            f"{prefix}-lecture-audio": center.produce_audio(
                f"{prefix}-lecture-audio", seconds=seconds),
            f"{prefix}-diagram": center.produce_image(f"{prefix}-diagram"),
            f"{prefix}-notes": center.produce_text(f"{prefix}-notes"),
        }
        for media in assets.values():
            self.publish_media(media)
        return assets

    def snapshot(self) -> Dict[str, Any]:
        """Deployment summary (Fig 3.1 realised), for reports.

        The ``metrics`` section is the full registry dump — per-VC
        delay histograms, link drop counters, connection retransmit
        counts, MHEG sync skew — everything the layers recorded.
        ``slo`` judges it against the default objectives, ``events``
        is the flight-recorder ring, ``trace`` summarises the span
        tracer (per-name duration aggregates, not raw spans), and
        ``timeseries`` counts the sampler's ticks (the ticks
        themselves live only in a streamed archive, and the watchdog's
        alerts only in the archive :func:`~repro.obs.sink.load_archive`
        reads back).
        """
        metrics_report = self.sim.metrics.report()
        tracer = self.sim.tracer
        if self.sampler is not None:
            # a final tick at `now`, which a streamed archive records
            self.sampler.sample()
        return {
            "topology": self.spec.name,
            "switches": list(self.spec.switches),
            "sites": {
                "production": self.production.host,
                "database": self.database.host,
                "facilitator": self.facilitator.host,
                "authors": sorted(self.authors),
                "users": sorted(self.users),
            },
            "db_statistics": self.database.db.statistics(),
            "events_run": self.sim.events_run,
            "sim_time": self.sim.now,
            "metrics": metrics_report,
            "slo": self.slos.summary(metrics_report),
            "audit": ConservationAuditor(self).report(),
            "accounting": self.sim.ledger.snapshot(sim_time=self.sim.now),
            "events": self.sim.recorder.snapshot(),
            "trace": {
                "enabled": tracer.enabled,
                "spans": len(tracer.spans),
                "dropped": tracer.dropped,
                "aggregate": tracer.aggregate(),
            },
            "timeseries": {"enabled": True,
                           "interval": self.sampler.interval,
                           "samples": self.sampler.samples}
            if self.sampler is not None else {"enabled": False},
            "faults": self.injector.snapshot()
            if self.injector is not None else {"plan": None},
        }
