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
from repro.faults.recovery import RecoveryPolicy
from repro.media.base import MediaObject
from repro.obs.accounting import Ledger
from repro.obs.audit import ConservationAuditor
from repro.obs.meter import OverheadMeter
from repro.obs.profiler import LoopProfiler
from repro.obs.sampling import SamplingPolicy
from repro.obs.sink import ObsSink
from repro.obs.slo import SloMonitor
from repro.obs.timeseries import TelemetrySampler
from repro.obs.watchdog import Watchdog
from repro.util.errors import NetworkError


class MitsSystem:
    """A deployed MITS instance over a simulated ATM network."""

    def __init__(self, *, topology: str = "star", extra_users: int = 0,
                 seed: int = 1996, access_bps: float = 155.52e6,
                 tracing: bool = False,
                 telemetry_interval: Optional[float] = 0.25,
                 telemetry_capacity: int = 512,
                 profile: bool = False,
                 accounting: bool = False,
                 watchdog: bool = True,
                 sampling: Optional[SamplingPolicy] = None,
                 stream: Optional[str] = None,
                 meter: bool = True,
                 recovery: Optional[RecoveryPolicy] = None) -> None:
        #: the sampling policy every obs collector sheds load under;
        #: None keeps today's keep-everything behaviour exactly
        self.sampling = sampling
        #: overhead self-metering: on by default (a handful of clock
        #: reads per span/tick/flush, nothing per-cell)
        self.meter: Optional[OverheadMeter] = \
            OverheadMeter() if meter else None
        #: per-entity accounting: opt-in — the disabled ledger hands
        #: out a shared no-op account, so clean runs pay nothing
        self.sim = Simulator(ledger=Ledger(
            enabled=accounting,
            top_k=sampling.ledger_top_k if sampling is not None else None))
        self.sim.tracer.enabled = tracing
        self.sim.tracer.meter = self.meter
        if sampling is not None:
            self.sim.tracer.apply_policy(sampling)
            self.sim.recorder.apply_policy(sampling)
        self.slos = SloMonitor()
        self.seed = seed
        #: how hard the transport/streaming layers fight back against
        #: faults; the default policy changes nothing in clean runs
        self.recovery = recovery or RecoveryPolicy()
        #: set by the scenario layer when a fault plan is armed
        self.injector = None
        #: time-series telemetry: on by default (dormancy-aware, so it
        #: never keeps the simulation alive); None disables it
        self.sampler: Optional[TelemetrySampler] = None
        if telemetry_interval is not None:
            self.sampler = TelemetrySampler(
                self.sim, interval=telemetry_interval,
                capacity=telemetry_capacity,
                policy=sampling, meter=self.meter)
        #: the run's archive, streamed: attach BEFORE the sampler starts
        #: so the very first tick (and everything after) hits the stream
        self.sink: Optional[ObsSink] = None
        if stream is not None:
            self.sink = ObsSink(stream)
            self.sink.attach(self)
        if self.sampler is not None:
            self.sampler.start()
        #: event-loop profiler: installed only on request — the
        #: disabled path leaves Simulator._execute untouched
        self.profiler = LoopProfiler()
        if profile:
            self.profiler.install(self.sim)
        if topology == "star":
            hosts = ["production", "author1", "database", "facilitator",
                     "user1"]
            hosts += [f"user{i + 2}" for i in range(extra_users)]
            self.network, self.spec = star_campus(
                self.sim, hosts, access_bps=access_bps)
        elif topology == "ocrinet":
            self.network, self.spec = ocrinet_like(
                self.sim, extra_users=extra_users, access_bps=access_bps)
        else:
            raise NetworkError(f"unknown topology {topology!r}")

        #: anomaly watchdog: evaluates detectors on the telemetry tick;
        #: needs the sampler, so it is silently off without telemetry
        self.watchdog: Optional[Watchdog] = None
        if watchdog and self.sampler is not None:
            self.watchdog = Watchdog(self.sim, network=self.network)
            self.watchdog.attach(self.sampler)

        self.database = DatabaseSite(self.sim, self.network, "database",
                                     recovery=self.recovery)
        self.facilitator = FacilitatorSite(self.sim, self.network,
                                           "facilitator",
                                           recovery=self.recovery)
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

    def wait(self, pending, timeout: float = 60.0) -> Any:
        """Run the simulator until a pending RPC completes."""
        return wait_for(self.sim, pending, timeout=timeout)

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
        is the flight-recorder ring, and ``trace`` summarises the
        span tracer (per-name duration aggregates, not raw spans).
        """
        metrics_report = self.sim.metrics.report()
        tracer = self.sim.tracer
        if self.sampler is not None:
            self.sampler.sample()  # flush a final point at `now`
        alerts = self.watchdog.alerts if self.watchdog is not None else None
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
            "slo": self.slos.summary(metrics_report,
                                     watchdog_alerts=alerts),
            "audit": ConservationAuditor(self).report(),
            "accounting": self.sim.ledger.snapshot(sim_time=self.sim.now),
            "watchdog": self.watchdog.snapshot()
            if self.watchdog is not None else {"enabled": False},
            "events": self.sim.recorder.snapshot(),
            "trace": {
                "enabled": tracer.enabled,
                "spans": len(tracer.spans),
                "dropped": tracer.dropped,
                "aggregate": tracer.aggregate(),
            },
            "timeseries": self.sampler.snapshot()
            if self.sampler is not None else {"enabled": False},
            "profile": self.profiler.snapshot(),
            "faults": self.injector.snapshot()
            if self.injector is not None else {"plan": None},
        }
