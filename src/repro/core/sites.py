"""The five MITS sites (Fig 3.1, Fig 3.4).

Each site bundles the processing modules Fig 3.4 assigns to it: a
using application, an MHEG engine where needed, and the communication
modules.  Sites communicate only through the transport layer over the
simulated ATM network — there is no backdoor shared state, which keeps
the client-server transparency claim honest.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.atm.network import AtmNetwork
from repro.atm.qos import ServiceCategory, TrafficContract
from repro.atm.simulator import Simulator
from repro.authoring.editor import CompiledCourseware, CoursewareEditor
from repro.database.api import CoursewareDatabase, DatabaseClient, DatabaseServer
from repro.media.base import MediaObject
from repro.media.production import MediaProductionCenter
from repro.navigator.navigator import Navigator
from repro.school.service import SchoolClient, SchoolService
from repro.transport.connection import connect_pair
from repro.transport.rpc import RpcClient, RpcServer, SharedProcessor

#: default contract for control-plane connections (requests, uploads):
#: ~3.4 Mb/s peak / ~0.85 Mb/s sustained per connection, so a 155 Mb/s
#: access link admits on the order of 150 concurrent clients
CONTROL_CONTRACT = TrafficContract(ServiceCategory.NRT_VBR, pcr=8_000,
                                   scr=2_000, mbs=400)


#: CPU time the database site spends on one request
DB_SERVICE_TIME = 0.002


class DatabaseSite:
    """The courseware database: storage plus its RPC server.

    A ``resilient`` site's connections re-signal a torn-down circuit
    and its clients retry timed-out calls.
    """

    def __init__(self, sim: Simulator, network: AtmNetwork,
                 host: str = "database", *, resilient: bool = False) -> None:
        self.sim = sim
        self.network = network
        self.host = host
        self.resilient = resilient
        self.db = CoursewareDatabase()
        self.db.content.tracer = sim.tracer
        self.server = DatabaseServer(self.db)
        #: one CPU for the whole site: concurrent requests queue here,
        #: like the single SUN/ULTRA the prototype database ran on
        self.processor = SharedProcessor(sim, DB_SERVICE_TIME)
        self.endpoints: List[RpcServer] = []

    def serve(self, client_host: str) -> RpcClient:
        """Open a connection from *client_host* and serve it.

        Returns the client-side RPC endpoint for the caller to build
        its client wrappers on.
        """
        conn_client, conn_server = connect_pair(
            self.sim, self.network, client_host, self.host,
            CONTROL_CONTRACT, auto_reconnect=self.resilient)
        rpc_server = RpcServer(self.sim, conn_server,
                               processor=self.processor)
        self.server.attach(rpc_server)
        self.endpoints.append(rpc_server)
        return RpcClient(self.sim, conn_client, retry=self.resilient)

    def requests_served(self) -> int:
        return sum(e.requests_served for e in self.endpoints)


class ProductionSite:
    """The media production center, uploading media to the database."""

    def __init__(self, sim: Simulator, host: str, rpc: RpcClient,
                 seed: int = 1996) -> None:
        self.sim = sim
        self.host = host
        self.center = MediaProductionCenter(seed=seed)
        self.client = DatabaseClient(rpc)

    def publish(self, media: MediaObject, **cb) -> Any:
        """Upload one produced media object as a content record."""
        return self.client.rpc.call("StoreContent", {
            "content_ref": media.name,
            "media_kind": media.media_type.value,
            "coding_method": media.coding_method,
            "data": media.data,
            "attributes": {k: v for k, v in media.attributes.items()},
        }, **cb)


class AuthorSite:
    """A courseware author site: editor + upload path (Fig 3.4)."""

    def __init__(self, sim: Simulator, host: str, rpc: RpcClient,
                 application: str,
                 catalog: Optional[Dict[str, MediaObject]] = None) -> None:
        self.sim = sim
        self.host = host
        self.client = DatabaseClient(rpc)
        self.editor = CoursewareEditor(application, catalog=catalog)

    def publish_courseware(self, compiled: CompiledCourseware, *,
                           courseware_id: str, title: str, program: str,
                           keywords: Optional[List[str]] = None,
                           introduction_ref: Optional[str] = None,
                           **cb) -> Any:
        return self.client.rpc.call("StoreCourseware", {
            "courseware_id": courseware_id,
            "title": title,
            "program": program,
            "container_blob": compiled.encode(),
            "keywords": keywords or [],
            "introduction_ref": introduction_ref,
            "author": "",
        }, **cb)

    def publish_course(self, *, course_code: str, name: str, program: str,
                       courseware_id: str, **cb) -> Any:
        return self.client.rpc.call("AddCourse", {
            "course_code": course_code, "name": name, "program": program,
            "courseware_id": courseware_id, "description": "",
        }, **cb)

    def publish_library_doc(self, *, doc_id: str, title: str,
                            media_kind: str, content_ref: str,
                            keywords: Optional[List[str]] = None,
                            **cb) -> Any:
        return self.client.rpc.call("AddLibraryDoc", {
            "doc_id": doc_id, "title": title, "media_kind": media_kind,
            "content_ref": content_ref, "keywords": keywords or [],
        }, **cb)


class FacilitatorSite:
    """The on-line facilitator: school services + the specialist.

    ``resilient`` as for :class:`DatabaseSite`.
    """

    def __init__(self, sim: Simulator, network: AtmNetwork,
                 host: str = "facilitator", *,
                 resilient: bool = False) -> None:
        self.sim = sim
        self.network = network
        self.host = host
        self.resilient = resilient
        self.service = SchoolService(sim=sim)
        self.endpoints: List[RpcServer] = []

    def serve(self, client_host: str) -> RpcClient:
        conn_client, conn_server = connect_pair(
            self.sim, self.network, client_host, self.host,
            CONTROL_CONTRACT, auto_reconnect=self.resilient)
        rpc_server = RpcServer(self.sim, conn_server)
        self.service.attach(rpc_server)
        self.endpoints.append(rpc_server)
        return RpcClient(self.sim, conn_client, retry=self.resilient)


class UserSite:
    """A courseware user site: the navigator and its connections."""

    def __init__(self, sim: Simulator, host: str,
                 db_rpc: RpcClient,
                 school_rpc: Optional[RpcClient] = None) -> None:
        self.sim = sim
        self.host = host
        self.client = DatabaseClient(db_rpc)
        self.school = SchoolClient(school_rpc) if school_rpc else None
        self.navigator = Navigator(self.client, school=self.school, sim=sim)
