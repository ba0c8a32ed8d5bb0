"""Content server: on-demand, chunked delivery of media data.

§3.4.2: "content objects of large size are transmitted only at the
time they are requested, the transmission resource is saved and the
real time performance is improved."  The content server is the
database-side component that answers those requests, serving whole
objects in fixed-size chunks.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.database.schema import ContentRecord
from repro.database.store import ObjectStore
from repro.obs.tracing import NULL_SPAN, Tracer
from repro.transport.rpc import STREAM_CHUNK_BYTES
from repro.util.errors import DatabaseError

CONTENT_COLLECTION = "content"


class ContentServer:
    """Serves content records out of an object store."""

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self.requests = 0
        self.bytes_served = 0
        #: wired by the owning site so content lookups appear in the
        #: request's cross-site trace (under the rpc.server span)
        self.tracer: Optional[Tracer] = None

    def put(self, record: ContentRecord) -> None:
        self.store.put(CONTENT_COLLECTION, record.content_ref, record)

    def get(self, content_ref: str) -> ContentRecord:
        self.requests += 1
        span = self.tracer.span("db.get_content", content_ref=content_ref) \
            if self.tracer is not None else NULL_SPAN
        with span:
            record = self.store.get_or_none(CONTENT_COLLECTION, content_ref)
            if record is None:
                raise DatabaseError(f"no content object {content_ref!r}")
            self.bytes_served += record.size
            span.set(bytes=record.size)
            return record

    def exists(self, content_ref: str) -> bool:
        return self.store.exists(CONTENT_COLLECTION, content_ref)

    def refs(self) -> List[str]:
        return self.store.keys(CONTENT_COLLECTION)

    def total_bytes(self) -> int:
        return sum(record.size
                   for _, record in self.store.items(CONTENT_COLLECTION))

    # -- streaming ---------------------------------------------------------

    def chunks(self, content_ref: str) -> Iterator[bytes]:
        """A content object in stream-message-sized chunks."""
        data = self.get(content_ref).data
        for i in range(0, len(data), STREAM_CHUNK_BYTES):
            yield data[i:i + STREAM_CHUNK_BYTES]
