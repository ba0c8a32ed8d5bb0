"""The courseware database (Fig 3.3-3.5, §3.4.2, §5.1.2).

MITS stored courseware in ObjectStore, a commercial object-oriented
database on a SUN/ULTRA workstation.  This subpackage replaces it:

* :mod:`repro.database.store` — an object store of named
  collections;
* :mod:`repro.database.index` — the keyword tree and inverted index
  behind ``GetKeywordTree`` / ``GetDocByKeyword`` (§5.5);
* :mod:`repro.database.schema` — the records MITS keeps: courseware,
  content, students, courses, library documents;
* :mod:`repro.database.contentserver` — chunked delivery of content
  data for on-demand streaming;
* :mod:`repro.database.api` — the database facade plus the
  client/server pair exposing the thesis's APIs (``Get_List_Doc``,
  ``Get_Selected_Doc``, ...) over the transport layer.
"""

from repro.database.store import ObjectStore
from repro.database.index import KeywordTree, InvertedIndex
from repro.database.schema import (
    ContentRecord, CoursewareRecord, CourseRecord, LibraryDocument,
    StudentRecord,
)
from repro.database.contentserver import ContentServer
from repro.database.api import (
    CoursewareDatabase, DatabaseServer, DatabaseClient,
)
from repro.database.persistence import restore, snapshot

__all__ = [
    "ObjectStore",
    "KeywordTree",
    "InvertedIndex",
    "ContentRecord",
    "CoursewareRecord",
    "CourseRecord",
    "LibraryDocument",
    "StudentRecord",
    "ContentServer",
    "CoursewareDatabase",
    "DatabaseServer",
    "DatabaseClient",
    "snapshot",
    "restore",
]
