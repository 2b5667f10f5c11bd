"""Content-addressed storage of shared XML objects.

Every shared object in U-P2P is an XML document conforming to its
community's schema.  The store keeps those documents partitioned by
community and assigns each a stable *resource id* derived from its
canonical form, so that the same object published by two peers gets the
same identity — which is what makes replication counting possible in
the availability experiments.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from repro.storage.errors import ObjectNotFoundError
from repro.storage.interning import intern_view
from repro.xmlkit.dom import Element
from repro.xmlkit.serializer import canonical, serialize


def metadata_wire_bytes(metadata: Mapping[str, Sequence[str]]) -> int:
    """Approximate wire size of one object's searchable metadata.

    The single definition behind REGISTER / AD-RENEW payloads, QUERY-HIT
    result bytes and cached result sets — the cross-protocol overhead
    comparison only holds if every adapter measures bytes the same way.
    """
    return sum(len(path) + sum(len(value) for value in values)
               for path, values in metadata.items())


def resource_id_for(community_id: str, document: Element) -> str:
    """Compute the stable resource id of ``document`` within a community."""
    digest = hashlib.sha1()
    digest.update(community_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical(document).encode("utf-8"))
    return digest.hexdigest()[:20]


@dataclass
class StoredObject:
    """One stored XML object plus its bookkeeping meta-data."""

    resource_id: str
    community_id: str
    document: Element
    title: str = ""
    publisher: str = ""
    size_bytes: int = 0
    metadata: dict[str, list[str]] = field(default_factory=dict)
    _metadata_view: Optional[dict[str, tuple[str, ...]]] = field(
        default=None, repr=False, compare=False)
    _metadata_wire_bytes: int = field(default=-1, repr=False, compare=False)

    def to_xml_text(self) -> str:
        """Serialize the stored document (used for transfer size accounting)."""
        return serialize(self.document, xml_declaration=False)

    def metadata_view(self) -> dict[str, tuple[str, ...]]:
        """The searchable metadata as a path → value-tuple mapping.

        Built once and shared: every :class:`SearchResult` generated for
        this object (one per answering peer per query) references the
        same immutable-valued mapping instead of re-copying the
        metadata dictionary.  The paths and value tuples are interned
        (:mod:`repro.storage.interning`), so the thousands of copies of
        one corpus object spread across a large population share one
        canonical tuple per field.  Callers must treat it as read-only.
        """
        if self._metadata_view is None:
            self._metadata_view = intern_view(self.metadata)
        return self._metadata_view

    def __getstate__(self):
        """Drop the interned metadata view before pickling.

        The view's value tuples are canonical *per-process* objects
        (:mod:`repro.storage.interning`); shipping them to another
        process would seed that process with unshared duplicates.
        Nulling the cache makes the first ``metadata_view()`` call
        after unpickling re-intern against the receiving process's
        table, restoring the identity-sharing invariant there.
        """
        state = self.__dict__.copy()
        state["_metadata_view"] = None
        return state

    def metadata_wire_bytes(self) -> int:
        """Approximate wire size of the metadata, measured once."""
        if self._metadata_wire_bytes < 0:
            self._metadata_wire_bytes = metadata_wire_bytes(self.metadata)
        return self._metadata_wire_bytes


class DocumentStore:
    """In-memory store of XML objects, partitioned by community."""

    def __init__(self) -> None:
        self._objects: dict[str, StoredObject] = {}
        #: community id -> its objects; a community's bucket exists
        #: exactly while it holds at least one object
        self._by_community: dict[str, dict[str, StoredObject]] = {}

    # ------------------------------------------------------------------
    def put(
        self,
        community_id: str,
        document: Element,
        *,
        title: str = "",
        publisher: str = "",
        metadata: Optional[dict[str, list[str]]] = None,
    ) -> StoredObject:
        """Store ``document`` and return its record.

        Publishing the same document to the same community twice is
        idempotent: the existing record is returned unchanged, mirroring
        how downloading an already-shared file does not duplicate it.
        """
        resource_id = resource_id_for(community_id, document)
        existing = self._objects.get(resource_id)
        if existing is not None:
            return existing
        record = StoredObject(
            resource_id=resource_id,
            community_id=community_id,
            document=document.copy(),
            title=title or document.text_content().strip()[:64],
            publisher=publisher,
            size_bytes=len(serialize(document, xml_declaration=False).encode("utf-8")),
            metadata=dict(metadata or {}),
        )
        self._objects[resource_id] = record
        self._by_community.setdefault(community_id, {})[resource_id] = record
        return record

    def get(self, resource_id: str) -> StoredObject:
        """Return the stored object with ``resource_id`` or raise."""
        record = self._objects.get(resource_id)
        if record is None:
            raise ObjectNotFoundError(f"no object with resource id {resource_id!r}")
        return record

    def contains(self, resource_id: str) -> bool:
        return resource_id in self._objects

    # ------------------------------------------------------------------
    def holds(self, community_id: str) -> bool:
        """Whether at least one object is stored for ``community_id``."""
        return community_id in self._by_community

    def objects_in(self, community_id: str) -> list[StoredObject]:
        """All objects stored for one community."""
        return list(self._by_community.get(community_id, {}).values())

    def communities(self) -> list[str]:
        """Community ids that have at least one stored object."""
        return list(self._by_community)

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[StoredObject]:
        return iter(self._objects.values())

    def total_bytes(self) -> int:
        """Total size of all stored documents (index-size experiments)."""
        return sum(record.size_bytes for record in self._objects.values())
