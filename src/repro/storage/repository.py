"""The per-peer repository: store + index + attachments behind one API.

This is what a U-P2P servent talks to locally: publish an object (store
it and index its searchable fields), evaluate a compiled query plan
against the local index, and retrieve a full object with its
attachments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.storage.attachments import Attachment, AttachmentStore
from repro.storage.document_store import DocumentStore, StoredObject
from repro.storage.index import AttributeIndex
from repro.storage.plan import CompiledQuery
from repro.xmlkit.dom import Element


@dataclass
class PublishResult:
    """What came out of publishing one object locally."""

    stored: StoredObject
    indexed_fields: int
    attachments: list[Attachment] = field(default_factory=list)

    @property
    def resource_id(self) -> str:
        return self.stored.resource_id


class LocalRepository:
    """Store, index and attachments of one peer."""

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self.documents = DocumentStore()
        self.index = AttributeIndex()
        self.attachments = AttachmentStore()

    # ------------------------------------------------------------------
    def publish(
        self,
        community_id: str,
        document: Element,
        metadata: dict[str, list[str]],
        *,
        title: str = "",
        attachment_uris: Optional[list[str]] = None,
    ) -> PublishResult:
        """Store ``document``, index ``metadata`` and register attachments.

        ``metadata`` holds only the searchable field values — the caller
        (the servent) applies the community's index filter before calling
        this, which is exactly the split the paper describes.
        """
        stored = self.documents.put(
            community_id,
            document,
            title=title,
            publisher=self.owner,
            metadata=metadata,
        )
        indexed = self.index.add(community_id, stored.resource_id, metadata)
        created: list[Attachment] = []
        for uri in attachment_uris or []:
            if not uri.strip():
                continue
            attachment = Attachment.synthesize(uri)
            self.attachments.put(attachment)
            created.append(attachment)
        return PublishResult(stored=stored, indexed_fields=indexed, attachments=created)

    # ------------------------------------------------------------------
    def search(self, plan: CompiledQuery) -> list[StoredObject]:
        """Evaluate a compiled query against the local index; matches
        come back in resource-id order.

        An empty query returns every object of the community (browsing);
        the returned list is always a fresh copy, never an alias of the
        store's internals.  A repository holding nothing in the plan's
        community answers ``[]`` without evaluating the plan: most peers
        a flood reaches store nothing it asks about.
        """
        if not self.documents.holds(plan.community_id):
            return []
        if plan.is_empty:
            return self.documents.objects_in(plan.community_id)
        return [self.documents.get(resource_id)
                for resource_id in sorted(plan.evaluate(self.index))]

    def retrieve(self, resource_id: str) -> StoredObject:
        """Return the full stored object (the download path)."""
        return self.documents.get(resource_id)

    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, int]:
        """Counters used by the experiment harness."""
        return {
            "objects": len(self.documents),
            "communities": len(self.documents.communities()),
            "index_entries": self.index.entry_count(),
            "index_bytes": self.index.size_bytes(),
            "document_bytes": self.documents.total_bytes(),
            "attachments": len(self.attachments),
            "attachment_bytes": self.attachments.total_bytes(),
        }
