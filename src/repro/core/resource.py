"""Shared resources: the XML objects exchanged between peers.

"The shared object will always be an XML object described by the
community schema.  It may or may not have links to network accessible
files that are flagged as attachments" (paper §IV-C.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.schema.model import Schema
from repro.storage.document_store import resource_id_for
from repro.xmlkit.dom import Element
from repro.xmlkit.parser import parse as parse_xml
from repro.xmlkit.serializer import pretty, serialize


@dataclass
class Resource:
    """One shared object: an XML document plus its community context."""

    community_id: str
    document: Element
    title: str = ""
    attachments: tuple[str, ...] = ()
    provider_id: str = ""
    # The id the publish of this object computed (see ``mark_published``).
    _published_id: str = field(default="", init=False, repr=False, compare=False)

    @property
    def resource_id(self) -> str:
        """The content-derived identity of this object.

        Before publish it is computed from the current ``document``.
        From publish on it is the id the object was stored under, fixed
        then: the store keeps its own copy of the document, so a later
        edit of ``document`` changes neither what was published nor
        this id.  Do not mutate a published object's document; build a
        new :class:`Resource` for a new object.
        """
        return self._published_id or resource_id_for(self.community_id, self.document)

    def mark_published(self, resource_id: str) -> None:
        """Fix :attr:`resource_id` to the id its publish computed, so
        reading it costs no second canonicalise + hash of the document."""
        self._published_id = resource_id

    @classmethod
    def from_xml_text(cls, community_id: str, text: str, **kwargs) -> "Resource":
        """Parse ``text`` into a resource of ``community_id``."""
        document = parse_xml(text, check_namespaces=False, keep_whitespace_text=False)
        return cls(community_id=community_id, document=document.root, **kwargs)

    # ------------------------------------------------------------------
    def metadata(self, schema: Schema, *, searchable_only: bool = True) -> dict[str, list[str]]:
        """Extract field values (path → values) according to ``schema``.

        With ``searchable_only`` (the default) only fields the schema
        author marked searchable are extracted — this is the index
        filter of the paper's case study.  Attachment URIs are always
        included under the reserved ``__attachments__`` key so the
        download path can find them.
        """
        fields = schema.searchable_fields() if searchable_only else schema.fields()
        values: dict[str, list[str]] = {}
        for info in fields:
            found = self._values_at(info.path)
            if found:
                values[info.path] = found
        attachment_uris = list(self.attachments)
        for info in schema.attachment_fields():
            attachment_uris.extend(self._values_at(info.path))
        if attachment_uris:
            values["__attachments__"] = sorted(set(uri for uri in attachment_uris if uri.strip()))
        return values

    def display_title(self, schema: Optional[Schema] = None) -> str:
        """A human-readable title: explicit title, else the first field value."""
        if self.title:
            return self.title
        if schema is not None:
            for info in schema.fields():
                values = self._values_at(info.path)
                if values and values[0]:
                    return values[0]
        text = self.document.text_content().strip()
        return text[:48] if text else self.resource_id

    def _values_at(self, path: str) -> list[str]:
        nodes = [self.document]
        for part in path.split("/"):
            found: list[Element] = []
            for node in nodes:
                found.extend(node.find_all(part))
            nodes = found
        return [node.text_content().strip() for node in nodes if node.text_content().strip()]

    # ------------------------------------------------------------------
    def to_xml_text(self, *, pretty_print: bool = False) -> str:
        if pretty_print:
            return pretty(self.document, xml_declaration=False)
        return serialize(self.document, xml_declaration=False)
