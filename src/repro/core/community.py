"""Communities, the community schema of Fig. 3 and the root community.

The central idea of the paper is the metaclass analogy:

    *metaclass is to a_class is to an_object* what
    *community is to mp3-community is to mp3*.

A community is described by an XML object conforming to the bootstrap
**community schema** (Fig. 3 of the paper, reproduced verbatim below).
Those community objects are shared inside the **root community** — the
"Community-sharing community" — so discovering a community is just
searching for an object, and joining one means downloading its schema.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.core.errors import CommunityError
from repro.core.resource import Resource
from repro.schema.model import Schema
from repro.schema.parser import parse_schema_text
from repro.schema.validator import validate
from repro.xmlkit.dom import Element
from repro.xmlkit.parser import parse as parse_xml
from repro.xmlkit.serializer import serialize

#: The identifier of the root ("community-sharing") community every peer
#: belongs to by default.
ROOT_COMMUNITY_ID = "up2p-root"

#: Protocols enumerated by the community schema (Fig. 3).
KNOWN_PROTOCOLS = ("", "Napster", "Gnutella", "FastTrack")

#: The XML Schema for resource-sharing communities, verbatim from Fig. 3
#: of the paper (whitespace normalized).
COMMUNITY_SCHEMA_XSD = """<?xml version="1.0"?>
<schema xmlns="http://www.w3.org/2001/XMLSchema">
 <element name="community">
  <complexType>
   <sequence>
    <element name="name" type="xsd:string"/>
    <element name="description" type="xsd:string"/>
    <element name="keywords" type="xsd:string"/>
    <element name="category" type="xsd:string"/>
    <element name="security" type="xsd:string"/>
    <element name="protocol" type="protocolTypes"/>
    <element name="schema" type="xsd:anyURI"/>
    <element name="displaystyle" type="xsd:anyURI"/>
    <element name="createstyle" type="xsd:anyURI"/>
    <element name="searchstyle" type="xsd:anyURI"/>
   </sequence>
  </complexType>
 </element>
 <simpleType name="protocolTypes">
  <restriction base="string">
   <enumeration value=""/>
   <enumeration value="Napster"/>
   <enumeration value="Gnutella"/>
   <enumeration value="FastTrack"/>
  </restriction>
 </simpleType>
</schema>
"""


@dataclass(frozen=True)
class CommunityDescriptor:
    """The attributes of a community, one per element of the Fig. 3 schema."""

    name: str
    description: str = ""
    keywords: str = ""
    category: str = ""
    security: str = "none"
    protocol: str = ""
    schema_uri: str = ""
    displaystyle: str = ""
    createstyle: str = ""
    searchstyle: str = ""

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise CommunityError("a community needs a non-empty name")
        if self.protocol not in KNOWN_PROTOCOLS:
            raise CommunityError(
                f"protocol {self.protocol!r} is not one of {KNOWN_PROTOCOLS}"
            )

    # ------------------------------------------------------------------
    def to_xml(self) -> Element:
        """The community object: an instance of the Fig. 3 schema."""
        root = Element("community")
        root.make_child("name", text=self.name)
        root.make_child("description", text=self.description)
        root.make_child("keywords", text=self.keywords)
        root.make_child("category", text=self.category)
        root.make_child("security", text=self.security)
        root.make_child("protocol", text=self.protocol)
        root.make_child("schema", text=self.schema_uri)
        root.make_child("displaystyle", text=self.displaystyle)
        root.make_child("createstyle", text=self.createstyle)
        root.make_child("searchstyle", text=self.searchstyle)
        return root

    def to_xml_text(self) -> str:
        return serialize(self.to_xml(), xml_declaration=False)

    @classmethod
    def from_xml(cls, node: Element) -> "CommunityDescriptor":
        if node.local_name != "community":
            raise CommunityError(f"expected a <community> object, found <{node.local_name}>")
        return cls(
            name=node.child_text("name").strip(),
            description=node.child_text("description").strip(),
            keywords=node.child_text("keywords").strip(),
            category=node.child_text("category").strip(),
            security=node.child_text("security").strip() or "none",
            protocol=node.child_text("protocol").strip(),
            schema_uri=node.child_text("schema").strip(),
            displaystyle=node.child_text("displaystyle").strip(),
            createstyle=node.child_text("createstyle").strip(),
            searchstyle=node.child_text("searchstyle").strip(),
        )

    @classmethod
    def from_xml_text(cls, text: str) -> "CommunityDescriptor":
        return cls.from_xml(parse_xml(text, check_namespaces=False).root)


class Community:
    """A resource-sharing community: descriptor + schema + stylesheets."""

    def __init__(
        self,
        descriptor: CommunityDescriptor,
        schema_xsd: str,
        *,
        community_id: Optional[str] = None,
        display_stylesheet: str = "",
        create_stylesheet: str = "",
        search_stylesheet: str = "",
        index_filter_fields: Optional[tuple[str, ...]] = None,
    ) -> None:
        self.descriptor = descriptor
        self.schema_xsd = schema_xsd
        try:
            self.schema: Schema = _shared_schema(schema_xsd)
        except Exception as error:
            raise CommunityError(
                f"community {descriptor.name!r} has an unusable schema: {error}"
            ) from error
        self.community_id = community_id or derive_community_id(descriptor.name, schema_xsd)
        self.display_stylesheet = display_stylesheet
        self.create_stylesheet = create_stylesheet
        self.search_stylesheet = search_stylesheet
        # Optional override of which field paths get indexed (the custom
        # index-filter stylesheet of the design-pattern case study).
        self.index_filter_fields = index_filter_fields

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def root_element_name(self) -> str:
        return self.schema.root_element().name

    def searchable_field_paths(self) -> list[str]:
        """The field paths that feed the index for this community."""
        if self.index_filter_fields is not None:
            return list(self.index_filter_fields)
        return [info.path for info in self.schema.searchable_fields()]

    # ------------------------------------------------------------------
    def validate_object(self, document: Element):
        """Validate a shared object against this community's schema."""
        return validate(self.schema, document)

    def extract_metadata(self, resource: Resource) -> dict[str, list[str]]:
        """Apply the community's index filter to one resource."""
        metadata = resource.metadata(self.schema, searchable_only=True)
        if self.index_filter_fields is None:
            return metadata
        kept = {
            path: values
            for path, values in metadata.items()
            if path in self.index_filter_fields or path == "__attachments__"
        }
        # Fields named by the filter but not marked searchable in the
        # schema are extracted too: the filter stylesheet wins.
        full = resource.metadata(self.schema, searchable_only=False)
        for path in self.index_filter_fields:
            if path not in kept and path in full:
                kept[path] = full[path]
        return kept

    # ------------------------------------------------------------------
    # The community *as a shared resource* (the metaclass move)
    # ------------------------------------------------------------------
    def to_resource(self) -> Resource:
        """Wrap this community as an object of the root community."""
        return Resource(
            community_id=ROOT_COMMUNITY_ID,
            document=self.descriptor.to_xml(),
            title=self.descriptor.name,
            attachments=(self.descriptor.schema_uri,) if self.descriptor.schema_uri else (),
        )


    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Community {self.name!r} id={self.community_id} root={self.root_element_name}>"


# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def _shared_schema(schema_xsd: str) -> Schema:
    """The one parsed :class:`Schema` per distinct schema text.

    Every registry's root community and every member joining the same
    community carry the same XSD, so they share one parse.  Sharing is
    safe because ``validate``, ``build_instance``, ``fields()`` and the
    forms only read a schema.  Treat ``Community.schema`` as immutable;
    :func:`parse_schema_text` hands out a private, mutable parse.
    """
    return parse_schema_text(schema_xsd)


def derive_community_id(name: str, schema_xsd: str) -> str:
    """Stable community identifier derived from name and schema."""
    digest = hashlib.sha1()
    digest.update(name.strip().lower().encode("utf-8"))
    digest.update(b"\x00")
    digest.update(" ".join(schema_xsd.split()).encode("utf-8"))
    return f"community-{digest.hexdigest()[:16]}"


def root_community() -> Community:
    """The bootstrap community: the community of communities.

    "U-P2P provides one default schema as a bootstrap: a schema for
    community objects.  Thus through the same facility, users can search
    for objects within a community or search for a community itself."
    """
    descriptor = CommunityDescriptor(
        name="Community",
        description="The community-sharing community: discover and join resource-sharing communities.",
        keywords="community discovery bootstrap root",
        category="meta",
        security="none",
        protocol="",
        schema_uri="up2p:community.xsd",
    )
    return Community(descriptor, COMMUNITY_SCHEMA_XSD, community_id=ROOT_COMMUNITY_ID)


def community_schema() -> Schema:
    """The parsed Fig. 3 schema (used by tests and the bootstrap)."""
    return parse_schema_text(COMMUNITY_SCHEMA_XSD)
