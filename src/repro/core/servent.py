"""The U-P2P servent: Create, Search, View, download and community
discovery for one peer.

The servent is the per-user application of the paper's §IV: it owns a
peer in the network, a community registry and the stylesheet pipeline,
and exposes the three "important functions" (Create, Search, View) plus
the community operations that fall out of the metaclass move (create a
community, search for communities, join one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.community import (
    Community,
    CommunityDescriptor,
    ROOT_COMMUNITY_ID,
    derive_community_id,
)
from repro.core.errors import CommunityError, InvalidObjectError
from repro.core.filespace import FileSpace, filespace_for
from repro.core.forms import FormValues, SearchForm
from repro.core.registry import CommunityRegistry
from repro.core.resource import Resource
from repro.core.stylesheets import StylesheetSet
from repro.network.base import PeerNetwork, RetrieveResult, SearchResponse, SearchResult
from repro.network.peers import Peer
from repro.schema.instance import build_instance
from repro.storage.query import Query
from repro.storage.repository import PublishResult


@dataclass
class DownloadedObject:
    """What a download produced: the resource plus its transfer record."""

    resource: Resource
    retrieve: RetrieveResult

    @property
    def resource_id(self) -> str:
        return self.resource.resource_id


class Servent:
    """One user's U-P2P node."""

    def __init__(
        self,
        peer_id: str,
        network: PeerNetwork,
        *,
        stylesheets: Optional[StylesheetSet] = None,
    ) -> None:
        self.network = network
        self.peer: Peer = network.peers.get(peer_id) or network.create_peer(peer_id)
        self.registry = CommunityRegistry()
        self.stylesheets = stylesheets or StylesheetSet()
        self.filespace: FileSpace = filespace_for(network)
        self.peer.join_community(ROOT_COMMUNITY_ID)
        # Per-community custom stylesheet sets (case-study customization).
        self._community_styles: dict[str, StylesheetSet] = {}

    # ------------------------------------------------------------------
    @property
    def peer_id(self) -> str:
        return self.peer.peer_id

    @property
    def repository(self):
        return self.peer.repository

    def styles_for(self, community_id: str) -> StylesheetSet:
        return self._community_styles.get(community_id, self.stylesheets)

    def set_styles(self, community_id: str, styles: StylesheetSet) -> None:
        """Install custom stylesheets for one community."""
        self._community_styles[community_id] = styles

    # ------------------------------------------------------------------
    # Create (paper §IV-C.1)
    # ------------------------------------------------------------------
    def render_create_form(self, community_id: str) -> str:
        """The HTML Create form generated from the schema by XSLT."""
        community = self.registry.require_joined(community_id)
        return self.styles_for(community_id).render_create_form(community.schema_xsd)

    def create_object(
        self,
        community_id: str,
        values: FormValues,
        *,
        attachments: Sequence[str] = (),
    ) -> Resource:
        """Create and share a new object in a joined community.

        The object is built from the submitted values and validated
        once, by :meth:`publish_resource`; an invalid one raises
        :class:`InvalidObjectError` before anything is stored, indexed
        or announced.
        """
        community = self.registry.require_joined(community_id)
        resource = Resource(
            community_id=community.community_id,
            document=build_instance(community.schema, dict(values)),
            title=_first_value(values) or "",
            attachments=tuple(attachments),
            provider_id=self.peer_id,
        )
        self.publish_resource(resource)
        return resource

    def publish_resource(self, resource: Resource) -> PublishResult:
        """Validate and share an object (built from a form, or e.g.
        parsed from an XML file); the result carries its resource id."""
        community = self.registry.require_joined(resource.community_id)
        report = community.validate_object(resource.document)
        if not report.is_valid:
            raise InvalidObjectError(
                f"object rejected by community {community.name!r}: {report.summary()}"
            )
        metadata = community.extract_metadata(resource)
        title = resource.display_title(community.schema)
        result = self.repository.publish(
            community.community_id,
            resource.document,
            metadata,
            title=title,
            attachment_uris=list(metadata.get("__attachments__", [])),
        )
        resource.mark_published(result.resource_id)
        self.network.publish(
            self.peer_id,
            community.community_id,
            result.resource_id,
            metadata,
            title=title,
        )
        return result

    # ------------------------------------------------------------------
    # Search (paper §IV-C.2)
    # ------------------------------------------------------------------
    def render_search_form(self, community_id: str) -> str:
        community = self.registry.require_joined(community_id)
        return self.styles_for(community_id).render_search_form(community.schema_xsd)

    def search(
        self,
        community_id: str,
        criteria: Union[str, FormValues, Query],
        *,
        max_results: int = 100,
    ) -> SearchResponse:
        """Search a joined community.

        ``criteria`` may be a free-text keyword string, a mapping of
        field path → value (a filled-in search form) or an already
        constructed :class:`~repro.storage.query.Query`.
        """
        community = self.registry.require_joined(community_id)
        query = self._as_query(community, criteria)
        return self.network.search(self.peer_id, query, max_results=max_results)

    def browse(self, community_id: str, *, max_results: int = 100) -> SearchResponse:
        """List everything shared in a community (an empty query)."""
        community = self.registry.require_joined(community_id)
        return self.network.search(
            self.peer_id, Query(community_id=community.community_id), max_results=max_results
        )

    def _as_query(self, community: Community, criteria: Union[str, FormValues, Query]) -> Query:
        if isinstance(criteria, Query):
            return criteria
        form = SearchForm.from_schema(community.schema)
        if isinstance(criteria, str):
            return form.keyword_query(community.community_id, criteria)
        return form.submit(community.community_id, criteria)

    # ------------------------------------------------------------------
    # Download (paper §IV-C.2, second half)
    # ------------------------------------------------------------------
    def download(self, result: SearchResult) -> DownloadedObject:
        """Retrieve a search result's full object (and attachments)."""
        retrieve = self.network.retrieve(self.peer_id, result.provider_id, result.resource_id)
        resource = Resource(
            community_id=retrieve.stored.community_id,
            document=retrieve.stored.document,
            title=retrieve.stored.title,
            provider_id=result.provider_id,
        )
        return DownloadedObject(resource=resource, retrieve=retrieve)

    # ------------------------------------------------------------------
    # View (paper §IV-C.3)
    # ------------------------------------------------------------------
    def view(self, resource_id: str) -> str:
        """Render a locally stored or downloaded object as HTML."""
        stored = self.repository.retrieve(resource_id)
        styles = self.styles_for(stored.community_id)
        return styles.render_view(stored.to_xml_text())

    def local_objects(self, community_id: Optional[str] = None):
        """The objects this servent shares (optionally for one community)."""
        if community_id is None:
            return list(self.repository.documents)
        return self.repository.documents.objects_in(community_id)

    # ------------------------------------------------------------------
    # Community operations (the metaclass move, paper §I and §IV-A)
    # ------------------------------------------------------------------
    def create_community(
        self,
        descriptor_or_name: Union[str, CommunityDescriptor],
        schema_xsd: str,
        *,
        description: str = "",
        keywords: str = "",
        category: str = "",
        protocol: str = "",
        stylesheets: Optional[StylesheetSet] = None,
        index_filter_fields: Optional[Sequence[str]] = None,
    ) -> Community:
        """Create a community, join it and publish it to the root community.

        The schema (and any custom stylesheets) are placed in the shared
        file space under ``up2p:`` URIs so that other peers can join by
        downloading the community object and fetching its schema.
        """
        from dataclasses import replace as _replace

        if isinstance(descriptor_or_name, CommunityDescriptor):
            descriptor = descriptor_or_name
        else:
            descriptor = CommunityDescriptor(
                name=descriptor_or_name,
                description=description,
                keywords=keywords,
                category=category,
                protocol=protocol,
            )
        community_id = derive_community_id(descriptor.name, schema_xsd)
        if not descriptor.schema_uri:
            descriptor = _replace(descriptor, schema_uri=f"up2p:{community_id}/schema.xsd")
        # Custom stylesheets are published by URI so joining peers can fetch
        # them along with the schema (the displaystyle/createstyle/searchstyle
        # attributes of the Fig. 3 community object).
        if stylesheets is not None:
            if not descriptor.displaystyle:
                descriptor = _replace(descriptor, displaystyle=f"up2p:{community_id}/view.xsl")
            if not descriptor.createstyle:
                descriptor = _replace(descriptor, createstyle=f"up2p:{community_id}/create.xsl")
            if not descriptor.searchstyle:
                descriptor = _replace(descriptor, searchstyle=f"up2p:{community_id}/search.xsl")
        community = Community(
            descriptor,
            schema_xsd,
            index_filter_fields=tuple(index_filter_fields) if index_filter_fields else None,
        )
        self.filespace.put(descriptor.schema_uri, schema_xsd)
        if stylesheets is not None:
            self.set_styles(community.community_id, stylesheets)
            if descriptor.displaystyle:
                self.filespace.put(descriptor.displaystyle, stylesheets.view_text)
            if descriptor.createstyle:
                self.filespace.put(descriptor.createstyle, stylesheets.create_text)
            if descriptor.searchstyle:
                self.filespace.put(descriptor.searchstyle, stylesheets.search_text)
        self.registry.join(community)
        self.peer.join_community(community.community_id)
        # The metaclass move: the community is itself an object shared in
        # the root community.
        self.publish_resource(community.to_resource())
        return community

    def search_communities(self, criteria: Union[str, FormValues] = "", *,
                           max_results: int = 100) -> SearchResponse:
        """Discover communities by searching the root community."""
        if isinstance(criteria, str) and not criteria.strip():
            return self.browse(ROOT_COMMUNITY_ID, max_results=max_results)
        return self.search(ROOT_COMMUNITY_ID, criteria, max_results=max_results)

    def join_community(self, result_or_community: Union[SearchResult, Community]) -> Community:
        """Join a community found through discovery.

        Given a root-community search result, the community object is
        downloaded from its provider, its schema fetched by URI, and the
        community added to the registry — "a user must join a community
        by downloading its schema in order to conduct searches in that
        community."
        """
        if isinstance(result_or_community, Community):
            community = result_or_community
            self.registry.join(community)
            self.peer.join_community(community.community_id)
            return community
        result = result_or_community
        if result.community_id != ROOT_COMMUNITY_ID:
            raise CommunityError("join expects a search result from the root community")
        downloaded = self.download(result)
        descriptor = CommunityDescriptor.from_xml(downloaded.resource.document)
        schema_xsd = self.filespace.get(descriptor.schema_uri) if descriptor.schema_uri else None
        if not schema_xsd:
            raise CommunityError(
                f"cannot join {descriptor.name!r}: schema {descriptor.schema_uri!r} is unreachable"
            )
        community = Community(descriptor, schema_xsd)
        custom_view = self.filespace.get(descriptor.displaystyle) if descriptor.displaystyle else None
        custom_create = self.filespace.get(descriptor.createstyle) if descriptor.createstyle else None
        custom_search = self.filespace.get(descriptor.searchstyle) if descriptor.searchstyle else None
        if custom_view or custom_create or custom_search:
            self.set_styles(community.community_id, StylesheetSet(
                create=custom_create or "",
                search=custom_search or "",
                view=custom_view or "",
            ))
        self.registry.join(community)
        self.peer.join_community(community.community_id)
        return community

    def joined_communities(self) -> list[Community]:
        return list(self.registry)

    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, int]:
        stats = self.repository.statistics()
        stats["joined_communities"] = len(self.registry)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Servent {self.peer_id} communities={len(self.registry)} objects={len(self.repository.documents)}>"


def _first_value(values: FormValues) -> str:
    for value in values.values():
        if isinstance(value, str) and value.strip():
            return value.strip()
        if not isinstance(value, str):
            for item in value:
                if item.strip():
                    return item.strip()
    return ""
