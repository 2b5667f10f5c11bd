"""The generated application façade.

"U-P2P is used to generate a customized application from a description
of the attributes of the object without additional programming"
(paper §I).  :class:`Application` is that generated application: given
a servent and one community, it exposes publish / search / view /
download for that community's object type and nothing else — the same
surface a Napster-for-X clone would offer, derived entirely from the
community schema.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.community import Community
from repro.core.forms import FormValues
from repro.core.resource import Resource
from repro.core.servent import DownloadedObject, Servent
from repro.network.base import SearchResponse, SearchResult
from repro.storage.query import Query


class Application:
    """A single-community file-sharing application generated from a schema."""

    def __init__(self, servent: Servent, community: Community) -> None:
        self.servent = servent
        self.community = community
        if not servent.registry.is_joined(community.community_id):
            servent.join_community(community)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, servent: Servent, name: str, schema_xsd: str, **community_options) -> "Application":
        """Generate the application by creating (and joining) the community."""
        community = servent.create_community(name, schema_xsd, **community_options)
        return cls(servent, community)

    # ------------------------------------------------------------------
    # The generated functions
    # ------------------------------------------------------------------
    @property
    def object_name(self) -> str:
        """The kind of object this application shares (``mp3``, ``pattern`` …)."""
        return self.community.root_element_name

    def create_page_html(self) -> str:
        """The Create screen, generated from the schema by XSLT."""
        return self.servent.render_create_form(self.community.community_id)

    def search_page_html(self) -> str:
        """The Search screen, generated from the schema by XSLT."""
        return self.servent.render_search_form(self.community.community_id)

    def publish(self, values: FormValues, *, attachments: Sequence[str] = ()) -> Resource:
        """Create and share one object."""
        return self.servent.create_object(
            self.community.community_id, values, attachments=attachments
        )

    def publish_xml(self, xml_text: str, *, attachments: Sequence[str] = ()) -> Resource:
        """Share an object already written as XML."""
        resource = Resource.from_xml_text(
            self.community.community_id, xml_text, attachments=tuple(attachments)
        )
        self.servent.publish_resource(resource)
        return resource

    def search(self, criteria: Union[str, FormValues, Query], *, max_results: int = 100) -> SearchResponse:
        """Search the community."""
        return self.servent.search(self.community.community_id, criteria, max_results=max_results)

    def browse(self, *, max_results: int = 100) -> SearchResponse:
        return self.servent.browse(self.community.community_id, max_results=max_results)

    def download(self, result: SearchResult) -> DownloadedObject:
        return self.servent.download(result)

    def view(self, resource_id: str) -> str:
        """Render one locally available object as HTML."""
        return self.servent.view(resource_id)

    def view_resource(self, resource: Resource) -> str:
        """Render a resource object directly (without requiring local storage)."""
        styles = self.servent.styles_for(self.community.community_id)
        return styles.render_view(resource.to_xml_text())

    # ------------------------------------------------------------------
    def shared_objects(self):
        """Objects this peer shares in the community."""
        return self.servent.local_objects(self.community.community_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Application community={self.community.name!r} object={self.object_name!r}>"
