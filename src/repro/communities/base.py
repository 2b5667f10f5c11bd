"""Shared plumbing for the bundled community definitions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.application import Application
from repro.core.community import Community
from repro.core.servent import Servent
from repro.core.stylesheets import StylesheetSet


@dataclass
class CommunityDefinition:
    """Everything needed to instantiate one bundled community.

    ``corpus`` is a generator of form-value dictionaries; feeding them to
    the generated application's ``publish`` produces a realistic shared
    collection for examples and experiments.
    """

    name: str
    schema_xsd: str
    description: str = ""
    keywords: str = ""
    category: str = ""
    protocol: str = ""
    stylesheets: Optional[StylesheetSet] = None
    index_filter_fields: Optional[tuple[str, ...]] = None
    corpus: Optional[Callable[[int, int], list[dict[str, object]]]] = None
    attachments_field: str = ""

    def create_on(self, servent: Servent) -> Community:
        """Create (and join) this community through ``servent``."""
        return servent.create_community(
            self.name,
            self.schema_xsd,
            description=self.description,
            keywords=self.keywords,
            category=self.category,
            protocol=self.protocol,
            stylesheets=self.stylesheets,
            index_filter_fields=self.index_filter_fields,
        )

    def application_on(self, servent: Servent) -> Application:
        """Generate the single-community application on ``servent``."""
        return Application(servent, self.create_on(servent))

    def sample_corpus(self, size: int, *, seed: int = 0) -> list[dict[str, object]]:
        """``size`` synthetic objects as form-value dictionaries."""
        if self.corpus is None:
            return []
        return self.corpus(size, seed)
