"""The U-P2P core: the paper's primary contribution.

This package implements the schema-driven, community-centric layer on
top of the substrates:

* :mod:`repro.core.resource` — shared XML objects and their attachments.
* :mod:`repro.core.community` — community descriptors, the bootstrap
  *community schema* of Fig. 3 and the root ("community-sharing")
  community.
* :mod:`repro.core.stylesheets` — the default Create / Search / View
  stylesheets that operate on any community schema, plus helpers for
  custom per-community stylesheets.
* :mod:`repro.core.forms` — the Search form's model: structured
  queries from filled-in search forms.
* :mod:`repro.core.registry` — the per-servent registry of known and
  joined communities.
* :mod:`repro.core.servent` — the servent: create, search, view,
  download, community creation, discovery and joining.
* :mod:`repro.core.application` — the generated application façade for
  a single community.
"""

from repro.core.application import Application
from repro.core.community import Community, CommunityDescriptor, root_community
from repro.core.errors import CommunityError, NotAMemberError, UP2PError
from repro.core.forms import FormField, SearchForm
from repro.core.registry import CommunityRegistry
from repro.core.resource import Resource
from repro.core.servent import Servent

__all__ = [
    "Servent",
    "Application",
    "Community",
    "CommunityDescriptor",
    "root_community",
    "Resource",
    "CommunityRegistry",
    "SearchForm",
    "FormField",
    "UP2PError",
    "CommunityError",
    "NotAMemberError",
]
