"""The per-servent community registry.

Tracks the communities a servent *knows about* (their descriptors were
seen in root-community search results) and the ones it has *joined*
(schema downloaded, searches allowed).  "All users are members of the
global or root community by default" (paper §IV-A), so the registry is
created with the root community already joined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.community import Community, ROOT_COMMUNITY_ID, root_community
from repro.core.errors import NotAMemberError


@dataclass
class CommunityRegistry:
    """Known and joined communities of one servent."""

    joined: dict[str, Community] = field(default_factory=dict)
    known: dict[str, Community] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if ROOT_COMMUNITY_ID not in self.joined:
            bootstrap = root_community()
            self.joined[bootstrap.community_id] = bootstrap
            self.known[bootstrap.community_id] = bootstrap

    # ------------------------------------------------------------------
    @property
    def root(self) -> Community:
        return self.joined[ROOT_COMMUNITY_ID]

    def register(self, community: Community) -> Community:
        """Record a community the servent has learned about."""
        self.known[community.community_id] = community
        return community

    def join(self, community: Community) -> Community:
        """Join a community (requires having its schema — i.e. the object)."""
        self.register(community)
        self.joined[community.community_id] = community
        return community

    # ------------------------------------------------------------------
    def require_joined(self, community_id: str) -> Community:
        """Return a joined community or raise :class:`NotAMemberError`."""
        community = self.joined.get(community_id)
        if community is None:
            known = self.known.get(community_id)
            hint = f" (known but not joined: {known.name!r})" if known else ""
            raise NotAMemberError(
                f"not a member of community {community_id!r}{hint}; join it first"
            )
        return community

    def is_joined(self, community_id: str) -> bool:
        return community_id in self.joined

    def __iter__(self) -> Iterator[Community]:
        return iter(self.joined.values())

    def __len__(self) -> int:
        return len(self.joined)
