"""Network-accessible files (schemas and stylesheets) by URI.

The community schema of Fig. 3 points at its schema and stylesheets by
URI (``xsd:anyURI`` fields): in the original system these were files
served over HTTP.  The reproduction keeps a shared :class:`FileSpace`
per network — a URI → text mapping standing in for "the web" — so that
joining a community can fetch the schema exactly the way the paper
describes (download the community object, then fetch its schema by
URI).
"""

from __future__ import annotations

from typing import Optional


class FileSpace:
    """A URI-addressed space of text documents (schemas, stylesheets)."""

    def __init__(self) -> None:
        self._files: dict[str, str] = {}
        self.fetches = 0

    def put(self, uri: str, text: str) -> str:
        """Publish ``text`` under ``uri`` and return the URI."""
        if not uri.strip():
            raise ValueError("a file needs a non-empty URI")
        self._files[uri] = text
        return uri

    def get(self, uri: str) -> Optional[str]:
        """Fetch a document (None when the URI is dangling)."""
        self.fetches += 1
        return self._files.get(uri)

    def __len__(self) -> int:
        return len(self._files)


def filespace_for(network) -> FileSpace:
    """The shared file space of a network (created on first use)."""
    space = getattr(network, "_up2p_filespace", None)
    if space is None:
        space = FileSpace()
        network._up2p_filespace = space
    return space
