"""Error types for the storage substrate."""

from __future__ import annotations


class StorageError(Exception):
    """Base class for storage-layer failures."""


class ObjectNotFoundError(StorageError):
    """Raised when a resource id does not exist in the store."""


class QueryError(StorageError):
    """Raised for malformed structured queries."""
