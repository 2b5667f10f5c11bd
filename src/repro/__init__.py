"""U-P2P reproduction package.

This package reproduces the system described in *U-P2P: A Peer-to-Peer
System for Description and Discovery of Resource-Sharing Communities*
(Mukherjee, Esfandiari, Arthorne — ICDCS 2002).

Sub-packages
------------
``repro.xmlkit``
    XML substrate: a DOM, a parser driving the standard library's expat,
    a serializer and a minimal XPath engine.
``repro.schema``
    XML Schema subset: object model, XSD parser, instance validator,
    built-in datatypes and a programmatic schema builder.
``repro.xslt``
    XSLT subset: stylesheet parser and transformation engine with HTML
    output, used to generate the Create / Search / View functions.
``repro.storage``
    Local XML object store with an inverted attribute index and a
    CMIP-like structured query language (the Magenta substitute).
``repro.network``
    Discrete-event peer-to-peer network simulator with centralized
    (Napster-style), flooding (Gnutella-style) and super-peer
    (FastTrack-style) protocol adapters.
``repro.core``
    The U-P2P contribution itself: resources, communities, the root
    community bootstrap, the servent with its Create / Search / View
    functions and the generated application facade.
``repro.communities``
    Bundled example communities (MP3, molecules, species, genes, design
    patterns) and synthetic corpus generators.
``repro.workloads``
    Workload generators used by the benchmark harness.

The most frequently used classes are re-exported lazily at the package
root (``repro.Servent``, ``repro.Community`` …) so that importing a leaf
substrate does not drag in the whole system.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

# name -> (module, attribute) for lazy re-export.
_EXPORTS = {
    "Servent": ("repro.core.servent", "Servent"),
    "Community": ("repro.core.community", "Community"),
    "CommunityDescriptor": ("repro.core.community", "CommunityDescriptor"),
    "Resource": ("repro.core.resource", "Resource"),
    "Application": ("repro.core.application", "Application"),
    "PeerNetwork": ("repro.network.base", "PeerNetwork"),
    "NetworkSimulator": ("repro.network.simulator", "NetworkSimulator"),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str) -> Any:
    """Lazily import the public façade classes on first access."""
    if name in _EXPORTS:
        module_name, attribute = _EXPORTS[name]
        module = importlib.import_module(module_name)
        value = getattr(module, attribute)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
