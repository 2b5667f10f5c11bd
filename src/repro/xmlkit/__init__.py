"""XML substrate.

The original U-P2P relied on Xerces for XML parsing; this package parses
with the standard library's expat and supplies the rest.  It provides:

* :mod:`repro.xmlkit.dom` — a small element tree (:class:`Element`,
  :class:`Document`) with namespace-aware names.
* :mod:`repro.xmlkit.parser` — builds that tree from expat's events,
  with XML 1.0 well-formedness from expat and a namespace-prefix check.
* :mod:`repro.xmlkit.serializer` — canonical and pretty serialization.
* :mod:`repro.xmlkit.xpath` — the XPath subset used by the XSLT engine
  and by searchable-field selection.
"""

from repro.xmlkit.dom import Document, Element, QName
from repro.xmlkit.errors import XMLError, XMLParseError, XPathError
from repro.xmlkit.parser import parse, parse_file
from repro.xmlkit.serializer import serialize, pretty
from repro.xmlkit.xpath import XPath, xpath_find, xpath_find_all

__all__ = [
    "Document",
    "Element",
    "QName",
    "XMLError",
    "XMLParseError",
    "XPathError",
    "parse",
    "parse_file",
    "serialize",
    "pretty",
    "XPath",
    "xpath_find",
    "xpath_find_all",
]
