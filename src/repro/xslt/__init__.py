"""XSLT substrate (the transforming half of the Xalan substitute).

In U-P2P, XSLT stylesheets applied to a community schema *generate the
application*: the Create form, the Search form and the View page
(paper Fig. 1 and Fig. 2).  This package implements the XSLT subset
those stylesheets need:

* template rules with match patterns and priorities,
* ``apply-templates``, ``call-template``, ``for-each``,
* ``value-of``, ``text``, ``element``, ``attribute``, ``copy``,
  ``copy-of``,
* ``if`` and ``choose``/``when``/``otherwise``,
* ``variable`` and ``with-param``/``param`` (string values),
* ``sort`` (lexicographic) and the ``html``/``xml``/``text`` output
  methods.
"""

from repro.xslt.engine import Transformer
from repro.xslt.errors import XSLTError
from repro.xslt.html import render_html
from repro.xslt.model import Stylesheet, TemplateRule
from repro.xslt.parser import parse_stylesheet, parse_stylesheet_text

__all__ = [
    "Transformer",
    "Stylesheet",
    "TemplateRule",
    "XSLTError",
    "parse_stylesheet",
    "parse_stylesheet_text",
    "render_html",
]
