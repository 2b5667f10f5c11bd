"""Default stylesheets: the generative role of XML Schema and XSLT.

"U-P2P provides default stylesheets that operate on any community
schema, but users are encouraged to create their own stylesheets to
customize their community" (paper §IV-A).  The three defaults below are
real XSLT documents executed by :mod:`repro.xslt`:

* the **create** stylesheet transforms a community *schema* into an
  HTML form for entering attribute values,
* the **search** stylesheet transforms the schema into a search form,
* the **view** stylesheet transforms a shared *object* into an HTML
  page showing all its attributes.

Together they are the pipeline of the paper's Fig. 1 / Fig. 2: the
schema instantiates the Create form, Search form, View page and the
indexed attributes.
"""

from __future__ import annotations

from functools import lru_cache

from repro.xmlkit.parser import parse as parse_xml
from repro.xslt.engine import TransformResult, Transformer
from repro.xslt.model import Stylesheet
from repro.xslt.parser import parse_stylesheet_text

#: Transforms a community schema (XSD) into an HTML Create form.
DEFAULT_CREATE_STYLESHEET = """<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="html"/>
  <xsl:template match="/">
    <form class="up2p-create" method="post" action="create">
      <h2>Create a <xsl:value-of select="schema/element/@name"/> object</h2>
      <table class="fields">
        <xsl:for-each select="//element[@type]">
          <tr>
            <td class="label"><xsl:value-of select="@name"/></td>
            <td>
              <input type="text" name="{@name}" class="{@type}"/>
            </td>
          </tr>
        </xsl:for-each>
      </table>
      <input type="submit" value="Share"/>
    </form>
  </xsl:template>
</xsl:stylesheet>
"""

#: Transforms a community schema (XSD) into an HTML Search form.
DEFAULT_SEARCH_STYLESHEET = """<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="html"/>
  <xsl:template match="/">
    <form class="up2p-search" method="get" action="search">
      <h2>Search the <xsl:value-of select="schema/element/@name"/> community</h2>
      <table class="fields">
        <xsl:for-each select="//element[@type]">
          <xsl:choose>
            <xsl:when test="@searchable = 'true'">
              <tr class="searchable">
                <td class="label"><xsl:value-of select="@name"/></td>
                <td><input type="text" name="{@name}"/></td>
              </tr>
            </xsl:when>
            <xsl:otherwise>
              <tr class="not-indexed">
                <td class="label"><xsl:value-of select="@name"/></td>
                <td><input type="text" name="{@name}" disabled="disabled"/></td>
              </tr>
            </xsl:otherwise>
          </xsl:choose>
        </xsl:for-each>
      </table>
      <input type="submit" value="Search"/>
    </form>
  </xsl:template>
</xsl:stylesheet>
"""

#: Transforms a shared object (instance XML) into an HTML View page.
DEFAULT_VIEW_STYLESHEET = """<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="html"/>
  <xsl:template match="/">
    <div class="up2p-view">
      <h2><xsl:value-of select="name(*)"/></h2>
      <table class="attributes">
        <xsl:apply-templates select="*/*"/>
      </table>
    </div>
  </xsl:template>
  <xsl:template match="*">
    <tr>
      <td class="label"><xsl:value-of select="name()"/></td>
      <td>
        <xsl:choose>
          <xsl:when test="count(*) &gt; 0">
            <table class="nested">
              <xsl:apply-templates select="*"/>
            </table>
          </xsl:when>
          <xsl:otherwise>
            <xsl:value-of select="."/>
          </xsl:otherwise>
        </xsl:choose>
      </td>
    </tr>
  </xsl:template>
</xsl:stylesheet>
"""

#: Extracts the searchable attribute values of an object as a flat
#: <indexed> document — the "Indexed Attribute XSL" box of Fig. 1.
DEFAULT_INDEX_FILTER_STYLESHEET = """<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="xml"/>
  <xsl:template match="/">
    <indexed>
      <xsl:for-each select="*/*">
        <xsl:if test="count(*) = 0">
          <attribute name="{name()}"><xsl:value-of select="."/></attribute>
        </xsl:if>
      </xsl:for-each>
    </indexed>
  </xsl:template>
</xsl:stylesheet>
"""


class StylesheetSet:
    """The compiled default (or custom) stylesheets of one community."""

    def __init__(
        self,
        *,
        create: str = DEFAULT_CREATE_STYLESHEET,
        search: str = DEFAULT_SEARCH_STYLESHEET,
        view: str = DEFAULT_VIEW_STYLESHEET,
        index_filter: str = DEFAULT_INDEX_FILTER_STYLESHEET,
    ) -> None:
        self.create_text = create or DEFAULT_CREATE_STYLESHEET
        self.search_text = search or DEFAULT_SEARCH_STYLESHEET
        self.view_text = view or DEFAULT_VIEW_STYLESHEET
        self.index_filter_text = index_filter or DEFAULT_INDEX_FILTER_STYLESHEET
        self._create = _compile(self.create_text)
        self._search = _compile(self.search_text)
        self._view = _compile(self.view_text)
        self._index_filter = _compile(self.index_filter_text)

    # ------------------------------------------------------------------
    def render_create_form(self, schema_xsd: str) -> str:
        """Generate the HTML Create form from a community schema."""
        return self._apply(self._create, schema_xsd).serialize()

    def render_search_form(self, schema_xsd: str) -> str:
        """Generate the HTML Search form from a community schema."""
        return self._apply(self._search, schema_xsd).serialize()

    def render_view(self, object_xml: str) -> str:
        """Render a shared object for viewing."""
        return self._apply(self._view, object_xml).serialize()

    def extract_indexed_attributes(self, object_xml: str) -> dict[str, list[str]]:
        """Run the index-filter stylesheet and return path → values."""
        result = self._apply(self._index_filter, object_xml)
        values: dict[str, list[str]] = {}
        root = result.root
        if root is None:
            return values
        for attribute in root.find_all("attribute"):
            name = attribute.get("name", "")
            if not name:
                continue
            values.setdefault(name, []).append(attribute.text_content().strip())
        return values

    # ------------------------------------------------------------------
    @staticmethod
    def _apply(transformer: Transformer, source_xml: str) -> TransformResult:
        document = parse_xml(source_xml, check_namespaces=False, keep_whitespace_text=False)
        return transformer.transform(document)


@lru_cache(maxsize=64)
def _compile(stylesheet_text: str) -> Transformer:
    """The one compiled transformer per distinct stylesheet text.

    Every peer gets the same default stylesheets, so a population shares
    four transformers instead of parsing four texts per servent.  Sharing
    is safe because a transformer is read-only once built: it holds only
    its :class:`Stylesheet`, and ``transform`` builds fresh result
    elements and re-parents the *source* root, never a stylesheet node.
    Treat what this returns as immutable; :func:`compile_stylesheet`
    hands out a private, mutable parse.
    """
    return Transformer(parse_stylesheet_text(stylesheet_text))


def compile_stylesheet(stylesheet_text: str) -> Stylesheet:
    """Parse a stylesheet's text (exported for custom community styles)."""
    return parse_stylesheet_text(stylesheet_text)
