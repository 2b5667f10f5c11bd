"""Differential tests against an independent reading: stdlib ElementTree.

Round trips through our own parser cannot catch a parser and serializer
that agree on a wrong reading, so each test here checks one xmlkit piece
against ``xml.etree.ElementTree``: its own tree construction, namespace-aware
names and entity handling, and its own path evaluator.

* parser: generated documents (references, CDATA, comments, PIs, raw
  whitespace and CR/LF, illegal characters, namespace prefixes) must be
  accepted or rejected alike and, when accepted, give equal trees;
* serializer: ``ElementTree.fromstring(serialize(tree))`` reproduces
  generated trees whose text and attributes hold CR, LF and tab;
* XPath: ``xpath_find_all`` agrees with ``Element.findall`` on the
  subset both implement (child steps, ``//``, ``*``, ``[@a]``,
  ``[@a='v']``, ``[n]``, ``[last()]``).  ElementTree counts ``[n]``
  among same-tag siblings and ignores earlier predicates, so ``[n]`` is
  drawn only on a named step, as its first predicate.
"""

import xml.etree.ElementTree as ET

from hypothesis import given, settings, strategies as st

from repro.xmlkit.dom import Element
from repro.xmlkit.errors import XMLParseError
from repro.xmlkit.parser import parse
from repro.xmlkit.serializer import serialize
from repro.xmlkit.xpath import xpath_find_all


def oracle(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
# Half the documents are drawn from well-formed pieces only, so that
# accepted trees are plentiful and deep; the other half may draw any
# piece, and most of those are rejected by both parsers.
GOOD_TEXT = [
    "x", "hello world", " ", "\n", "\t", "\r\n", "\r", "é€",
    "&lt;", "&gt;", "&amp;", "&quot;", "&apos;", "&#65;", "&#x42;", "&#10;", "&#13;",
    "<![CDATA[ <x> & ]]>", "<![CDATA[\r\n]]>", "<![CDATA[]]>",
    "<!-- note -->", "<?pi some data?>",
]
BAD_TEXT = [
    "&#0;", "&#1;", "&nbsp;", "&", "]]>", "\x01", "\x0b", "<!-- bad -- note -->", "<?xml bad?>",
]
GOOD_ATTRIBUTE = [
    "v", " ", "\n", "\t", "\r\n", "\r", "é", "'", ">", "&amp;", "&lt;", "&#10;", "&#9;", "&#13;",
]
# No undeclared entity here: under an external DTD, ElementTree (like bare
# expat) drops it from an attribute value, where xmlkit refuses it.
BAD_ATTRIBUTE = ["<", '"', "&#0;", "&", "\x01"]
GOOD_TAGS, BAD_TAGS = ["a", "b", "p:a", "p:b"], ["q:c"]  # q is never declared
GOOD_NAMES, BAD_NAMES = ["x", "y", "p:x", "xml:lang"], ["q:y"]
PROLOG = st.lists(st.sampled_from([
    "<!-- head -->", "<?pi head?>", "\n", "<!DOCTYPE a SYSTEM 'a.dtd'>",
]), max_size=3)


@st.composite
def element_texts(draw, clean, depth=0):
    def pick(good, bad):
        return draw(st.sampled_from(good if clean else good + bad))

    tag = pick(GOOD_TAGS, BAD_TAGS)
    head = [tag]
    if depth == 0 and (clean or draw(st.booleans())):
        head.append('xmlns:p="urn:p"')
    names = st.sampled_from(GOOD_NAMES if clean else GOOD_NAMES + BAD_NAMES)
    for name in draw(st.lists(names, max_size=2, unique=clean)):
        value = "".join(pick(GOOD_ATTRIBUTE, BAD_ATTRIBUTE) for _ in range(draw(st.integers(0, 3))))
        head.append(f'{name}="{value}"')
    content = []
    for _ in range(draw(st.integers(0, 4))):
        if depth < 3 and draw(st.booleans()):
            content.append(draw(element_texts(clean, depth + 1)))
        else:
            content.append(pick(GOOD_TEXT, BAD_TEXT))
    if not content and draw(st.booleans()):
        return f"<{' '.join(head)}/>"
    return f"<{' '.join(head)}>{''.join(content)}</{tag}>"


@st.composite
def documents(draw):
    declaration = draw(st.sampled_from(["", '<?xml version="1.0" encoding="UTF-8"?>']))
    prolog = "".join(draw(PROLOG))
    epilog = draw(st.sampled_from(["", "\n", "<!-- tail -->", "\r\n"]))
    return declaration + prolog + draw(element_texts(draw(st.booleans()))) + epilog


def _clark(name, element, *, attribute=False):
    """Our literal (prefixed) name in ElementTree's {uri}local spelling."""
    if ":" not in name:
        return name if attribute else element.qname().clark()
    prefix, local = name.split(":", 1)
    return "{%s}%s" % (element.resolve_prefix(prefix), local)


def assert_same_reading(ours, theirs):
    assert _clark(ours.tag, ours) == theirs.tag
    attributes = {
        _clark(name, ours, attribute=True): value
        for name, value in ours.attributes.items()
        if name != "xmlns" and not name.startswith("xmlns:")
    }
    assert attributes == theirs.attrib
    assert ours.text == (theirs.text or "")
    assert ours.tail == (theirs.tail or "")
    assert len(ours.children) == len(theirs)
    for mine, other in zip(ours.children, theirs, strict=True):
        assert_same_reading(mine, other)


@oracle(200)
@given(documents())
def test_parser_agrees_with_elementtree(text):
    try:
        theirs = ET.fromstring(text)
    except ET.ParseError:
        theirs = None
    try:
        ours = parse(text).root
    except XMLParseError:
        ours = None
    assert (ours is None) == (theirs is None)
    if ours is not None:
        assert_same_reading(ours, theirs)


# ----------------------------------------------------------------------
# Serializer
# ----------------------------------------------------------------------
VALUES = st.text(alphabet=" \t\n\rab<>&\"'é€", max_size=12)


@st.composite
def trees(draw, depth=0):
    element = Element(draw(st.sampled_from(["a", "b", "c"])))
    for name in draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True, max_size=3)):
        element.set(name, draw(VALUES))
    element.text = draw(VALUES)
    if depth < 3:
        for child in draw(st.lists(trees(depth=depth + 1), max_size=3)):
            element.append(child)
            child.tail = draw(VALUES)
    return element


def assert_reproduced(ours, theirs):
    assert (theirs.tag, theirs.attrib) == (ours.tag, ours.attributes)
    # A leaf whose text is whitespace only is written self-closed.
    text = ours.text if ours.children or ours.text.strip() else ""
    assert (theirs.text or "") == text
    assert (theirs.tail or "") == ours.tail
    assert len(theirs) == len(ours.children)
    for mine, other in zip(ours.children, theirs, strict=True):
        assert_reproduced(mine, other)


@oracle(100)
@given(trees())
def test_elementtree_reads_back_what_serialize_writes(tree):
    assert_reproduced(tree, ET.fromstring(serialize(tree)))


# ----------------------------------------------------------------------
# XPath
# ----------------------------------------------------------------------
@st.composite
def xpath_trees(draw, depth=0):
    element = Element(draw(st.sampled_from(["a", "b"])))
    for name in draw(st.lists(st.sampled_from(["x", "y"]), unique=True, max_size=2)):
        element.set(name, draw(st.sampled_from(["1", "2"])))
    if depth < 3:
        # At least two children near the root, so that most paths match.
        children = st.lists(xpath_trees(depth=depth + 1), min_size=2 if depth < 2 else 0, max_size=4)
        for child in draw(children):
            element.append(child)
    return element


FILTERS = ["[@x]", "[@y]", "[@x='1']", "[@y='2']"]


@st.composite
def xpaths(draw):
    steps = []
    for index in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["a", "b", "*"]))
        positional = ["[1]", "[2]", "[last()]"] if name != "*" else []
        first = draw(st.sampled_from(["", *FILTERS, *positional]))
        second = draw(st.sampled_from(["", *FILTERS])) if first else ""
        separator = draw(st.sampled_from(["/", "//"])) if index else ""
        steps.append(separator + name + first + second)
    return draw(st.sampled_from(["", ".//"])) + "".join(steps)


def _positions(root):
    """Map every node (by identity) to its child-index path from ``root``."""
    positions = {}

    def walk(node, path):
        positions[id(node)] = path
        for index, child in enumerate(node):
            walk(child, path + (index,))

    walk(root, ())
    return positions


@oracle(100)
@given(xpath_trees(), xpaths())
def test_xpath_agrees_with_elementtree_findall(tree, path):
    text = serialize(tree)
    ours_root, theirs_root = parse(text).root, ET.fromstring(text)
    ours_at, theirs_at = _positions(ours_root), _positions(theirs_root)
    ours = [ours_at[id(node)] for node in xpath_find_all(ours_root, path)]
    theirs = list(dict.fromkeys(theirs_at[id(node)] for node in theirs_root.findall(path)))
    assert ours == theirs
