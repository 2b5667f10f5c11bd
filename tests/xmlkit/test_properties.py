"""Property-based tests for the XML substrate (hypothesis)."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmlkit.dom import Element
from repro.xmlkit.errors import XMLSerializeError
from repro.xmlkit.escape import escape_attribute, escape_text
from repro.xmlkit.parser import parse
from repro.xmlkit.serializer import canonical, canonical_form, pretty, serialize

# ----------------------------------------------------------------------
# Strategies: random but well-formed element trees.
# ----------------------------------------------------------------------
names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
texts = st.text(
    alphabet=string.ascii_letters + string.digits + " .,;:!?'<>&\"",
    max_size=40,
)
attribute_values = st.text(
    alphabet=string.ascii_letters + string.digits + " &<\"'",
    max_size=20,
)


@st.composite
def elements(draw, depth=0):
    element = Element(draw(names))
    for attr_name in draw(st.lists(names, max_size=3, unique=True)):
        element.set(attr_name, draw(attribute_values))
    element.text = draw(texts)
    if depth < 3:
        for child in draw(st.lists(elements(depth=depth + 1), max_size=3)):
            element.append(child)
            child.tail = draw(texts)
    return element


# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(elements())
def test_serialize_parse_roundtrip_preserves_structure(element):
    """parse(serialize(tree)) is structurally identical to the tree."""
    reparsed = parse(serialize(element)).root
    assert canonical(element) == canonical(reparsed)


@settings(max_examples=60, deadline=None)
@given(elements())
def test_pretty_and_compact_forms_are_equivalent(element):
    """Pretty-printing never changes the canonical content."""
    compact = parse(serialize(element)).root
    pretty_form = parse(pretty(element)).root
    assert canonical(compact) == canonical(pretty_form)


@settings(max_examples=60, deadline=None)
@given(elements())
def test_copy_is_structurally_equal_and_independent(element):
    clone = element.copy()
    assert canonical(clone) == canonical(element)
    clone.set("mutated", "yes")
    assert "mutated" not in element.attributes


@settings(max_examples=60, deadline=None)
@given(elements())
def test_canonical_is_deterministic(element):
    assert canonical(element) == canonical(element)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=string.printable, max_size=60))
def test_arbitrary_text_content_roundtrips(value):
    """Any printable text placed in an element survives a round-trip.

    Two documented normalisations apply: whitespace-only content is
    treated as empty, and characters illegal in XML output are rejected
    up front rather than silently corrupted.
    """
    element = Element("wrapper", text=value)
    try:
        serialized = serialize(element)
    except Exception:
        return
    roundtripped = parse(serialized).root.text
    if value.strip():
        assert roundtripped == value
    else:
        assert roundtripped == ""


# ----------------------------------------------------------------------
# canonical_form: one walk gives the canonical text, the compact size
# and the copy.  Trees here are built, not parsed, so they hold what a
# parser would normalise away: raw CRs, padded and whitespace-only
# text, tails, prefixed names and namespace declarations.
# ----------------------------------------------------------------------
def reference_canonical(element, parts):
    """The canonical writer as it was before the fused walk."""
    parts.append(f"<{element.local_name}")
    attributes = {
        name: value
        for name, value in element.attributes.items()
        if not name.startswith("xmlns")
    }
    for name in sorted(attributes):
        parts.append(f' {name.split(":", 1)[-1]}="{escape_attribute(attributes[name])}"')
    parts.append(">")
    text = element.text.strip()
    if text:
        parts.append(escape_text(text))
    for child in element.children:
        reference_canonical(child, parts)
        tail = child.tail.strip()
        if tail:
            parts.append(escape_text(tail))
    parts.append(f"</{element.local_name}>")


walk_tags = st.builds(
    str.__add__, st.sampled_from(["", "p:", "up2p:"]), st.sampled_from(["a", "item", "x"])
)
WALK_ATTRIBUTE_NAMES = ["id", "b", "p:id", "q:b", "xmlns", "xmlns:p", "xml:lang"]
walk_attribute_names = st.sampled_from(WALK_ATTRIBUTE_NAMES)
# every character escaping treats specially, non-ASCII and astral ones
walk_characters = st.sampled_from(list('ab 9"&<>\n\t\r') + ["é", "中", "\U0001f600"])
walk_attribute_values = st.text(alphabet=walk_characters, max_size=8)
walk_texts = st.one_of(
    st.just(""),
    st.text(alphabet=st.sampled_from(list(" \t\n\r")), min_size=1, max_size=4),
    st.builds(
        lambda before, core, after: before + core + after,
        st.sampled_from(["", " ", "\n  ", "\r\n"]),
        st.text(alphabet=walk_characters, max_size=10),
        st.sampled_from(["", " ", "\t", "\r"]),
    ),
)


@st.composite
def walk_trees(draw, depth=0):
    element = Element(draw(walk_tags), nsmap=draw(st.sampled_from([{}, {"q": "urn:q"}])))
    for name in draw(st.lists(walk_attribute_names, max_size=4, unique=True)):
        element.set(name, draw(walk_attribute_values))
    element.text = draw(walk_texts)
    element.tail = draw(walk_texts)
    if depth < 3:
        for child in draw(st.lists(walk_trees(depth=depth + 1), max_size=3)):
            element.append(child)
    return element


def nodes(element):
    return list(element.iter())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(walk_trees())
def test_canonical_form_is_the_three_walks_in_one(tree):
    text, size_bytes, copy = canonical_form(tree)

    reference = []
    reference_canonical(tree, reference)
    assert text == "".join(reference) == canonical(tree)
    assert size_bytes == len(serialize(tree, xml_declaration=False).encode("utf-8"))
    assert copy.structurally_equal(tree) and copy.parent is None
    originals, copies = nodes(tree), nodes(copy)
    assert len(copies) == len(originals)
    for original, clone in zip(originals, copies, strict=True):
        assert (clone.tag, clone.text, clone.tail) == (original.tag, original.text, original.tail)
        assert clone.attributes == original.attributes and clone.nsmap == original.nsmap
        assert all(child.parent is clone for child in clone.children)
    shared = {id(node) for node in originals} | {
        id(part) for node in originals for part in (node.attributes, node.nsmap, node.children)
    }
    owned = {id(node) for node in copies} | {
        id(part) for node in copies for part in (node.attributes, node.nsmap, node.children)
    }
    assert not shared & owned


@settings(max_examples=40, deadline=None, derandomize=True)
@given(walk_trees(), st.data())
def test_an_illegal_character_raises_where_serialize_does(tree, data):
    """U+0001 in any text, any serialised tail or any attribute."""
    position = data.draw(st.integers(0, len(nodes(tree)) - 1))
    for slot in ["text", "tail", *WALK_ATTRIBUTE_NAMES]:
        bad = tree.copy()
        target = nodes(bad)[position]
        if slot in ("text", "tail"):
            if target is bad and slot == "tail":
                continue  # the root's tail is outside the document
            setattr(target, slot, getattr(target, slot) + "\x01")
        else:
            target.set(slot, "bad\x01")

        with pytest.raises(XMLSerializeError):
            serialize(bad, xml_declaration=False)
        with pytest.raises(XMLSerializeError):
            canonical_form(bad)
