"""The design-pattern community — the paper's §V case study.

The Carleton Pattern Repository represented software design patterns in
XML; the paper derives an XML Schema from its DTD and builds a U-P2P
community around it, with a custom view stylesheet (the default one is
"tailored to more simple formats") and a custom index filter deciding
"which parts of the design pattern should be indexed".

This module reproduces all three artefacts: the pattern schema, the
custom stylesheets, and a corpus of the 23 GoF patterns plus synthetic
variations for scale experiments.
"""

from __future__ import annotations

import random

from repro.communities.base import CommunityDefinition
from repro.core.stylesheets import (
    DEFAULT_CREATE_STYLESHEET,
    DEFAULT_SEARCH_STYLESHEET,
    StylesheetSet,
)
from repro.schema.builder import SchemaBuilder, schema_to_xsd

CATEGORIES = ("creational", "structural", "behavioral")

#: The 23 GoF patterns: (name, category, intent, participants).
GOF_PATTERNS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("Abstract Factory", "creational",
     "Provide an interface for creating families of related objects without specifying their concrete classes",
     ("AbstractFactory", "ConcreteFactory", "AbstractProduct", "Client")),
    ("Builder", "creational",
     "Separate the construction of a complex object from its representation",
     ("Builder", "ConcreteBuilder", "Director", "Product")),
    ("Factory Method", "creational",
     "Define an interface for creating an object but let subclasses decide which class to instantiate",
     ("Creator", "ConcreteCreator", "Product", "ConcreteProduct")),
    ("Prototype", "creational",
     "Specify the kinds of objects to create using a prototypical instance and create new objects by copying it",
     ("Prototype", "ConcretePrototype", "Client")),
    ("Singleton", "creational",
     "Ensure a class only has one instance and provide a global point of access to it",
     ("Singleton",)),
    ("Adapter", "structural",
     "Convert the interface of a class into another interface clients expect",
     ("Target", "Adapter", "Adaptee", "Client")),
    ("Bridge", "structural",
     "Decouple an abstraction from its implementation so that the two can vary independently",
     ("Abstraction", "RefinedAbstraction", "Implementor", "ConcreteImplementor")),
    ("Composite", "structural",
     "Compose objects into tree structures to represent part-whole hierarchies",
     ("Component", "Leaf", "Composite", "Client")),
    ("Decorator", "structural",
     "Attach additional responsibilities to an object dynamically",
     ("Component", "ConcreteComponent", "Decorator", "ConcreteDecorator")),
    ("Facade", "structural",
     "Provide a unified interface to a set of interfaces in a subsystem",
     ("Facade", "Subsystem")),
    ("Flyweight", "structural",
     "Use sharing to support large numbers of fine-grained objects efficiently",
     ("Flyweight", "ConcreteFlyweight", "FlyweightFactory", "Client")),
    ("Proxy", "structural",
     "Provide a surrogate or placeholder for another object to control access to it",
     ("Proxy", "Subject", "RealSubject")),
    ("Chain of Responsibility", "behavioral",
     "Avoid coupling the sender of a request to its receiver by giving more than one object a chance to handle the request",
     ("Handler", "ConcreteHandler", "Client")),
    ("Command", "behavioral",
     "Encapsulate a request as an object thereby letting you parameterize clients with different requests",
     ("Command", "ConcreteCommand", "Invoker", "Receiver")),
    ("Interpreter", "behavioral",
     "Given a language define a representation for its grammar along with an interpreter",
     ("AbstractExpression", "TerminalExpression", "NonterminalExpression", "Context")),
    ("Iterator", "behavioral",
     "Provide a way to access the elements of an aggregate object sequentially without exposing its underlying representation",
     ("Iterator", "ConcreteIterator", "Aggregate", "ConcreteAggregate")),
    ("Mediator", "behavioral",
     "Define an object that encapsulates how a set of objects interact",
     ("Mediator", "ConcreteMediator", "Colleague")),
    ("Memento", "behavioral",
     "Without violating encapsulation capture and externalize an object's internal state",
     ("Memento", "Originator", "Caretaker")),
    ("Observer", "behavioral",
     "Define a one-to-many dependency between objects so that when one object changes state all its dependents are notified",
     ("Subject", "ConcreteSubject", "Observer", "ConcreteObserver")),
    ("State", "behavioral",
     "Allow an object to alter its behavior when its internal state changes",
     ("Context", "State", "ConcreteState")),
    ("Strategy", "behavioral",
     "Define a family of algorithms encapsulate each one and make them interchangeable",
     ("Strategy", "ConcreteStrategy", "Context")),
    ("Template Method", "behavioral",
     "Define the skeleton of an algorithm in an operation deferring some steps to subclasses",
     ("AbstractClass", "ConcreteClass")),
    ("Visitor", "behavioral",
     "Represent an operation to be performed on the elements of an object structure",
     ("Visitor", "ConcreteVisitor", "Element", "ConcreteElement", "ObjectStructure")),
)

_PROBLEM_DOMAINS = (
    "a drawing editor", "a network supervision agent", "a compiler front end",
    "an order processing system", "a windowing toolkit", "a document converter",
    "a peer-to-peer file-sharing client", "a pattern repository", "a simulation engine",
)


def pattern_schema_xsd() -> str:
    """The design-pattern community schema (derived from the repository DTD).

    Name, intent, category, keywords and the consequences text are the
    searchable fields; the solution structure, participant list and
    sample code are stored but deliberately *not* indexed — that is the
    "which parts of the design pattern should be indexed" design choice
    the case study discusses.
    """
    builder = SchemaBuilder("pattern")
    builder.field("name", searchable=True, documentation="Canonical pattern name")
    builder.field("alias", optional=True, repeated=True, documentation="Also-known-as names")
    builder.field("category", enumeration=CATEGORIES, searchable=True)
    builder.field("intent", searchable=True, documentation="What the pattern is for")
    builder.field("keywords", searchable=True, optional=True)
    builder.field("motivation", optional=True, documentation="A motivating scenario")
    builder.field("applicability", searchable=True, optional=True,
                  documentation="When to apply the pattern")
    structure = builder.group("solution")
    structure.field("structure", documentation="Description of the class structure")
    structure.field("participants", repeated=True, documentation="Participating classes")
    structure.field("collaborations", optional=True)
    structure.end()
    builder.field("consequences", searchable=True, optional=True)
    builder.field("sample_code", optional=True, documentation="Illustrative source code")
    builder.field("related", optional=True, repeated=True, documentation="Related pattern names")
    builder.field("author", optional=True)
    builder.field("diagram", "anyURI", attachment=True, optional=True,
                  documentation="A class-diagram image downloaded with the pattern")
    return schema_to_xsd(builder.build())


#: Custom view stylesheet of the case study: section headings instead of
#: the default flat attribute table.
PATTERN_VIEW_STYLESHEET = """<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="html"/>
  <xsl:template match="/">
    <div class="pattern-view">
      <h1><xsl:value-of select="pattern/name"/></h1>
      <p class="category">Category: <xsl:value-of select="pattern/category"/></p>
      <h2>Intent</h2>
      <p><xsl:value-of select="pattern/intent"/></p>
      <xsl:if test="pattern/applicability">
        <h2>Applicability</h2>
        <p><xsl:value-of select="pattern/applicability"/></p>
      </xsl:if>
      <h2>Structure</h2>
      <p><xsl:value-of select="pattern/solution/structure"/></p>
      <h2>Participants</h2>
      <ul>
        <xsl:for-each select="pattern/solution/participants">
          <li><xsl:value-of select="."/></li>
        </xsl:for-each>
      </ul>
      <xsl:if test="pattern/consequences">
        <h2>Consequences</h2>
        <p><xsl:value-of select="pattern/consequences"/></p>
      </xsl:if>
      <xsl:if test="pattern/related">
        <h2>Related patterns</h2>
        <ul>
          <xsl:for-each select="pattern/related">
            <li><xsl:value-of select="."/></li>
          </xsl:for-each>
        </ul>
      </xsl:if>
    </div>
  </xsl:template>
</xsl:stylesheet>
"""

#: Custom index-filter stylesheet: only name, category, intent, keywords,
#: applicability and consequences reach the index.
PATTERN_INDEX_FILTER_STYLESHEET = """<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:output method="xml"/>
  <xsl:template match="/">
    <indexed>
      <attribute name="name"><xsl:value-of select="pattern/name"/></attribute>
      <attribute name="category"><xsl:value-of select="pattern/category"/></attribute>
      <attribute name="intent"><xsl:value-of select="pattern/intent"/></attribute>
      <xsl:if test="pattern/keywords">
        <attribute name="keywords"><xsl:value-of select="pattern/keywords"/></attribute>
      </xsl:if>
      <xsl:if test="pattern/applicability">
        <attribute name="applicability"><xsl:value-of select="pattern/applicability"/></attribute>
      </xsl:if>
      <xsl:if test="pattern/consequences">
        <attribute name="consequences"><xsl:value-of select="pattern/consequences"/></attribute>
      </xsl:if>
    </indexed>
  </xsl:template>
</xsl:stylesheet>
"""

#: Field paths the custom index filter keeps.
PATTERN_INDEX_FIELDS = (
    "name", "category", "intent", "keywords", "applicability", "consequences",
)


def pattern_stylesheets() -> StylesheetSet:
    """The case study's custom stylesheet set."""
    return StylesheetSet(
        create=DEFAULT_CREATE_STYLESHEET,
        search=DEFAULT_SEARCH_STYLESHEET,
        view=PATTERN_VIEW_STYLESHEET,
        index_filter=PATTERN_INDEX_FILTER_STYLESHEET,
    )


def gof_pattern_records() -> list[dict[str, object]]:
    """The 23 GoF patterns as form-value dictionaries."""
    records: list[dict[str, object]] = []
    for name, category, intent, participants in GOF_PATTERNS:
        keyword_tokens = {token.lower() for token in name.split()}
        keyword_tokens.update({category, "design", "pattern"})
        records.append({
            "name": name,
            "category": category,
            "intent": intent,
            "keywords": " ".join(sorted(keyword_tokens)),
            "applicability": f"Use {name} when designing {category} aspects of an object-oriented system",
            "solution/structure": f"The {name} pattern arranges {', '.join(participants)} as cooperating classes",
            "solution/participants": list(participants),
            "consequences": f"{name} trades flexibility for indirection; it decouples {participants[0]} from its clients",
            "author": "Gamma, Helm, Johnson, Vlissides",
            "diagram": f"http://repo.carleton.ca/patterns/{name.lower().replace(' ', '-')}.png",
        })
    return records


def generate_pattern_corpus(size: int, seed: int = 0) -> list[dict[str, object]]:
    """``size`` pattern documents: the 23 GoF patterns plus variations.

    Variations model the "rich collection of patterns" the case study
    anticipates: domain-specific adaptations of the canonical patterns
    with their own intent wording and keywords.
    """
    rng = random.Random(seed)
    base = gof_pattern_records()
    corpus = [dict(record) for record in base[:size]]
    used_names = {record["name"] for record in corpus}
    index = 0
    while len(corpus) < size:
        source = base[index % len(base)]
        domain = rng.choice(_PROBLEM_DOMAINS)
        variant = dict(source)
        name = f"{source['name']} for {domain}"
        if name in used_names:
            name = f"{name} (variant {index})"
        used_names.add(name)
        variant["name"] = name
        variant["intent"] = f"{source['intent']}, adapted to {domain}"
        variant["keywords"] = f"{source['keywords']} {domain.split()[-1]}"
        variant["author"] = rng.choice(("Deugo", "Ferguson", "Arthorne", "Esfandiari", "Mukherjee"))
        corpus.append(variant)
        index += 1
    return corpus[:size]


def design_pattern_community() -> CommunityDefinition:
    """The §V case-study community with its custom stylesheets and filter."""
    return CommunityDefinition(
        name="Carleton Design Patterns",
        schema_xsd=pattern_schema_xsd(),
        description="A peer-to-peer repository of software design patterns with meta-data search.",
        keywords="design patterns software gof repository carleton",
        category="software-engineering",
        protocol="Gnutella",
        stylesheets=pattern_stylesheets(),
        index_filter_fields=PATTERN_INDEX_FIELDS,
        corpus=generate_pattern_corpus,
    )
