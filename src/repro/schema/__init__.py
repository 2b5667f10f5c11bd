"""XML Schema substrate (the validating half of the Xerces substitute).

U-P2P's central idea is that *the schema is the application*: an XML
Schema document describing a shared resource is enough to generate the
Create / Search / View functions of a file-sharing community.  This
package provides the schema machinery:

* :mod:`repro.schema.datatypes` — the built-in simple types
  (``xsd:string``, ``xsd:anyURI`` …) with validation and canonical
  lexical forms.
* :mod:`repro.schema.model` — the schema component model: element
  declarations, complex and simple types, particles and attributes,
  plus the U-P2P ``searchable`` annotation used for index filtering.
* :mod:`repro.schema.parser` — parses XSD documents into the model.
* :mod:`repro.schema.validator` — validates instance documents and
  reports precise errors.
* :mod:`repro.schema.builder` — programmatic schema construction, the
  substitute for the paper's web-based schema-generation tool.
* :mod:`repro.schema.instance` — instance construction from field
  values and random instance synthesis used by tests and workloads.
"""

from repro.schema.builder import SchemaBuilder
from repro.schema.errors import SchemaError, SchemaParseError, ValidationError
from repro.schema.model import (
    AttributeDeclaration,
    ComplexType,
    ElementDeclaration,
    Occurrence,
    Particle,
    Schema,
    SimpleType,
)
from repro.schema.parser import parse_schema, parse_schema_text
from repro.schema.validator import ValidationReport, validate

__all__ = [
    "Schema",
    "ElementDeclaration",
    "ComplexType",
    "SimpleType",
    "AttributeDeclaration",
    "Particle",
    "Occurrence",
    "SchemaBuilder",
    "SchemaError",
    "SchemaParseError",
    "ValidationError",
    "ValidationReport",
    "parse_schema",
    "parse_schema_text",
    "validate",
]
