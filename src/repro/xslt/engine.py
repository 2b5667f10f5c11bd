"""The XSLT transformation engine.

The engine interprets the parsed stylesheet against a source tree and
builds a result tree.  It follows XSLT 1.0 processing rules for the
supported subset: template rule matching by priority, built-in rules
for unmatched elements and text, attribute-value templates in literal
result elements, and the ``html`` / ``xml`` / ``text`` output methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.xmlkit.dom import Document, Element
from repro.xmlkit.serializer import serialize
from repro.xslt.errors import XSLTRuntimeError
from repro.xslt.expressions import (
    EvalContext,
    evaluate_boolean,
    evaluate_nodes,
    evaluate_string,
)
from repro.xslt.html import render_html
from repro.xslt.model import Stylesheet, TemplateRule
from repro.xslt.parser import _is_xsl
from repro.xslt.patterns import pattern_matches

_MAX_RECURSION = 200


@dataclass
class TransformResult:
    """The result tree of a transformation."""

    nodes: list[Union[Element, str]] = field(default_factory=list)
    output_method: str = "xml"

    @property
    def root(self) -> Optional[Element]:
        """The first element node of the result, if any."""
        for node in self.nodes:
            if isinstance(node, Element):
                return node
        return None

    def serialize(self) -> str:
        """Serialize according to the stylesheet's output method."""
        if self.output_method == "html":
            return render_html(self.nodes)
        if self.output_method == "text":
            return "".join(node.text_content() if isinstance(node, Element) else node
                           for node in self.nodes)
        return "".join(serialize(node, xml_declaration=False) if isinstance(node, Element)
                       else node for node in self.nodes)


class Transformer:
    """Applies one stylesheet to source documents."""

    def __init__(self, stylesheet: Stylesheet) -> None:
        self._stylesheet = stylesheet

    def transform(
        self,
        source: Union[Document, Element],
        parameters: Optional[dict[str, str]] = None,
    ) -> TransformResult:
        """Transform ``source`` and return the result tree."""
        root = source.root if isinstance(source, Document) else source
        variables = dict(self._stylesheet.global_variables)
        if parameters:
            variables.update(parameters)
        result = TransformResult(output_method=self._stylesheet.output_method)
        output: list[Union[Element, str]] = []
        # The "/" template's context is the document node: wrap the root
        # element in a synthetic document element for the duration of the
        # transformation so that paths like "community/name" resolve the
        # way XSLT expects, then restore the tree.
        original_parent = root.parent
        document_node = Element("#document")
        document_node.children = [root]
        root.parent = document_node
        try:
            self._apply_to_root(document_node, variables, output)
        finally:
            root.parent = original_parent
        result.nodes = [node for node in output if not (isinstance(node, str) and not node)]
        return result

    # ------------------------------------------------------------------
    def _apply_to_root(self, root: Element, variables: dict[str, str], output: list) -> None:
        rule = self._find_rule_for_root()
        context = EvalContext(node=root, position=1, size=1, variables=variables)
        if rule is not None:
            self._instantiate(rule.body, rule.body_text, context, output, depth=0)
        else:
            self._apply_templates([root], context, output, mode="", depth=0)

    def _find_rule_for_root(self) -> Optional[TemplateRule]:
        for rule in self._stylesheet.rules_for_mode(""):
            if rule.match.strip() == "/":
                return rule
        return None

    def _find_rule(self, node: Union[Element, str], mode: str) -> Optional[TemplateRule]:
        if isinstance(node, Element) and node.tag == "#document":
            # Only the "/" pattern may match the document node; it is
            # handled by _find_rule_for_root, so fall through to the
            # built-in rule (recurse into the document element).
            return None
        for rule in self._stylesheet.rules_for_mode(mode):
            if rule.match.strip() == "/":
                continue
            if pattern_matches(rule.match, node):
                return rule
        return None

    # ------------------------------------------------------------------
    def _apply_templates(
        self,
        nodes: list[Union[Element, str]],
        context: EvalContext,
        output: list,
        *,
        mode: str,
        depth: int,
        with_params: Optional[dict[str, str]] = None,
    ) -> None:
        if depth > _MAX_RECURSION:
            raise XSLTRuntimeError("template recursion limit exceeded")
        size = len(nodes)
        for position, node in enumerate(nodes, start=1):
            rule = self._find_rule(node, mode)
            if isinstance(node, str):
                if rule is None:
                    output.append(node)
                    continue
                child_context = EvalContext(
                    node=context.node, position=position, size=size, variables=dict(context.variables)
                )
            else:
                child_context = EvalContext(
                    node=node, position=position, size=size, variables=dict(context.variables)
                )
            if rule is None:
                # Built-in rule: recurse into children and text.
                assert isinstance(node, Element)
                children: list[Union[Element, str]] = []
                if node.text.strip():
                    children.append(node.text.strip())
                for child in node.children:
                    children.append(child)
                    if child.tail.strip():
                        children.append(child.tail.strip())
                self._apply_templates(children, child_context, output, mode=mode, depth=depth + 1)
                continue
            if with_params:
                child_context.variables.update(with_params)
            self._instantiate(rule.body, rule.body_text, child_context, output, depth=depth + 1)

    # ------------------------------------------------------------------
    def _instantiate(
        self,
        body: list[Element],
        leading_text: str,
        context: EvalContext,
        output: list,
        *,
        depth: int,
        owner: Optional[Element] = None,
    ) -> None:
        if depth > _MAX_RECURSION:
            raise XSLTRuntimeError("template recursion limit exceeded")
        # XSLT 1.0 whitespace handling: text nodes that are pure whitespace
        # are stripped from the stylesheet; text with content is kept as-is.
        if leading_text.strip():
            output.append(leading_text)
        for node in body:
            self._instantiate_node(node, context, output, depth=depth, owner=owner)
            if node.tail.strip():
                output.append(node.tail)

    def _instantiate_node(self, node: Element, context: EvalContext, output: list, *, depth: int,
                          owner: Optional[Element] = None) -> None:
        if _is_xsl(node):
            self._execute_instruction(node, context, output, depth=depth, owner=owner)
            return
        # Literal result element: copy it, expanding attribute value templates.
        literal = Element(node.tag)
        for name, value in node.attributes.items():
            if name.startswith("xmlns"):
                continue
            literal.set(name, _expand_avt(value, context))
        inner: list[Union[Element, str]] = []
        self._instantiate(node.children, node.text, context, inner, depth=depth + 1, owner=literal)
        _attach(literal, inner)
        output.append(literal)

    # ------------------------------------------------------------------
    def _execute_instruction(self, node: Element, context: EvalContext, output: list, *, depth: int,
                             owner: Optional[Element] = None) -> None:
        name = node.local_name
        if name == "value-of":
            output.append(evaluate_string(node.get("select", "."), context))
        elif name == "text":
            output.append(node.text_content())
        elif name == "apply-templates":
            select = node.get("select")
            mode = node.get("mode", "")
            params = self._collect_with_params(node, context)
            if select:
                nodes = evaluate_nodes(select, context)
            else:
                nodes = list(context.node.children)
                if context.node.text.strip():
                    nodes.insert(0, context.node.text.strip())
            nodes = self._apply_sort(node, nodes, context)
            self._apply_templates(nodes, context, output, mode=mode, depth=depth + 1, with_params=params)
        elif name == "for-each":
            select = node.get("select")
            if not select:
                raise XSLTRuntimeError("xsl:for-each requires a 'select' attribute")
            nodes = self._apply_sort(node, evaluate_nodes(select, context), context)
            size = len(nodes)
            for position, item in enumerate(nodes, start=1):
                item_node = item if isinstance(item, Element) else context.node
                item_context = context.with_node(item_node, position, size)
                if isinstance(item, str):
                    item_context.variables = dict(context.variables)
                    item_context.variables["__text__"] = item
                body = [child for child in node.children if child.local_name != "sort" or not _is_xsl(child)]
                self._instantiate(body, node.text, item_context, output, depth=depth + 1, owner=owner)
        elif name == "if":
            if evaluate_boolean(node.get("test", "false()"), context):
                self._instantiate(node.children, node.text, context, output, depth=depth + 1, owner=owner)
        elif name == "choose":
            for branch in node.children:
                if not _is_xsl(branch):
                    continue
                if branch.local_name == "when" and evaluate_boolean(branch.get("test", "false()"), context):
                    self._instantiate(branch.children, branch.text, context, output, depth=depth + 1, owner=owner)
                    return
                if branch.local_name == "otherwise":
                    self._instantiate(branch.children, branch.text, context, output, depth=depth + 1, owner=owner)
                    return
        elif name == "element":
            element_name = _expand_avt(node.get("name", ""), context)
            if not element_name:
                raise XSLTRuntimeError("xsl:element requires a non-empty 'name'")
            created = Element(element_name)
            inner: list[Union[Element, str]] = []
            self._instantiate(node.children, node.text, context, inner, depth=depth + 1, owner=created)
            _attach(created, inner)
            output.append(created)
        elif name == "attribute":
            attribute_name = _expand_avt(node.get("name", ""), context)
            if not attribute_name:
                raise XSLTRuntimeError("xsl:attribute requires a non-empty 'name'")
            inner = []
            self._instantiate(node.children, node.text, context, inner, depth=depth + 1)
            value = "".join(part if isinstance(part, str) else part.text_content() for part in inner)
            # The attribute belongs to the element currently being
            # constructed (the owner); if there is none, it attaches to
            # the most recently emitted sibling element.
            target = owner if owner is not None else _last_element(output)
            if target is None:
                raise XSLTRuntimeError("xsl:attribute has no element to attach to")
            target.set(attribute_name, value)
        elif name == "copy-of":
            for item in evaluate_nodes(node.get("select", "."), context):
                output.append(item.copy() if isinstance(item, Element) else item)
        elif name == "copy":
            copied = Element(context.node.tag)
            inner = []
            self._instantiate(node.children, node.text, context, inner, depth=depth + 1)
            _attach(copied, inner)
            output.append(copied)
        elif name == "call-template":
            template_name = node.get("name", "")
            rule = self._stylesheet.named_templates.get(template_name)
            if rule is None:
                raise XSLTRuntimeError(f"call-template references unknown template {template_name!r}")
            params = self._collect_with_params(node, context)
            call_context = EvalContext(
                node=context.node,
                position=context.position,
                size=context.size,
                variables={**context.variables, **params},
            )
            self._instantiate(rule.body, rule.body_text, call_context, output, depth=depth + 1)
        elif name == "variable":
            variable_name = node.get("name", "")
            if not variable_name:
                raise XSLTRuntimeError("xsl:variable requires a 'name'")
            if node.get("select"):
                context.variables[variable_name] = evaluate_string(node.get("select", ""), context)
            else:
                inner = []
                self._instantiate(node.children, node.text, context, inner, depth=depth + 1)
                context.variables[variable_name] = "".join(
                    part if isinstance(part, str) else part.text_content() for part in inner
                )
        elif name == "param":
            variable_name = node.get("name", "")
            if variable_name and variable_name not in context.variables:
                context.variables[variable_name] = evaluate_string(node.get("select", "''"), context)
        elif name == "comment":
            pass  # comments are dropped from the result tree
        elif name == "message":
            pass  # diagnostics are intentionally silent
        elif name == "sort":
            pass  # handled by the enclosing for-each / apply-templates
        else:
            raise XSLTRuntimeError(f"unsupported XSLT instruction <xsl:{name}>")

    # ------------------------------------------------------------------
    def _collect_with_params(self, node: Element, context: EvalContext) -> dict[str, str]:
        params: dict[str, str] = {}
        for child in node.children:
            if _is_xsl(child) and child.local_name == "with-param":
                name = child.get("name", "")
                if not name:
                    continue
                if child.get("select"):
                    params[name] = evaluate_string(child.get("select", ""), context)
                else:
                    params[name] = child.text_content().strip()
        return params

    def _apply_sort(
        self,
        instruction: Element,
        nodes: list[Union[Element, str]],
        context: EvalContext,
    ) -> list[Union[Element, str]]:
        sort = next(
            (child for child in instruction.children if _is_xsl(child) and child.local_name == "sort"),
            None,
        )
        if sort is None:
            return nodes
        select = sort.get("select", ".")
        descending = sort.get("order", "ascending") == "descending"
        numeric = sort.get("data-type", "text") == "number"

        def key(item: Union[Element, str]):
            if isinstance(item, Element):
                value = evaluate_string(select, context.with_node(item, 1, 1))
            else:
                value = str(item)
            if numeric:
                try:
                    return float(value)
                except ValueError:
                    return float("inf")
            return value

        return sorted(nodes, key=key, reverse=descending)


def _expand_avt(template: str, context: EvalContext) -> str:
    """Expand attribute value templates: ``"{expr}"`` inside literal attributes."""
    if "{" not in template:
        return template
    parts: list[str] = []
    buffer = ""
    index = 0
    while index < len(template):
        char = template[index]
        if char == "{":
            if index + 1 < len(template) and template[index + 1] == "{":
                buffer += "{"
                index += 2
                continue
            end = template.index("}", index)
            parts.append(buffer)
            buffer = ""
            parts.append(evaluate_string(template[index + 1:end], context))
            index = end + 1
            continue
        if char == "}" and index + 1 < len(template) and template[index + 1] == "}":
            buffer += "}"
            index += 2
            continue
        buffer += char
        index += 1
    parts.append(buffer)
    return "".join(parts)


def _attach(parent: Element, nodes: list[Union[Element, str]]) -> None:
    """Attach a mixed list of elements and strings as the content of ``parent``."""
    for item in nodes:
        if isinstance(item, Element):
            parent.append(item)
        else:
            if parent.children:
                parent.children[-1].tail += item
            else:
                parent.text += item


def _last_element(output: list) -> Optional[Element]:
    for item in reversed(output):
        if isinstance(item, Element):
            return item
    return None
