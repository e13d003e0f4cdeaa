"""SGML ↔ YAT wrapper (the brochures of Section 3.1).

Elements import as symbol-labeled nodes, PCDATA as atomic leaves. By
default numeric-looking text coerces to numbers so that predicates like
``Year > 1975`` apply — the paper's brochures store the year in the
``model`` element as text.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..core.labels import Symbol
from ..core.trees import DataStore, Ref, Tree
from ..errors import WrapperError
from ..obs import record, span, stamp_fingerprint, stamp_inputs
from ..sgml.document import Element
from ..sgml.dtd import DTD
from ..sgml.validator import validate
from .base import ExportWrapper, ImportWrapper


def _coerce_text(text: str) -> Union[str, int, float]:
    stripped = text.strip()
    if stripped and (stripped.isdigit() or (stripped[0] == "-" and stripped[1:].isdigit())):
        return int(stripped)
    try:
        return float(stripped)
    except ValueError:
        return text


class SgmlImportWrapper(ImportWrapper[Sequence[Element]]):
    """Documents → DataStore. With a DTD, documents are validated first
    (the YAT execution environment's import path, Figure 6)."""

    def __init__(self, dtd: Optional[DTD] = None, coerce_numbers: bool = True) -> None:
        self.dtd = dtd
        self.coerce_numbers = coerce_numbers

    def to_store(self, source: Sequence[Element]) -> DataStore:
        if isinstance(source, Element):
            source = [source]
        store = DataStore()
        with span("wrapper.import", source="sgml", documents=len(source)):
            for index, document in enumerate(source, start=1):
                if self.dtd is not None:
                    validate(document, self.dtd)
                store.add(f"d{index}", self.element_to_tree(document))
        record("wrapper.import.trees", len(store), source="sgml")
        stamp_inputs(store, "sgml")
        stamp_fingerprint(store, "sgml")
        return store

    def element_to_tree(self, element: Element) -> Tree:
        # Tree._make: every label is a Symbol or a str/int/float atom
        # and every child a Tree by construction, so __init__'s
        # validation pass would only re-check that.
        make = Tree._make
        children = []
        for child in element.children:
            if isinstance(child, str):
                if not child.strip():
                    continue
                value = _coerce_text(child) if self.coerce_numbers else child
                children.append(make(value))
            else:
                children.append(self.element_to_tree(child))
        return make(Symbol(element.tag), tuple(children))


class SgmlExportWrapper(ExportWrapper[List[Element]]):
    """DataStore → documents; references are not representable in plain
    SGML, so the exporter materializes them (with cycle protection)."""

    def __init__(self, dtd: Optional[DTD] = None) -> None:
        self.dtd = dtd

    def from_store(self, store: DataStore) -> List[Element]:
        documents = []
        with span("wrapper.export", source="sgml", trees=len(store)):
            for name, _ in store:
                element = self.tree_to_element(store.materialize(name))
                if self.dtd is not None:
                    validate(element, self.dtd)
                documents.append(element)
        record("wrapper.export.trees", len(documents), source="sgml")
        return documents

    def tree_to_element(self, node: Tree) -> Element:
        if not isinstance(node.label, Symbol):
            raise WrapperError(
                f"an SGML root must be symbol-labeled, got {node.label!r}"
            )
        element = Element(node.label.name)
        for child in node.children:
            if isinstance(child, Ref):
                raise WrapperError(
                    f"unresolved reference &{child.target} cannot be exported "
                    f"to SGML (cyclic data?)"
                )
            if isinstance(child.label, Symbol) or child.children:
                element.append(self.tree_to_element(child))
            else:
                element.append(_atom_text(child.label))
        return element


def _atom_text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
