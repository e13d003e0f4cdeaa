"""Validation of SGML documents against a DTD.

Each element's content model runs as the deterministic automaton its
:class:`~repro.sgml.dtd.DTD` compiled it to (see
:class:`~repro.sgml.dtd.ContentAutomaton`): one transition per child,
element children reading their tag and text children ``#PCDATA``.
Whitespace-only text is ignorable anywhere. An element's content is
checked before its children, which are checked in document order, so
the first error in that order is the one reported, and its path is
built only then.
"""

from __future__ import annotations

from typing import Dict, List, Union

from ..errors import SchemaError
from .document import Element
from .dtd import PCDATA, DTD, ContentAutomaton, Empty


class ValidationError(SchemaError):
    """A document does not conform to its DTD."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class _Invalid(Exception):
    """An error found below the root: collects the path steps, innermost
    first, while it unwinds to :func:`validate`."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message
        self.steps: List[str] = []


def validate(document: Element, dtd: DTD) -> None:
    """Raise :class:`ValidationError` unless *document* conforms."""
    if document.tag != dtd.root:
        raise ValidationError(
            "/", f"root element is {document.tag!r}, expected {dtd.root!r}"
        )
    try:
        _validate_element(document, dtd.automata())
    except _Invalid as invalid:
        steps = [document.tag] + invalid.steps[::-1]
        raise ValidationError("/" + "/".join(steps), invalid.message) from None


def is_valid(document: Element, dtd: DTD) -> bool:
    try:
        validate(document, dtd)
    except SchemaError:
        return False
    return True


def _validate_element(
    element: Element, automata: Dict[str, ContentAutomaton]
) -> None:
    automaton = automata.get(element.tag)
    if automaton is None:
        raise _Invalid(f"undeclared element {element.tag!r}")
    children = element.children
    delta = automaton.delta
    if delta is not None:  # not ANY
        state = 0
        for child in children:
            if isinstance(child, str):
                if not child or child.isspace():
                    continue  # ignorable
                symbol = PCDATA
            else:
                symbol = child.tag
            following = delta[state].get(symbol)
            state = automaton.step(state, symbol) if following is None else following
            if state < 0:  # DEAD
                break
        if state < 0 or not automaton.accepting[state]:
            raise _Invalid(_mismatch(automaton, children))
    index = 0
    for child in children:
        if not isinstance(child, str):
            try:
                _validate_element(child, automata)
            except _Invalid as invalid:
                invalid.steps.append(f"{child.tag}[{index}]")
                raise
            index += 1


def _mismatch(automaton: ContentAutomaton, children: List[Union[Element, str]]) -> str:
    if isinstance(automaton.model, Empty):
        return "declared EMPTY but has content"
    names = [
        c.tag if isinstance(c, Element) else PCDATA
        for c in children
        if not (isinstance(c, str) and (not c or c.isspace()))
    ]
    return (
        f"content ({', '.join(names)}) does not match "
        f"{automaton.model.render()}"
    )
