"""Document Type Definitions (the brochures DTD of Section 3.1).

A DTD declares, per element, a *content model*: a regular expression
over child element names and ``#PCDATA``. Content models are parsed
into a small AST (:class:`Seq`, :class:`Choice`, :class:`Repeat`,
:class:`NameRef`, :class:`PCData`, :class:`Empty`), and each model
compiles once into a :class:`ContentAutomaton` cached on its
:class:`DTD`, which the validator runs over actual children.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import SchemaError

# ---------------------------------------------------------------------------
# Content model AST
# ---------------------------------------------------------------------------


class ContentModel:
    def render(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"

    def __hash__(self) -> int:  # pragma: no cover - AST nodes rarely hashed
        return hash(self.render())


class PCData(ContentModel):
    def render(self) -> str:
        return "#PCDATA"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PCData)


class Empty(ContentModel):
    def render(self) -> str:
        return "EMPTY"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Empty)


class AnyContent(ContentModel):
    def render(self) -> str:
        return "ANY"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AnyContent)


class NameRef(ContentModel):
    def __init__(self, name: str) -> None:
        self.name = name

    def render(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NameRef) and other.name == self.name


class Seq(ContentModel):
    def __init__(self, items: Sequence[ContentModel]) -> None:
        self.items = tuple(items)

    def render(self) -> str:
        return "(" + ", ".join(i.render() for i in self.items) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Seq) and other.items == self.items


class Choice(ContentModel):
    def __init__(self, options: Sequence[ContentModel]) -> None:
        self.options = tuple(options)

    def render(self) -> str:
        return "(" + " | ".join(o.render() for o in self.options) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Choice) and other.options == self.options


class Repeat(ContentModel):
    """``*`` (zero or more), ``+`` (one or more) or ``?`` (optional)."""

    def __init__(self, item: ContentModel, mode: str) -> None:
        if mode not in ("*", "+", "?"):
            raise SchemaError(f"unknown repetition {mode!r}")
        self.item = item
        self.mode = mode

    def render(self) -> str:
        return self.item.render() + self.mode

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Repeat)
            and other.item == self.item
            and other.mode == self.mode
        )


# ---------------------------------------------------------------------------
# Content automata
# ---------------------------------------------------------------------------

#: The symbol a non-ignorable text child reads (no element name starts
#: with ``#``).
PCDATA = "#PCDATA"


class ContentAutomaton:
    """A content model compiled to a deterministic automaton over child
    symbols: element tags, and :data:`PCDATA` for text.

    The Glushkov construction gives one position per ``NameRef`` or
    ``#PCDATA`` occurrence (``#PCDATA`` reads any number of text
    children, so its position follows itself) and the ``first``,
    ``last`` and ``follow`` sets of the model. The subset construction
    then runs lazily: a DFA state is a set of positions, numbered on
    first reach, and each transition is computed once, on its first
    use. SGML asks for unambiguous models, where every state is a single
    position; ambiguous ones such as ``((a, b) | (a, c))`` are accepted
    by the parser and work the same way.

    ``delta[state]`` maps a symbol to the next state (``DEAD`` once no
    continuation can match), ``accepting[state]`` tells whether the
    children read so far match the whole model. ``delta`` is None for
    ``ANY``, which accepts every content. ``EMPTY`` accepts only no
    content.
    """

    DEAD = -1

    __slots__ = ("model", "delta", "accepting", "_symbols", "_follow",
                 "_sets", "_states", "_last", "_lock")

    def __init__(self, model: ContentModel) -> None:
        self.model = model
        # New states are numbered under the lock: validations sharing a
        # DTD may step through the same automaton from several threads.
        self._lock = threading.Lock()
        #: symbol of each position
        self._symbols: List[str] = []
        #: positions that may follow each position; the initial state's
        #: pseudo-position -1 is followed by the first positions
        self._follow: Dict[int, Set[int]] = {}
        #: the position set of each state, and its inverse
        self._sets: List[FrozenSet[int]] = []
        self._states: Dict[FrozenSet[int], int] = {}
        if isinstance(model, AnyContent):
            self.delta: Optional[List[Dict[str, int]]] = None
            self.accepting: List[bool] = [True]
            self._last: FrozenSet[int] = frozenset()
            return
        nullable, first, last = self._glushkov(model)
        self._follow[-1] = set(first)
        self._last = frozenset(last)
        self.delta = []
        self.accepting = []
        self._state(frozenset((-1,)), nullable)

    def _glushkov(self, model: ContentModel) -> Tuple[bool, Set[int], Set[int]]:
        """``(nullable, first, last)`` of *model*, recording its
        positions and their ``follow`` sets."""
        if isinstance(model, (NameRef, PCData)):
            position = len(self._symbols)
            self._symbols.append(
                model.name if isinstance(model, NameRef) else PCDATA
            )
            follow = self._follow[position] = set()
            if isinstance(model, PCData):
                follow.add(position)
                return True, {position}, {position}
            return False, {position}, {position}
        if isinstance(model, Seq):
            nullable, first, last = True, set(), set()
            for item in model.items:
                item_nullable, item_first, item_last = self._glushkov(item)
                for position in last:
                    self._follow[position] |= item_first
                if nullable:
                    first |= item_first
                last = (item_last | last) if item_nullable else item_last
                nullable = nullable and item_nullable
            return nullable, first, last
        if isinstance(model, Choice):
            nullable, first, last = False, set(), set()
            for option in model.options:
                option_nullable, option_first, option_last = self._glushkov(option)
                nullable = nullable or option_nullable
                first |= option_first
                last |= option_last
            return nullable, first, last
        if isinstance(model, Repeat):
            nullable, first, last = self._glushkov(model.item)
            if model.mode != "?":
                for position in last:
                    self._follow[position] |= first
            return nullable or model.mode != "+", first, last
        if isinstance(model, (Empty, AnyContent)):
            return True, set(), set()
        raise SchemaError(f"unknown content model node {model!r}")

    def _state(self, positions: FrozenSet[int], accepting: bool) -> int:
        number = self._states.get(positions)
        if number is None:
            number = self._states[positions] = len(self._sets)
            self._sets.append(positions)
            self.delta.append({})
            self.accepting.append(accepting)
        return number

    def step(self, state: int, symbol: str) -> int:
        """The transition of *state* on *symbol*, computed and cached on
        first use (the validator reads ``delta`` directly after that)."""
        assert self.delta is not None
        with self._lock:
            target = self.delta[state].get(symbol)
            if target is not None:
                return target
            targets = frozenset(
                follower
                for position in self._sets[state]
                for follower in self._follow[position]
                if self._symbols[follower] == symbol
            )
            if targets:
                target = self._state(targets, not targets.isdisjoint(self._last))
            else:
                target = self.DEAD
            self.delta[state][symbol] = target
        return target


# ---------------------------------------------------------------------------
# DTD
# ---------------------------------------------------------------------------


class ElementDecl:
    def __init__(self, name: str, content: ContentModel) -> None:
        self.name = name
        self.content = content

    def __repr__(self) -> str:
        return f"<!ELEMENT {self.name} {self.content.render()}>"


class DTD:
    """A document type: the root element name plus element declarations."""

    def __init__(self, root: str, elements: Iterable[ElementDecl] = ()) -> None:
        self.root = root
        self._elements: Dict[str, ElementDecl] = {}
        self._automata: Optional[Dict[str, ContentAutomaton]] = None
        for element in elements:
            self.add(element)

    def add(self, element: ElementDecl) -> None:
        if element.name in self._elements:
            raise SchemaError(f"duplicate element declaration {element.name!r}")
        self._elements[element.name] = element
        self._automata = None

    def automata(self) -> Dict[str, ContentAutomaton]:
        """Each declared element's compiled content model, by name;
        compiled on the first call and cached until a declaration is
        added."""
        automata = self._automata
        if automata is None:
            automata = self._automata = {
                name: ContentAutomaton(decl.content)
                for name, decl in self._elements.items()
            }
        return automata

    def element(self, name: str) -> ElementDecl:
        try:
            return self._elements[name]
        except KeyError:
            raise SchemaError(f"no declaration for element {name!r}") from None

    def declares(self, name: str) -> bool:
        return name in self._elements

    def element_names(self) -> List[str]:
        return list(self._elements)

    def check_complete(self) -> None:
        """Every referenced element name must be declared."""
        missing = []

        def scan(model: ContentModel) -> None:
            if isinstance(model, NameRef):
                if not self.declares(model.name):
                    missing.append(model.name)
            elif isinstance(model, Seq):
                for item in model.items:
                    scan(item)
            elif isinstance(model, Choice):
                for option in model.options:
                    scan(option)
            elif isinstance(model, Repeat):
                scan(model.item)

        for decl in self._elements.values():
            scan(decl.content)
        if not self.declares(self.root):
            missing.append(self.root)
        if missing:
            raise SchemaError(
                f"DTD references undeclared element(s): {sorted(set(missing))}"
            )

    def render(self) -> str:
        lines = [f"<!DOCTYPE {self.root} ["]
        for decl in self._elements.values():
            lines.append(f"  {decl!r}")
        lines.append("]>")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"DTD({self.root!r}, {len(self._elements)} element(s))"


# ---------------------------------------------------------------------------
# DTD parsing
# ---------------------------------------------------------------------------


class _DtdCursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.eat(literal):
            context = self.text[self.pos : self.pos + 20]
            raise SchemaError(f"DTD syntax: expected {literal!r} at {context!r}")

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-."
        ):
            self.pos += 1
        if start == self.pos:
            context = self.text[self.pos : self.pos + 20]
            raise SchemaError(f"DTD syntax: expected a name at {context!r}")
        return self.text[start : self.pos]

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos : self.pos + 1]


def parse_dtd(text: str) -> DTD:
    """Parse ``<!DOCTYPE root [ <!ELEMENT ...> ... ]>`` text."""
    cursor = _DtdCursor(text)
    cursor.expect("<!DOCTYPE")
    root = cursor.name()
    cursor.expect("[")
    elements: List[ElementDecl] = []
    while True:
        if cursor.eat("]"):
            break
        cursor.expect("<!ELEMENT")
        name = cursor.name()
        content = _parse_content(cursor)
        cursor.expect(">")
        elements.append(ElementDecl(name, content))
    cursor.eat(">")
    dtd = DTD(root, elements)
    dtd.check_complete()
    return dtd


def _parse_content(cursor: _DtdCursor) -> ContentModel:
    if cursor.eat("EMPTY"):
        return Empty()
    if cursor.eat("ANY"):
        return AnyContent()
    model = _parse_group(cursor)
    return _maybe_repeat(cursor, model)


def _parse_group(cursor: _DtdCursor) -> ContentModel:
    cursor.expect("(")
    items = [_parse_particle(cursor)]
    separator: Optional[str] = None
    while True:
        if cursor.eat(")"):
            break
        if cursor.eat(","):
            sep = ","
        elif cursor.eat("|"):
            sep = "|"
        else:
            context = cursor.text[cursor.pos : cursor.pos + 20]
            raise SchemaError(f"DTD syntax: expected ',' '|' or ')' at {context!r}")
        if separator is None:
            separator = sep
        elif separator != sep:
            raise SchemaError("DTD syntax: cannot mix ',' and '|' in one group")
        items.append(_parse_particle(cursor))
    if len(items) == 1:
        return items[0]
    return Choice(items) if separator == "|" else Seq(items)


def _parse_particle(cursor: _DtdCursor) -> ContentModel:
    if cursor.peek() == "(":
        model = _parse_group(cursor)
    elif cursor.eat("#PCDATA") or cursor.eat("#PCADATA"):
        # the paper's DTD listing spells it "#PCADATA"; accept both
        model = PCData()
    else:
        model = NameRef(cursor.name())
    return _maybe_repeat(cursor, model)


def _maybe_repeat(cursor: _DtdCursor, model: ContentModel) -> ContentModel:
    for mode in ("*", "+", "?"):
        if cursor.eat(mode):
            return Repeat(model, mode)
    return model


def brochure_dtd() -> DTD:
    """The Brochures DTD of Section 3.1 (with the paper's ``spplrs``
    list of ``supplier`` elements)."""
    return parse_dtd(
        """
        <!DOCTYPE brochure [
          <!ELEMENT brochure (number, title, model, desc, spplrs)>
          <!ELEMENT number   (#PCDATA)>
          <!ELEMENT title    (#PCDATA)>
          <!ELEMENT model    (#PCDATA)>
          <!ELEMENT desc     (#PCDATA)>
          <!ELEMENT spplrs   (supplier)*>
          <!ELEMENT supplier (name, address)>
          <!ELEMENT name     (#PCDATA)>
          <!ELEMENT address  (#PCDATA)>
        ]>
        """
    )
