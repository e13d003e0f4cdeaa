"""Variable bindings produced by body matching (Section 3.1, phase 1).

A binding maps variable names to values: constants for data variables,
trees for pattern variables. Bindings are immutable — extending one
produces a new binding — so the matcher can explore alternatives without
copying state back out.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.labels import Label, label_repr
from ..core.trees import Ref, Tree
from ..core.variables import PatternVar, Var
from ..errors import EvaluationError

Value = Union[Label, Tree, Ref]


class Binding:
    """An immutable mapping from variable names to values."""

    __slots__ = ("_items", "_hash")

    EMPTY: "Binding"

    def __init__(self, items: Optional[Dict[str, Value]] = None) -> None:
        object.__setattr__(self, "_items", dict(items) if items else {})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Binding is immutable")

    # -- access -------------------------------------------------------------

    def get(self, var: Union[Var, PatternVar, str]) -> Optional[Value]:
        name = var if isinstance(var, str) else var.name
        return self._items.get(name)

    def __getitem__(self, var: Union[Var, PatternVar, str]) -> Value:
        name = var if isinstance(var, str) else var.name
        try:
            return self._items[name]
        except KeyError:
            raise EvaluationError(f"unbound variable {name!r}") from None

    def __contains__(self, var: Union[Var, PatternVar, str]) -> bool:
        name = var if isinstance(var, str) else var.name
        return name in self._items

    def names(self) -> List[str]:
        return list(self._items)

    def items(self) -> Iterator[Tuple[str, Value]]:
        return iter(self._items.items())

    def __len__(self) -> int:
        return len(self._items)

    # -- extension ----------------------------------------------------------

    def bind(self, var: Union[Var, PatternVar, str], value: Value) -> Optional["Binding"]:
        """Bind *var* to *value*; returns None on a conflicting binding
        (the same variable already holds a different value — this is how
        shared variables implement joins, Section 3.2)."""
        return self.bind_name(var if isinstance(var, str) else var.name, value)

    def bind_name(self, name: str, value: Value) -> Optional["Binding"]:
        """:meth:`bind` by variable name — what compiled match programs
        call, with the name resolved once at compile time."""
        items = self._items
        existing = items.get(name, _ABSENT)
        if existing is not _ABSENT:
            return self if existing == value else None
        extended = items.copy()
        extended[name] = value
        return _trusted(extended)

    def merge(self, other: "Binding") -> Optional["Binding"]:
        """Combine two bindings; None if they disagree on any variable."""
        if len(other._items) < len(self._items):
            return other.merge(self)
        merged = dict(other._items)
        for name, value in self._items.items():
            existing = merged.get(name, _ABSENT)
            if existing is _ABSENT:
                merged[name] = value
            elif existing != value:
                return None
        return _trusted(merged)

    def project(self, names: Sequence[str]) -> Tuple[Value, ...]:
        """Values of *names* in order (used for Skolem and grouping keys)."""
        return tuple(self._items.get(name) for name in names)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Binding) and other._items == self._items

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self._items.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        inner = "; ".join(
            f"{name}={_render_value(value)}" for name, value in self._items.items()
        )
        return f"[ {inner} ]"


Binding.EMPTY = Binding()

_ABSENT = object()
_set_items = Binding._items.__set__
_set_hash = Binding._hash.__set__


def _trusted(items: Dict[str, Value]) -> Binding:
    """A binding that takes ownership of *items*, a fresh dict nobody
    else holds: the one copy is the caller's, not ``__init__``'s."""
    binding = object.__new__(Binding)
    _set_items(binding, items)
    _set_hash(binding, None)
    return binding


def _render_value(value: Value) -> str:
    if isinstance(value, Tree):
        text = str(value).replace("\n", " ")
        return text if len(text) <= 40 else text[:37] + "..."
    if isinstance(value, Ref):
        return str(value)
    return label_repr(value)


def dedup_bindings(bindings: Sequence[Binding]) -> List[Binding]:
    """Remove duplicate bindings, preserving first-occurrence order."""
    seen = set()
    unique: List[Binding] = []
    for binding in bindings:
        if binding not in seen:
            seen.add(binding)
            unique.append(binding)
    return unique
