"""Head construction (Section 3.1 phase 5, Section 3.3 collections).

Given the head pattern of a rule and the group of bindings sharing one
Skolem identifier, build the output tree:

* a plain edge produces exactly one child, on which all bindings of the
  group must agree (disagreement is the paper's non-determinism alert);
* a ``*`` edge produces one child per binding — implicit grouping
  *without* duplicate elimination (point 3 of Section 4.1);
* a ``{}`` edge produces one child per distinct value — grouping with
  duplicate elimination, "all distinct and in no specified order" (we
  refine "no specified order" to first-encounter order so runs are
  deterministic);
* an ``[crit]`` edge groups bindings by the criteria values and orders
  the children by them (Rule 4: ``list [SN]-> &Psup(SN)``);
* an index edge in a head orders by the index variable (Rule 5).

Skolem leaves become references: ``&Psup(SN)`` stays a reference in the
output; ``Psup(SN)`` without ``&`` is recorded for *dereferencing*,
"handled at the end of rules processing" by the interpreter.

A head is built by its *head builder*: one closure per head node,
compiled by :func:`compile_head` with the node kind, the edge kinds and
each collection edge's projection (the variables it groups on) resolved
at compile time. Builders assemble trees through the trusted
:meth:`Tree._make`: their labels were validated when the pattern was
built, and their children are trees and references they built
themselves. A rule caches its builder in its plan (:meth:`Rule.plan`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.labels import is_label, label_sort_key
from ..core.patterns import (
    GROUP,
    INDEX,
    ONE,
    STAR,
    NameTerm,
    PChild,
    PEdge,
    PNameLeaf,
    PNode,
    PRefLeaf,
    PVarLeaf,
    collect_variables,
)
from ..core.trees import Ref, Tree
from ..core.variables import PatternVar, Var
from ..errors import EvaluationError, NonDeterminismError
from .bindings import Binding, Value
from .skolem import SkolemTable

Child = Union[Tree, Ref]

#: Prefix marking references that must be *spliced* (dereferenced) once
#: all rules have run, as opposed to genuine ``&`` references.
DEREF_MARK = "!deref!"


def deref_placeholder(identifier: str) -> Ref:
    return Ref(DEREF_MARK + identifier)


def is_deref_placeholder(ref: Ref) -> bool:
    return ref.target.startswith(DEREF_MARK)


def deref_target(ref: Ref) -> str:
    return ref.target[len(DEREF_MARK):]


class Unbound(Exception):
    """Internal signal: a variable needed by this subtree is unbound.

    Under collection edges the binding is skipped (active-domain
    semantics: a brochure with no supplier still yields a car with an
    empty supplier set); under a plain edge it aborts the whole group.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(name)


class SkolemTerm:
    """A Skolem term compiled against bindings: ``args(binding)`` gives
    the argument values, raising :class:`Unbound` for a missing one."""

    __slots__ = ("term", "functor", "text", "args")

    def __init__(self, term: NameTerm) -> None:
        self.term = term
        self.functor = term.functor
        self.text = str(term)
        self.args: Callable[[Binding], Tuple[Value, ...]] = _compile_args(term.args)


def _compile_args(args: Sequence) -> Callable[[Binding], Tuple[Value, ...]]:
    # (variable name, None) or (None, constant-folded argument)
    spec = tuple(
        (arg.name, None) if isinstance(arg, (Var, PatternVar)) else (None, arg)
        for arg in args
    )
    if len(spec) == 1 and spec[0][0] is not None:
        name = spec[0][0]

        def single(binding: Binding) -> Tuple[Value, ...]:
            value = binding._items.get(name, _ABSENT)
            if value is _ABSENT:
                raise Unbound(name)
            return (value,)

        return single

    def values(binding: Binding) -> Tuple[Value, ...]:
        items = binding._items
        found: List[Value] = []
        for name, constant in spec:
            if name is None:
                found.append(constant)
                continue
            value = items.get(name, _ABSENT)
            if value is _ABSENT:
                raise Unbound(name)
            found.append(value)
        return tuple(found)

    return values


class Constructor:
    """Builds output trees for one program run.

    ``on_skolem`` is called for every Skolem term encountered in a head
    (both references and dereferences) with the allocated identifier and
    whether the occurrence needs dereferencing — the interpreter uses it
    to schedule demand-driven evaluation (Section 3.4's safe recursion).
    """

    def __init__(
        self,
        skolems: SkolemTable,
        on_skolem: Optional[Callable[[str, NameTerm, bool], None]] = None,
    ) -> None:
        self.skolems = skolems
        self.on_skolem = on_skolem

    def skolem_id(self, term: SkolemTerm, binding: Binding, deref: bool) -> str:
        """Phase 4: the identifier of *term* under *binding*."""
        identifier = self.skolems.id_for(term.functor, term.args(binding))
        if self.on_skolem is not None:
            self.on_skolem(identifier, term.term, deref)
        return identifier

    def construct(self, head_tree: PChild, group: Sequence[Binding]) -> Child:
        """Build the output tree of *head_tree* for a group of bindings.

        Raises :class:`Unbound` if a plain part of the head cannot be
        built, and :class:`NonDeterminismError` if the group disagrees
        on a single-valued position. A head consisting solely of a
        (de)reference leaf yields a :class:`Ref`, resolved by the
        interpreter at the end of rules processing.
        """
        return self.build(compile_head(head_tree), group)

    def build(self, builder: "HeadBuilder", group: Sequence[Binding]) -> Child:
        """Phase 5 through a compiled head builder (see :meth:`construct`)."""
        if not group:
            raise Unbound("<empty group>")
        return builder(list(group), self)


# ---------------------------------------------------------------------------
# Head builders
# ---------------------------------------------------------------------------

#: A compiled head node: builds the node for a non-empty group.
HeadBuilder = Callable[[List[Binding], Constructor], Child]
#: A compiled head edge: appends the children it builds for a group.
EdgeBuilder = Callable[[List[Binding], Constructor, List[Child]], None]

_ABSENT = object()
_make_tree = Tree._make


def compile_head(node: PChild) -> HeadBuilder:
    """The head builder of one head pattern tree."""
    if isinstance(node, PVarLeaf):
        return _var_leaf(node.var.name)
    if isinstance(node, PNameLeaf):
        return _deref_leaf(SkolemTerm(node.term))
    if isinstance(node, PRefLeaf):
        return _ref_leaf(node.target)
    return _node(node)


def _var_leaf(name: str) -> HeadBuilder:
    what = f"pattern variable {name}"

    def build(group: List[Binding], cons: Constructor) -> Child:
        value = _agreed(name, group, what)
        if isinstance(value, (Tree, Ref)):
            return value
        if not is_label(value):
            raise TypeError(f"invalid tree label: {value!r}")
        return _make_tree(value)

    return build


def _deref_leaf(term: SkolemTerm) -> HeadBuilder:
    def build(group: List[Binding], cons: Constructor) -> Child:
        return deref_placeholder(_agreed_skolem(term, group, True, cons))

    return build


def _ref_leaf(target: Union[NameTerm, PatternVar]) -> HeadBuilder:
    if isinstance(target, PatternVar):
        message = (
            f"cannot build a reference to pattern variable {target.name} "
            f"in a rule head"
        )

        def build_error(group: List[Binding], cons: Constructor) -> Child:
            raise EvaluationError(message)

        return build_error
    term = SkolemTerm(target)

    def build(group: List[Binding], cons: Constructor) -> Child:
        return Ref(_agreed_skolem(term, group, False, cons))

    return build


def _node(node: PNode) -> HeadBuilder:
    label = node.label
    children_of = _children(node.edges)
    if not isinstance(label, Var):

        def build_constant(group: List[Binding], cons: Constructor) -> Child:
            return _make_tree(label, children_of(group, cons))

        return build_constant
    name = label.name
    what = f"variable {name}"
    message = f"variable {name} is bound to a tree but used as a node label"

    def build_variable(group: List[Binding], cons: Constructor) -> Child:
        value = _agreed(name, group, what)
        if not is_label(value):
            raise EvaluationError(message)
        return _make_tree(value, children_of(group, cons))

    return build_variable


def _children(edges: Sequence[PEdge]) -> Callable[[List[Binding], Constructor], Tuple[Child, ...]]:
    """The children a node's edges build for a group, as a tuple."""
    if not edges:
        return _no_children
    if all(edge.kind == ONE for edge in edges):
        targets = tuple(compile_head(edge.target) for edge in edges)
        if len(targets) == 1:
            (target,) = targets

            def one_child(group: List[Binding], cons: Constructor) -> Tuple[Child, ...]:
                return (target(group, cons),)

            return one_child

        def plain_children(group: List[Binding], cons: Constructor) -> Tuple[Child, ...]:
            return tuple([target(group, cons) for target in targets])

        return plain_children
    builders = tuple(_compile_edge(edge) for edge in edges)

    def children(group: List[Binding], cons: Constructor) -> Tuple[Child, ...]:
        out: List[Child] = []
        for build in builders:
            build(group, cons, out)
        return tuple(out)

    return children


def _no_children(group: List[Binding], cons: Constructor) -> Tuple[Child, ...]:
    return ()


def _compile_edge(edge: PEdge) -> EdgeBuilder:
    target = compile_head(edge.target)
    if edge.kind == ONE:

        def build_one(group: List[Binding], cons: Constructor, out: List[Child]) -> None:
            out.append(target(group, cons))

        return build_one
    if edge.kind == STAR:
        # Implicit grouping (Section 4.1, point 3): one child per
        # distinct projection of the bindings onto the variables
        # occurring under the edge — join variables that do not reach
        # the target must not multiply children.
        names = tuple(sorted(var.name for var in collect_variables(edge.target)))

        def build_star(group: List[Binding], cons: Constructor, out: List[Child]) -> None:
            if len(group) == 1 or not names:
                parts: Sequence[List[Binding]] = (group,)
            else:
                partitions: Dict[Tuple, List[Binding]] = {}
                for binding in group:
                    key = binding.project(names)
                    part = partitions.get(key)
                    if part is None:
                        partitions[key] = [binding]
                    else:
                        part.append(binding)
                parts = partitions.values()  # first-occurrence order
            for part in parts:
                try:
                    out.append(target(part, cons))
                except Unbound:
                    pass

        return build_star
    if edge.kind == GROUP:

        def build_group(group: List[Binding], cons: Constructor, out: List[Child]) -> None:
            seen = set()
            for binding in group:
                try:
                    child = target([binding], cons)
                except Unbound:
                    continue
                if child not in seen:
                    seen.add(child)
                    out.append(child)

        return build_group
    # ORDER / INDEX: group by criteria, sort by criteria.
    criteria = [edge.index_var] if edge.kind == INDEX else list(edge.criteria)
    names = tuple(var.name for var in criteria)

    def build_ordered(group: List[Binding], cons: Constructor, out: List[Child]) -> None:
        partitions: Dict[Tuple, List[Binding]] = {}
        for binding in group:
            key = binding.project(names)
            if any(v is None and n not in binding for v, n in zip(key, names)):
                continue  # criteria unbound: skip this binding
            part = partitions.get(key)
            if part is None:
                partitions[key] = [binding]
            else:
                part.append(binding)
        for key in sorted(partitions, key=_criteria_order):
            try:
                out.append(target(partitions[key], cons))
            except Unbound:
                pass

    return build_ordered


def _criteria_order(key: Tuple) -> Tuple:
    return tuple(label_sort_key(value) for value in key)


# -- agreement ----------------------------------------------------------------


def _agreed(name: str, group: List[Binding], what: str) -> Value:
    """The one value the group binds *name* to."""
    if len(group) == 1:
        value = group[0]._items.get(name, _ABSENT)
        if value is _ABSENT:
            raise Unbound(name)
        return value
    first = _ABSENT
    for binding in group:
        value = binding._items.get(name, _ABSENT)
        if value is _ABSENT:
            continue
        if first is _ABSENT:
            first = value
        elif value != first:
            raise NonDeterminismError(
                what,
                f"non-deterministic program: {what} takes two distinct "
                f"values ({first!r} and {value!r}) in one Skolem group",
            )
    if first is _ABSENT:
        raise Unbound(name)
    return first


def _agreed_skolem(
    term: SkolemTerm, group: List[Binding], deref: bool, cons: Constructor
) -> str:
    """The one identifier the group gives *term*. Every binding's
    identifier is allocated (and reported), as each names a value."""
    identifiers = set()
    last: Optional[str] = None
    for binding in group:
        try:
            last = cons.skolem_id(term, binding, deref)
        except Unbound:
            continue
        identifiers.add(last)
    if not identifiers:
        raise Unbound(term.text)
    if len(identifiers) > 1:
        raise NonDeterminismError(
            term.text,
            f"non-deterministic program: Skolem term {term.text} evaluates to "
            f"several identifiers in one group "
            f"({', '.join(sorted(identifiers))})",
        )
    return last  # type: ignore[return-value]
