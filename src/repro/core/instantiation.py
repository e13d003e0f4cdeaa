"""Pattern and model instantiation (Section 2).

"Model Instantiation relies on pattern instantiation which itself relies
on variable domain inclusion. More precisely, (i) each pattern of the
instance model must be an instance of some pattern of the source model
and (ii) a variable can be instantiated either by a constant belonging
to the variable's domain or by a variable whose domain is a subset."

Edge instantiation follows the paper's indicators of occurrence: a plain
edge can only be replaced by a plain edge; a ``*`` edge can be replaced
by **any ordered sequence of edges, with or without label**.

Recursive patterns (``Ptype`` referring to itself through collections,
``Pcar``/``Psup`` referencing each other) make the check co-inductive: a
pair of patterns currently being compared is *assumed* to instantiate —
the greatest-fixpoint reading — which terminates and accepts exactly the
cyclic schemas of Figure 2.
"""

from __future__ import annotations

from functools import partial
from operator import eq
from typing import Callable, Dict, Optional, Sequence, Set, Tuple, Union

from ..errors import InstantiationError, ModelError
from .labels import Label
from .patterns import (
    ONE,
    NameTerm,
    PChild,
    PEdge,
    PNameLeaf,
    PNode,
    Pattern,
    PRefLeaf,
    PVarLeaf,
    edge_one,
)
from .trees import DataStore, Ref, Tree
from .variables import PatternVar, Var

# A "thing being instantiated" is either a pattern child or ground data.
Instance = Union[PChild, Tree, Ref]


class InstantiationContext:
    """Carries the models needed to resolve pattern names during a check.

    ``source_model`` resolves names on the *source* (more general) side,
    ``instance_model`` on the instance side, and ``store`` lets ground
    references be followed when checking actual data.

    Models are any objects exposing ``get_pattern(name) -> Pattern | None``
    (see :mod:`repro.core.models`); plain dicts work too.
    """

    def __init__(
        self,
        source_model=None,
        instance_model=None,
        store: Optional[DataStore] = None,
        lenient: bool = False,
    ) -> None:
        self.source_model = source_model
        self.instance_model = instance_model
        self.store = store
        # Lenient mode (program-composition compatibility, Section 4.3):
        # variable domains only need to *intersect*. Typing in YAT "is
        # in no way constraining" — an untyped variable may well hold
        # values of the required type at run time.
        self.lenient = lenient
        # Co-induction state: pairs assumed true while being explored,
        # plus a cache of settled answers.
        self._assumed: Set[Tuple[object, object]] = set()
        self._settled: Dict[Tuple[object, object], bool] = {}

    # -- name resolution ----------------------------------------------------

    def resolve_source(self, name: str) -> Optional[Pattern]:
        return _lookup(self.source_model, name)

    def resolve_instance(self, name: str) -> Optional[Pattern]:
        # An instance-side name may also be defined in the source model
        # (e.g. checking a single pattern against its own model).
        found = _lookup(self.instance_model, name)
        if found is None:
            found = _lookup(self.source_model, name)
        return found

    # -- co-inductive memoization -------------------------------------------

    def check_pair(self, instance_key: object, source_key: object, compute) -> bool:
        key = (instance_key, source_key)
        if key in self._settled:
            return self._settled[key]
        if key in self._assumed:
            return True  # co-inductive assumption
        self._assumed.add(key)
        try:
            result = compute()
        finally:
            self._assumed.discard(key)
        self._settled[key] = result
        return result


def _lookup(model, name: str) -> Optional[Pattern]:
    if model is None:
        return None
    if isinstance(model, dict):
        return model.get(name)
    getter = getattr(model, "get_pattern", None)
    if getter is None:
        raise ModelError(f"cannot resolve pattern names in {model!r}")
    return getter(name)


# ---------------------------------------------------------------------------
# Ground data <-> ground patterns
# ---------------------------------------------------------------------------


def tree_to_pattern(node: Union[Tree, Ref]) -> PChild:
    """Convert a ground tree into the equivalent ground pattern tree."""
    if isinstance(node, Ref):
        return PRefLeaf(NameTerm(_reference_name(node.target)))
    edges = [edge_one(tree_to_pattern(child)) for child in node.children]
    return PNode(node.label, edges)


def pattern_to_tree(node: PChild) -> Union[Tree, Ref]:
    """Convert a ground pattern tree back into a data tree.

    Raises :class:`InstantiationError` if the pattern is not ground.
    """
    if isinstance(node, PRefLeaf):
        if isinstance(node.target, NameTerm) and not node.target.args:
            return Ref(_dereference_name(node.target.functor))
        raise InstantiationError(f"non-ground reference leaf: {node!r}")
    if not isinstance(node, PNode):
        raise InstantiationError(f"non-ground pattern node: {node!r}")
    if isinstance(node.label, Var):
        raise InstantiationError(f"variable label in ground pattern: {node.label!r}")
    children = []
    for edge in node.edges:
        if edge.kind != ONE:
            raise InstantiationError(f"non-plain edge in ground pattern: {edge!r}")
        children.append(pattern_to_tree(edge.target))
    return Tree(node.label, children)


def _reference_name(target: str) -> str:
    # Data-level names like "s1" are not valid pattern names (they start
    # lowercase); capitalize behind a marker so the round trip is exact.
    return "Ref_" + target


def _dereference_name(functor: str) -> str:
    if functor.startswith("Ref_"):
        return functor[len("Ref_"):]
    return functor


# ---------------------------------------------------------------------------
# The instantiation check
# ---------------------------------------------------------------------------


def is_instance(
    instance: Union[Instance, Pattern],
    source: Union[PChild, Pattern],
    context: Optional[InstantiationContext] = None,
) -> bool:
    """True if *instance* is an instance of *source*.

    Both arguments may be whole patterns (unions), pattern trees, or —
    on the instance side — ground data trees.
    """
    ctx = context or InstantiationContext()
    if isinstance(instance, Pattern) or isinstance(source, Pattern):
        # Memo keys must be structural: keying on id() is unsound when
        # a temporary node is garbage-collected and its address reused
        # within the lifetime of a shared context.
        inst_key = instance.name if isinstance(instance, Pattern) else instance
        src_key = source.name if isinstance(source, Pattern) else source
        inst_alts = (
            instance.alternatives if isinstance(instance, Pattern) else (instance,)
        )
        src_alts = source.alternatives if isinstance(source, Pattern) else (source,)

        def compute() -> bool:
            return all(
                any(_child_instance(i_alt, s_alt, ctx) for s_alt in src_alts)
                for i_alt in inst_alts
            )

        return ctx.check_pair(inst_key, src_key, compute)
    return _child_instance(instance, source, ctx)


def check_instance(
    instance: Union[Instance, Pattern],
    source: Union[PChild, Pattern],
    context: Optional[InstantiationContext] = None,
) -> None:
    """Like :func:`is_instance` but raises on failure."""
    if not is_instance(instance, source, context):
        raise InstantiationError(f"{_describe(instance)} is not an instance of "
                                 f"{_describe(source)}")


def _describe(item: object) -> str:
    if isinstance(item, Pattern):
        return f"pattern {item.name}"
    text = str(item)
    return text if len(text) <= 60 else text[:57] + "..."


def _child_instance(instance: Instance, source: PChild, ctx: InstantiationContext) -> bool:
    # --- source is a pattern-variable leaf: binds any subtree, possibly
    # constrained to a pattern domain.
    if isinstance(source, PVarLeaf):
        domain = source.var.domain_pattern
        if domain is None:
            return True
        resolved = ctx.resolve_source(domain)
        if resolved is None:
            return True
        return _against_pattern(instance, domain, resolved, ctx)

    # --- source is a pattern-name leaf: dereference, check the instance
    # against the named pattern's definition.
    if isinstance(source, PNameLeaf):
        functor = source.term.functor
        resolved = ctx.resolve_source(functor)
        if resolved is None:
            return True  # unresolvable names behave like wildcards
        return _against_pattern(instance, functor, resolved, ctx)

    # --- source is a reference leaf.
    if isinstance(source, PRefLeaf):
        return _reference_instance(instance, source, ctx)

    # --- source is an ordinary node: instance must also be a node (or
    # ground tree, or an instance-side name to expand).
    if isinstance(instance, PNameLeaf):
        definition = ctx.resolve_instance(instance.term.functor)
        if definition is None:
            return False

        def compute() -> bool:
            return all(
                _child_instance(alt, source, ctx) for alt in definition.alternatives
            )

        return ctx.check_pair(instance.term.functor, source, compute)
    if isinstance(instance, PVarLeaf):
        domain = instance.var.domain_pattern
        if domain is None:
            # an unconstrained variable is *more* general — but in
            # lenient mode it may well hold a conforming value
            return ctx.lenient
        definition = ctx.resolve_instance(domain)
        if definition is None:
            return ctx.lenient

        def compute() -> bool:
            return all(
                _child_instance(alt, source, ctx) for alt in definition.alternatives
            )

        return ctx.check_pair(domain, source, compute)
    if isinstance(instance, (PRefLeaf, Ref)):
        return False  # a reference cannot instantiate a plain node

    # instance is PNode or Tree
    if not _label_instance(_label_of(instance), source.label, ctx):
        return False
    instance_edges = _edges_of(instance)
    return _edges_instance(instance_edges, source.edges, ctx)


def _against_pattern(
    instance: Instance, name: str, pattern: Pattern, ctx: InstantiationContext
) -> bool:
    if isinstance(instance, (PNameLeaf,)):
        # name-vs-name: co-inductive pattern comparison
        definition = ctx.resolve_instance(instance.term.functor)
        if instance.term.functor == name:
            return True
        if definition is None:
            return False

        def compute() -> bool:
            return all(
                any(
                    _child_instance(i_alt, s_alt, ctx)
                    for s_alt in pattern.alternatives
                )
                for i_alt in definition.alternatives
            )

        return ctx.check_pair(instance.term.functor, name, compute)
    if isinstance(instance, PVarLeaf) and instance.var.domain_pattern is not None:
        if instance.var.domain_pattern == name:
            return True
        definition = ctx.resolve_instance(instance.var.domain_pattern)
        if definition is None:
            return False

        def compute() -> bool:
            return all(
                any(
                    _child_instance(i_alt, s_alt, ctx)
                    for s_alt in pattern.alternatives
                )
                for i_alt in definition.alternatives
            )

        return ctx.check_pair(instance.var.domain_pattern, name, compute)

    inst_key = _instance_key(instance)

    def compute() -> bool:
        return any(
            _child_instance(instance, alt, ctx) for alt in pattern.alternatives
        )

    if inst_key is None:
        return compute()
    return ctx.check_pair(inst_key, name, compute)


def _instance_key(instance: Instance) -> Optional[object]:
    """A hashable *structural* identity for memoization (never id():
    object addresses are reused after garbage collection)."""
    if isinstance(instance, (Tree, Ref)):
        return ("data", instance)
    return ("node", instance)


def _reference_instance(
    instance: Instance, source: PRefLeaf, ctx: InstantiationContext
) -> bool:
    target = source.target
    # Ground data reference.
    if isinstance(instance, Ref):
        if isinstance(target, NameTerm):
            resolved = ctx.resolve_source(target.functor)
            if resolved is None or ctx.store is None:
                return True
            referenced = ctx.store.get_optional(instance.target)
            if referenced is None:
                return True  # cannot check a dangling ref structurally

            def compute() -> bool:
                return any(
                    _child_instance(referenced, alt, ctx)
                    for alt in resolved.alternatives
                )

            return ctx.check_pair(("ref", instance.target), target.functor, compute)
        return True  # a pattern-variable reference matches any reference
    # Pattern-level reference leaf.
    if isinstance(instance, PRefLeaf):
        if isinstance(target, PatternVar):
            return True  # a pattern-variable reference matches any reference
        # target is a NameTerm; the instance target may be a NameTerm or
        # a binding pattern variable whose name designates a pattern of
        # the instance model (a rule body's `&Psup` reference).
        if isinstance(instance.target, NameTerm):
            inst_name = instance.target.functor
        else:
            inst_name = instance.target.name
        if inst_name == target.functor:
            return True
        inst_def = ctx.resolve_instance(inst_name)
        src_def = ctx.resolve_source(target.functor)
        if src_def is None:
            return True
        if inst_def is None:
            # Unknown instance-side pattern: accept optimistically.
            # "Typing in YAT is in no way constraining" (Section 3.5),
            # and customization must work with patterns referencing
            # names the system has no knowledge of (footnote 3).
            return True

        def compute() -> bool:
            return all(
                any(
                    _child_instance(i_alt, s_alt, ctx)
                    for s_alt in src_def.alternatives
                )
                for i_alt in inst_def.alternatives
            )

        return ctx.check_pair(inst_name, target.functor, compute)
    return False


def _label_of(instance: Union[PNode, Tree]) -> Union[Label, Var]:
    return instance.label


def _edges_of(instance: Union[PNode, Tree]) -> Sequence:
    # Data children are handled directly by the sequence matcher, which
    # treats each of them as a single plain-edge occurrence.
    if isinstance(instance, Tree):
        return instance.children
    return instance.edges


def _label_instance(
    instance_label: Union[Label, Var],
    source_label: Union[Label, Var],
    ctx: Optional[InstantiationContext] = None,
) -> bool:
    """Variable instantiation: "a variable can be instantiated either by
    a constant belonging to the variable's domain or by a variable whose
    domain is a subset". In lenient mode (composition compatibility),
    intersecting domains are enough."""
    lenient = ctx.lenient if ctx is not None else False
    if isinstance(source_label, Var):
        if isinstance(instance_label, Var):
            if lenient:
                return instance_label.domain.intersects(source_label.domain)
            return instance_label.domain.subset_of(source_label.domain)
        return source_label.domain.contains(instance_label)
    if isinstance(instance_label, Var):
        if lenient:
            return instance_label.domain.contains(source_label)
        return False  # a variable cannot instantiate a constant
    return instance_label == source_label


def _edges_instance(
    instance_edges: Sequence, source_edges: Sequence[PEdge], ctx: InstantiationContext
) -> bool:
    """Sequence matching of instance edges against source edges.

    A plain source edge consumes exactly one instance edge which must
    itself be plain; a ``*`` source edge consumes any run of instance
    edges of any kind. ``{}``/``[crit]``/index source edges behave like
    ``*`` for instantiation purposes (they also denote "zero or more").
    """
    return _edges_from(instance_edges, source_edges, 0, 0, {}, ctx)


def _edges_from(
    instance_edges: Sequence,
    source_edges: Sequence[PEdge],
    i: int,
    j: int,
    memo: Dict[Tuple[int, int], bool],
    ctx: InstantiationContext,
) -> bool:
    """Can ``instance_edges[i:]`` be aligned with ``source_edges[j:]``?
    Module-level (not a closure in :func:`_edges_instance`) so that no
    reference cycle outlives the call."""
    key = (i, j)
    if key in memo:
        return memo[key]
    n = len(instance_edges)
    if j == len(source_edges):
        result = i == n
    else:
        edge = source_edges[j]
        if edge.kind == ONE:
            result = (
                i < n
                and _edge_kind(instance_edges[i]) == ONE
                and _child_instance(_edge_target(instance_edges[i]), edge.target, ctx)
                and _edges_from(instance_edges, source_edges, i + 1, j + 1, memo, ctx)
            )
        else:
            # star-like: try consuming 0..k instance edges
            result = _edges_from(instance_edges, source_edges, i, j + 1, memo, ctx)
            k = i
            while not result and k < n:
                target = _edge_target(instance_edges[k])
                if not _child_instance(target, edge.target, ctx):
                    break
                k += 1
                result = _edges_from(instance_edges, source_edges, k, j + 1, memo, ctx)
    memo[key] = result
    return result


def _edge_target(item) -> Instance:
    # instance edges may be PEdge (pattern) or Tree/Ref children (data)
    if isinstance(item, PEdge):
        return item.target
    return item


def _edge_kind(item) -> str:
    if isinstance(item, PEdge):
        return item.kind
    return ONE  # data children count as single occurrences


# ---------------------------------------------------------------------------
# Model-level instantiation
# ---------------------------------------------------------------------------


def model_is_instance(
    instance_model,
    source_model,
    store: Optional[DataStore] = None,
    lenient: bool = False,
) -> bool:
    """True if every pattern of *instance_model* instantiates some pattern
    of *source_model* (the paper's model-instantiation condition)."""
    ctx = InstantiationContext(source_model, instance_model, store, lenient=lenient)
    source_patterns = list(_patterns_of(source_model))
    for pattern in _patterns_of(instance_model):
        if not any(is_instance(pattern, source, ctx) for source in source_patterns):
            return False
    return True


def check_model_instance(instance_model, source_model) -> None:
    if not model_is_instance(instance_model, source_model):
        raise InstantiationError(
            f"{instance_model!r} is not an instance of {source_model!r}"
        )


def _patterns_of(model):
    if isinstance(model, dict):
        return list(model.values())
    getter = getattr(model, "patterns", None)
    if getter is None:
        raise ModelError(f"not a model: {model!r}")
    result = getter() if callable(getter) else getter
    return list(result)


# ---------------------------------------------------------------------------
# Compiled checks of ground data (run-time typing)
# ---------------------------------------------------------------------------

#: A compiled check: is a data node an instance of one pattern child?
#: Called with the node and the checker it was compiled by, so that no
#: compiled closure references its checker (no reference cycles).
DataCheck = Callable[[Union[Tree, Ref], "DataChecker"], bool]


class DataChecker:
    """Run-time checks of ground data against the named patterns of one
    model: :func:`is_instance` on data, compiled once per pattern.

    Each pattern child compiles to a function with its kind dispatch
    and its label test resolved at compile time. A pattern that reaches no pattern name (``Patomic``) is
    checked without memoization: the answer depends on the node alone.
    The others (``Ptype`` reaches ``&Pclass``) recurse through names and
    references, and keep :class:`InstantiationContext`'s co-inductive
    bookkeeping, keys included: on a reference cycle through an
    ill-typed object, the answers depend on what was assumed and settled
    first, and they must stay those of :func:`is_instance`.
    """

    def __init__(self, model, store: Optional[DataStore] = None) -> None:
        self.model = model
        self.store = store
        self._context = InstantiationContext(source_model=model, store=store)
        #: pattern name -> (check of the pattern's alternatives, memoized?)
        self._patterns: Dict[str, Tuple[DataCheck, bool]] = {}

    def check(self, node: Union[Tree, Ref], name: str) -> Optional[bool]:
        """``is_instance(node, model.pattern(name))``, or None when the
        model defines no such pattern (a wildcard: typing is optional,
        Section 3.5)."""
        entry = self._patterns.get(name)
        if entry is None:
            if not self.defines(name):
                return None
            entry = self._compile_pattern(name)
        check, memoized = entry
        if not memoized:
            return check(node, self)
        return self._context.check_pair(node, name, partial(check, node, self))

    def defines(self, name: str) -> bool:
        return _lookup(self.model, name) is not None

    # -- compilation --------------------------------------------------------

    def _entry(self, name: str) -> Tuple[DataCheck, bool]:
        entry = self._patterns.get(name)
        return entry if entry is not None else self._compile_pattern(name)

    def _compile_pattern(self, name: str) -> Tuple[DataCheck, bool]:
        pattern = _lookup(self.model, name)
        if pattern is None:
            raise ModelError(f"no pattern {name!r} to check against")
        checks = tuple(self._compile(alt) for alt in pattern.alternatives)
        memoized = not all(_self_contained(alt) for alt in pattern.alternatives)
        entry = (checks[0] if len(checks) == 1 else partial(_first_passing, checks),
                 memoized)
        self._patterns[name] = entry
        return entry

    def _compile(self, source: PChild) -> DataCheck:
        # Names compile to a run-time lookup of their pattern's entry, so
        # a recursive pattern compiles without reaching itself.
        if isinstance(source, PVarLeaf):
            domain = source.var.domain_pattern
            if domain is None or not self.defines(domain):
                return _always
            return partial(_nested, domain)
        if isinstance(source, PNameLeaf):
            functor = source.term.functor
            if not self.defines(functor):
                return _always  # unresolvable names behave like wildcards
            return partial(_nested, functor)
        if isinstance(source, PRefLeaf):
            target = source.target
            if isinstance(target, NameTerm):
                if not self.defines(target.functor) or self.store is None:
                    return _is_ref
                return partial(_referenced, target.functor)
            return _is_ref
        label = source.label
        if isinstance(label, Var):
            label_ok: Callable[[Label], bool] = label.domain.contains
        else:
            label_ok = partial(eq, label)
        if not source.edges:
            return partial(_leaf_node, label_ok)
        kinds = tuple(edge.kind for edge in source.edges)
        targets = tuple(self._compile(edge.target) for edge in source.edges)
        return partial(_inner_node, label_ok, kinds, targets)


def _self_contained(source: PChild) -> bool:
    """Does checking *source* reach no pattern name (so no memo and no
    co-induction can change its answer)?"""
    if isinstance(source, PVarLeaf):
        return source.var.domain_pattern is None
    if isinstance(source, PNameLeaf):
        return False
    if isinstance(source, PRefLeaf):
        return not isinstance(source.target, NameTerm)
    return all(_self_contained(edge.target) for edge in source.edges)


def _nested(name: str, node: Union[Tree, Ref], checker: DataChecker) -> bool:
    """A name (or a pattern variable's domain) inside a pattern: as
    :func:`_against_pattern` on data."""
    check, memoized = checker._entry(name)
    if not memoized:
        return check(node, checker)
    return checker._context.check_pair(
        ("data", node), name, partial(check, node, checker)
    )


def _referenced(functor: str, node: Union[Tree, Ref], checker: DataChecker) -> bool:
    """``&Name`` inside a pattern: as :func:`_reference_instance` on
    data."""
    if not isinstance(node, Ref):
        return False
    referenced = checker.store.get_optional(node.target)  # type: ignore[union-attr]
    if referenced is None:
        return True  # cannot check a dangling ref structurally
    check = checker._entry(functor)[0]
    return checker._context.check_pair(
        ("ref", node.target), functor, partial(check, referenced, checker)
    )


def _always(node: Union[Tree, Ref], checker: DataChecker) -> bool:
    return True


def _is_ref(node: Union[Tree, Ref], checker: DataChecker) -> bool:
    return isinstance(node, Ref)


def _first_passing(
    checks: Tuple[DataCheck, ...], node: Union[Tree, Ref], checker: DataChecker
) -> bool:
    for check in checks:
        if check(node, checker):
            return True
    return False


def _leaf_node(label_ok, node: Union[Tree, Ref], checker: DataChecker) -> bool:
    return isinstance(node, Tree) and label_ok(node.label) and not node.children


def _inner_node(
    label_ok, kinds: Tuple[str, ...], targets: Tuple[DataCheck, ...],
    node: Union[Tree, Ref], checker: DataChecker,
) -> bool:
    if isinstance(node, Ref) or not label_ok(node.label):
        return False
    return _align(node.children, kinds, targets, checker, 0, 0, {})


def _align(
    children: Sequence,
    kinds: Tuple[str, ...],
    targets: Tuple[DataCheck, ...],
    checker: DataChecker,
    i: int,
    j: int,
    memo: Dict[Tuple[int, int], bool],
) -> bool:
    """:func:`_edges_from` over data children, with compiled targets."""
    key = (i, j)
    if key in memo:
        return memo[key]
    n = len(children)
    if j == len(kinds):
        result = i == n
    elif kinds[j] == ONE:
        result = (
            i < n
            and targets[j](children[i], checker)
            and _align(children, kinds, targets, checker, i + 1, j + 1, memo)
        )
    else:
        result = _align(children, kinds, targets, checker, i, j + 1, memo)
        k = i
        while not result and k < n:
            if not targets[j](children[k], checker):
                break
            k += 1
            result = _align(children, kinds, targets, checker, k, j + 1, memo)
    memo[key] = result
    return result


def tree_is_instance(
    node: Union[Tree, Ref],
    source: Union[PChild, Pattern],
    model=None,
    store: Optional[DataStore] = None,
) -> bool:
    """Check a ground data tree against a pattern (with optional model
    for resolving pattern names and store for following references)."""
    ctx = InstantiationContext(source_model=model, store=store)
    return is_instance(node, source, ctx)
