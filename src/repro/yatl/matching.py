"""Body pattern matching (Section 3.1, phase 1).

Matching filters the input data: each body pattern is matched against
ground trees, producing the set of variable bindings the rest of the
rule machinery works on. The semantics follow Figure 3:

* plain edges consume exactly one child;
* ``*`` edges consume a run of children, **each** of which must match
  the edge's target and yields its own binding (one binding per
  supplier in Figure 3) — an empty run passes the current binding
  through unchanged, giving active-domain semantics for collections;
* index edges ``(I)`` behave like ``*`` and additionally bind the
  1-based position of each matched child (Rule 5);
* several body patterns join through shared variables (Rule 3), and a
  body pattern whose name is bound by a ``&``-leaf of another pattern
  matches the *referenced* tree (rule Web6).

A pattern is matched through its *match program*: one closure per
pattern node, compiled by :func:`compile_match` with the dispatch on
pattern kind (variable leaf, name leaf, reference leaf, constant or
variable label, edge kinds) resolved at compile time. A rule compiles
its body once, on first application, and caches the program in its
plan (:meth:`Rule.plan`). A closure captures only the programs of its
children, never itself, so programs are acyclic and reference counting
frees them with their rule.

A typed pattern variable (``P2:Ptype``) checks the subtree it binds
against its domain pattern (Section 3.5), through the run's compiled
:class:`~repro.core.instantiation.DataChecker`. When the input store's
model tag already implies the check (:func:`~repro.yatl.typing.discharged_checks`),
the rule runs a variant of its program compiled without it.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..core.instantiation import DataChecker
from ..core.patterns import (
    INDEX,
    ONE,
    NameTerm,
    PChild,
    PEdge,
    PNameLeaf,
    PNode,
    PRefLeaf,
    PVarLeaf,
)
from ..core.trees import DataStore, Ref, Tree
from ..core.variables import AnyDomain, PatternVar, Var
from ..errors import EvaluationError
from .ast import Rule
from .bindings import Binding, dedup_bindings

Child = Union[Tree, Ref]
#: A compiled pattern node: all extensions of a binding under which a
#: data node matches the node, without duplicates.
Matcher = Callable[[Child, Binding, "MatchContext"], List[Binding]]
#: A compiled edge list: all alignments of the edges with the children
#: of a data node, before deduplication.
EdgeProgram = Callable[[Sequence[Child], Binding, "MatchContext"], List[Binding]]
#: A node of a body pattern tree: the edge indexes leading to it from
#: the pattern's root.
Path = Tuple[int, ...]
#: A node of a rule body: (body pattern index, path in that pattern).
Position = Tuple[int, Path]


class MatchContext:
    """What the matcher needs besides the pattern: the store (to follow
    references), optionally a model (to check typed pattern variables
    and pattern-name leaves), and the domain checks the store's model
    tag discharges, per rule name."""

    def __init__(
        self,
        store: Optional[DataStore] = None,
        model=None,
        discharged: Optional[Dict[str, FrozenSet[Position]]] = None,
    ) -> None:
        self.store = store
        self.model = model
        self.discharged: Dict[str, FrozenSet[Position]] = discharged or {}
        self._checker: Optional[DataChecker] = None
        # Typing accounting, per domain pattern name, flushed like the
        # memo hits below: checks run through the checker, and checks a
        # discharged variable leaf left out.
        self.checks_run: Dict[str, int] = {}
        self.checks_discharged: Dict[str, int] = {}
        # Memoized structural coverage: (target program, data node) ->
        # bool. Used when a collection child conflicts with bound join
        # variables and only shape matters (see _covers). Keyed by the
        # program object itself, which the key keeps alive: an id()
        # could be reused by a later program within this context.
        self._coverage: Dict[Tuple[Matcher, Child], bool] = {}
        # Memo-effectiveness accounting. A plain int: the probe runs
        # per (pattern, subject) pair, so the interpreter flushes it
        # into the run's MetricsRegistry once, at the end.
        #
        # There used to be a second memo here, over *root* match
        # failures. With the dispatch index on, candidates are
        # label-filtered before they reach the matcher, so the memo
        # never fired (BENCH_PR7: root_memo_hits stayed 0 with a 1.0
        # dispatch hit ratio) while every root rejection still paid a
        # set insert keyed by a full subject hash. It was removed
        # rather than made index-aware; tests/yatl/test_dispatch.py
        # pins the removal.
        self.coverage_memo_hits = 0

    def instance_check(self, node: Union[Tree, Ref], pattern_name: str) -> bool:
        """Check *node* against a named model pattern; unresolvable
        names behave like wildcards (typing is optional, Section 3.5)."""
        if self.model is None:
            return True
        checker = self._checker
        if checker is None:
            checker = self._checker = DataChecker(self.model, self.store)
        verdict = checker.check(node, pattern_name)
        if verdict is None:
            return True
        counts = self.checks_run
        counts[pattern_name] = counts.get(pattern_name, 0) + 1
        return verdict

    def resolve(self, ref: Ref) -> Optional[Tree]:
        if self.store is None:
            return None
        return self.store.get_optional(ref.target)


# ---------------------------------------------------------------------------
# Match programs: pattern nodes
# ---------------------------------------------------------------------------


def compile_match(
    pattern: PChild, discharged: FrozenSet[Path] = frozenset(), path: Path = ()
) -> Matcher:
    """The match program of one pattern tree (at *path* in its body
    pattern), leaving out the domain checks of the variable leaves at
    the *discharged* paths."""
    if isinstance(pattern, PVarLeaf):
        return _var_leaf(pattern.var, path in discharged)
    if isinstance(pattern, PNameLeaf):
        return _name_leaf(pattern.term)
    if isinstance(pattern, PRefLeaf):
        return _ref_leaf(pattern.target)
    return _node(pattern, discharged, path)


def _var_leaf(var: PatternVar, discharged: bool) -> Matcher:
    """A pattern variable leaf binds the whole subtree, possibly after
    checking it against the variable's domain pattern; a discharged
    check is only counted."""
    name, domain = var.name, var.domain_pattern
    if domain is not None and discharged:

        def match_discharged(
            node: Child, binding: Binding, ctx: MatchContext
        ) -> List[Binding]:
            counts = ctx.checks_discharged
            counts[domain] = counts.get(domain, 0) + 1
            extended = binding.bind_name(name, node)
            return [extended] if extended is not None else []

        return match_discharged

    def match(node: Child, binding: Binding, ctx: MatchContext) -> List[Binding]:
        if domain is not None and not ctx.instance_check(node, domain):
            return []
        extended = binding.bind_name(name, node)
        return [extended] if extended is not None else []

    return match


def _name_leaf(term: NameTerm) -> Matcher:
    """A pattern-name leaf (dereferencing) is a structural type check."""
    if term.args:
        return _raising(f"Skolem term {term} cannot be matched in a body")
    functor = term.functor

    def match(node: Child, binding: Binding, ctx: MatchContext) -> List[Binding]:
        return [binding] if ctx.instance_check(node, functor) else []

    return match


def _raising(message: str, refs_only: bool = False) -> Matcher:
    """A leaf no body can match: raises when matching reaches it (and,
    with *refs_only*, only when the data there is a reference)."""

    def match(node: Child, binding: Binding, ctx: MatchContext) -> List[Binding]:
        if refs_only and not isinstance(node, Ref):
            return []
        raise EvaluationError(message)

    return match


def _ref_leaf(target: Union[NameTerm, PatternVar]) -> Matcher:
    """A reference leaf only matches a reference. ``&Pname`` checks the
    referenced tree against the named pattern (a dangling reference
    cannot be checked and passes); a pattern-variable target ``&P``
    binds the *referenced* tree."""
    if isinstance(target, NameTerm):
        if target.args:
            return _raising(
                f"Skolem reference &{target} cannot be matched in a body",
                refs_only=True,
            )
        functor = target.functor

        def match_named(
            node: Child, binding: Binding, ctx: MatchContext
        ) -> List[Binding]:
            if not isinstance(node, Ref):
                return []
            referenced = ctx.resolve(node)
            if referenced is None or ctx.instance_check(referenced, functor):
                return [binding]
            return []

        return match_named
    name, domain = target.name, target.domain_pattern

    def match_bound(node: Child, binding: Binding, ctx: MatchContext) -> List[Binding]:
        if not isinstance(node, Ref):
            return []
        referenced = ctx.resolve(node)
        if referenced is None:
            return []
        if domain is not None and not ctx.instance_check(referenced, domain):
            return []
        extended = binding.bind_name(name, referenced)
        return [extended] if extended is not None else []

    return match_bound


def _node(pattern: PNode, discharged: FrozenSet[Path], path: Path) -> Matcher:
    """An ordinary node: a constant label must equal the data label; a
    variable label binds it (within the variable's domain). A pattern
    leaf only matches a data leaf; otherwise the edges are aligned with
    the children and the alignments deduplicated — except behind a
    single plain edge, whose target's alignments come deduplicated."""
    label = pattern.label
    edges = _compile_edges(pattern.edges, discharged, path) if pattern.edges else None
    dedup = not (len(pattern.edges) == 1 and pattern.edges[0].kind == ONE)
    if not isinstance(label, Var):

        def match_constant(
            node: Child, binding: Binding, ctx: MatchContext
        ) -> List[Binding]:
            if isinstance(node, Ref) or label != node.label:
                return []
            if edges is None:
                return [] if node.children else [binding]
            results = edges(node.children, binding, ctx)
            return dedup_bindings(results) if dedup and len(results) > 1 else results

        return match_constant
    name = label.name
    # Every tree label is a symbol or an atom, so the unrestricted
    # domain needs no check.
    domain = None if isinstance(label.domain, AnyDomain) else label.domain

    def match_variable(
        node: Child, binding: Binding, ctx: MatchContext
    ) -> List[Binding]:
        if isinstance(node, Ref):
            return []
        value = node.label
        if domain is not None and not domain.contains(value):
            return []
        extended = binding.bind_name(name, value)
        if extended is None:
            return []
        if edges is None:
            return [] if node.children else [extended]
        results = edges(node.children, extended, ctx)
        return dedup_bindings(results) if dedup and len(results) > 1 else results

    return match_variable


# ---------------------------------------------------------------------------
# Match programs: edge alignment
# ---------------------------------------------------------------------------
#
# Every child must be consumed by some edge (full structural coverage,
# as in the instantiation semantics of Section 2). A plain edge consumes
# one child. A star-like edge (STAR, INDEX, and GROUP/ORDER appearing in
# a body behave as "zero or more") consumes a run of children; each
# child contributes its own bindings ("one binding per supplier"), and a
# child that matches the target's *shape* but conflicts with already
# bound join variables (Rule 3's shared ``SN``) is covered without
# contributing. A structural mismatch ends the run: longer runs fail too.
#
# The alignments are enumerated depth first, in the order of the
# original backtracking search. Three shapes are compiled:
#
# * only plain edges: the children pair up with the edges one to one;
# * a star-like edge followed by plain edges only: the run length is
#   fixed (the children the plain edges leave over), so only the full
#   run is aligned;
# * a star-like edge followed by another one: every run length is
#   tried, as a chain of steps, each calling the next.


def _compile_edges(
    edges: Sequence[PEdge],
    discharged: FrozenSet[Path] = frozenset(),
    path: Path = (),
) -> EdgeProgram:
    targets = [
        compile_match(edge.target, discharged, path + (index,))
        for index, edge in enumerate(edges)
    ]
    if all(edge.kind == ONE for edge in edges):
        return _plain_edges(tuple(targets))
    step = _end
    for position in range(len(edges) - 1, -1, -1):
        edge, target = edges[position], targets[position]
        rest = edges[position + 1:]
        if edge.kind == ONE:
            step = _plain_step(target, step)
        elif all(later.kind == ONE for later in rest):
            step = _fixed_run_step(target, _index_name(edge), len(rest), step)
        else:
            remaining_one = sum(1 for later in rest if later.kind == ONE)
            step = _run_step(target, _index_name(edge), remaining_one, step)
    first = step

    def align(children, binding: Binding, ctx: MatchContext) -> List[Binding]:
        results: List[Binding] = []
        first(children, 0, binding, ctx, results)
        return results

    return align


def _index_name(edge: PEdge) -> Optional[str]:
    return edge.index_var.name if edge.kind == INDEX else None


def _plain_edges(targets: Tuple[Matcher, ...]) -> EdgeProgram:
    count = len(targets)
    if count == 1:
        (target,) = targets

        def align_one(children, binding: Binding, ctx: MatchContext) -> List[Binding]:
            if len(children) != 1:
                return []
            return target(children[0], binding, ctx)

        return align_one

    def align_plain(children, binding: Binding, ctx: MatchContext) -> List[Binding]:
        if len(children) != count:
            return []
        envs = [binding]
        for target, child in zip(targets, children):
            if len(envs) == 1:
                envs = target(child, envs[0], ctx)
            else:
                extended: List[Binding] = []
                for env in envs:
                    extended.extend(target(child, env, ctx))
                envs = extended
            if not envs:
                break
        return envs

    return align_plain


def _collect_run(
    target: Matcher,
    index: Optional[str],
    children: Sequence[Child],
    start: int,
    stop: int,
    env: Binding,
    ctx: MatchContext,
) -> Optional[List[Binding]]:
    """The bindings ``children[start:stop]`` contribute as one run of a
    star-like edge, or None if the run fails to cover a child."""
    collected: List[Binding] = []
    for position in range(start, stop):
        child = children[position]
        if index is not None:
            bound = env.bind_name(index, position + 1)
            if bound is None:
                # an index conflict skips the child (diagonal
                # selection); coverage still requires its shape
                if not _covers(target, child, ctx):
                    return None
                matches: List[Binding] = []
            else:
                matches = target(child, bound, ctx)
        else:
            matches = target(child, env, ctx)
        if matches:
            collected.extend(matches)
        elif not _covers(target, child, ctx):
            return None
    return collected


def _end(children, ci: int, env: Binding, ctx: MatchContext, results: List[Binding]) -> None:
    if ci == len(children):
        results.append(env)


def _plain_step(target: Matcher, rest):
    def step(children, ci, env, ctx, results) -> None:
        if ci < len(children):
            for extended in target(children[ci], env, ctx):
                rest(children, ci + 1, extended, ctx, results)

    return step


def _fixed_run_step(target: Matcher, index: Optional[str], remaining_one: int, rest):
    def step(children, ci, env, ctx, results) -> None:
        stop = len(children) - remaining_one
        if stop == ci:
            rest(children, ci, env, ctx, results)
        elif stop > ci:
            collected = _collect_run(target, index, children, ci, stop, env, ctx)
            for extended in collected or ():
                rest(children, stop, extended, ctx, results)

    return step


def _run_step(target: Matcher, index: Optional[str], remaining_one: int, rest):
    def step(children, ci, env, ctx, results) -> None:
        rest(children, ci, env, ctx, results)  # run of length 0
        collected: List[Binding] = []
        for position in range(ci, len(children) - remaining_one):
            child = children[position]
            if index is not None:
                bound = env.bind_name(index, position + 1)
                if bound is None:
                    if not _covers(target, child, ctx):
                        break
                    matches: List[Binding] = []
                else:
                    matches = target(child, bound, ctx)
            else:
                matches = target(child, env, ctx)
            if not matches and not _covers(target, child, ctx):
                break
            collected.extend(matches)
            # a run whose children all conflicted with the join is
            # covered but contributes no bindings (collected empty)
            for extended in collected:
                rest(children, position + 1, extended, ctx, results)

    return step


def _covers(target: Matcher, child: Child, ctx: MatchContext) -> bool:
    """Memoized structural coverage: does *child* match the shape of
    *target* under a fresh binding?"""
    key = (target, child)
    cached = ctx._coverage.get(key)
    if cached is None:
        cached = bool(target(child, Binding.EMPTY, ctx))
        ctx._coverage[key] = cached
    else:
        ctx.coverage_memo_hits += 1
    return cached


# ---------------------------------------------------------------------------
# Match programs: rule bodies
# ---------------------------------------------------------------------------


class BodyProgram:
    """Phase 1 of a rule: its body patterns' match programs, joined on
    shared variables.

    *Root* body patterns (those whose name is not bound by a leaf of
    another pattern) range over the input trees; dependent patterns
    match the tree their name variable is already bound to. The domain
    checks at the *discharged* positions are left out."""

    __slots__ = ("rule_name", "patterns")

    def __init__(self, rule: Rule, discharged: FrozenSet[Position] = frozenset()) -> None:
        roots = {bp.name.name for bp in rule.root_body_patterns()}
        self.rule_name = rule.name
        #: (name, is_root, match program) per body pattern, in order
        self.patterns: Tuple[Tuple[str, bool, Matcher], ...] = tuple(
            (
                bp.name.name,
                bp.name.name in roots,
                compile_match(
                    bp.tree,
                    frozenset(path for at, path in discharged if at == index),
                ),
            )
            for index, bp in enumerate(rule.body)
        )

    def match(self, input_trees: Sequence[Child], ctx: MatchContext) -> List[Binding]:
        envs: List[Binding] = [Binding.EMPTY]
        pending = list(self.patterns)
        progress = True
        while pending and progress:
            progress = False
            still_pending = []
            for pattern in pending:
                name, is_root = pattern[0], pattern[1]
                if not is_root and not any(name in env for env in envs):
                    still_pending.append(pattern)
                    continue
                envs = _apply_body_pattern(pattern, envs, input_trees, ctx)
                progress = True
            pending = still_pending
            if not envs:
                return []
        if pending:
            names = ", ".join(pattern[0] for pattern in pending)
            raise EvaluationError(
                f"rule {self.rule_name!r}: body pattern(s) {names} depend on "
                f"names never bound by any other pattern"
            )
        return dedup_bindings(envs) if len(envs) > 1 else envs


def _apply_body_pattern(
    pattern: Tuple[str, bool, Matcher],
    envs: List[Binding],
    input_trees: Sequence[Child],
    ctx: MatchContext,
) -> List[Binding]:
    name, is_root, match = pattern
    extended: List[Binding] = []
    for env in envs:
        bound = env.get(name)
        if bound is not None:
            candidates: Sequence = (bound,)
        elif is_root:
            candidates = input_trees
        else:
            continue  # dependent pattern with an unbound name: no match
        for candidate in candidates:
            if not isinstance(candidate, (Tree, Ref)):
                continue
            named = env.bind_name(name, candidate)
            if named is None:
                continue
            matches = match(candidate, named, ctx)
            if not matches and isinstance(candidate, Ref):
                # A pattern over the *referenced* tree: follow the
                # reference when the direct (reference-leaf) match fails.
                resolved = ctx.resolve(candidate)
                if resolved is not None:
                    renamed = env.bind_name(name, resolved)
                    if renamed is not None:
                        matches = match(resolved, renamed, ctx)
            extended.extend(matches)
    return extended


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def match_child(
    pattern: PChild,
    node: Child,
    binding: Binding,
    ctx: MatchContext,
) -> List[Binding]:
    """All extensions of *binding* under which *node* matches *pattern*."""
    return compile_match(pattern)(node, binding, ctx)


def match_edges(
    edges: Sequence[PEdge],
    children: Sequence[Child],
    binding: Binding,
    ctx: MatchContext,
) -> List[Binding]:
    """Align pattern edges with the ordered children of a data node
    (see the alignment rules above), deduplicated."""
    results = _compile_edges(edges)(children, binding, ctx)
    return dedup_bindings(results) if len(results) > 1 else results


def match_body(
    rule: Rule,
    input_trees: Sequence[Child],
    ctx: MatchContext,
) -> List[Binding]:
    """Phase 1: match every body pattern of *rule*, joining on shared
    variables, through the rule's cached plan."""
    return rule.plan().body.match(input_trees, ctx)
