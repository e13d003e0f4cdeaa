"""Cycle detection for YATL programs (Section 3.4).

Statically detecting all cyclic programs is undecidable, so the paper
uses a conservative two-step test:

1. build the **dependency graph of dereferenced Skolems**: functor F
   depends on functor G when some rule with head functor F contains a
   dereferencing (non-``&``) occurrence of G in its head;
2. if the graph is cyclic, the cycle is acceptable only for
   **safe-recursive** rules: the defining rules' Skolem functor takes a
   single parameter which is a body pattern name, and every recursive
   dereference argument is a pattern variable bound strictly *below* the
   root of a body pattern — so recursion descends into subtrees of a
   finite input and terminates.

Programs failing both tests are rejected with
:class:`~repro.errors.CyclicProgramError`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..core.patterns import PChild, PNode, PRefLeaf, PVarLeaf
from ..core.variables import PatternVar, Var
from ..errors import CyclicProgramError
from .ast import Rule


def dereference_dependencies(rules: Sequence[Rule]) -> Dict[str, Set[str]]:
    """The dependency graph of dereferenced Skolems, as adjacency sets."""
    graph: Dict[str, Set[str]] = {}
    for rule in rules:
        if rule.head is None:
            continue
        functor = rule.head.term.functor
        graph.setdefault(functor, set())
        for term, is_reference in rule.head.skolem_occurrences():
            if not is_reference:
                graph[functor].add(term.functor)
    return graph


def find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components of size > 1, plus self-loops."""
    tarjan = _Tarjan(graph)
    for node in sorted(graph):
        if node not in tarjan.index:
            tarjan.strongconnect(node)
    return tarjan.components


class _Tarjan:
    """Tarjan's algorithm state. A class rather than a recursive
    closure: a closure that calls itself is a reference cycle, which
    only the cyclic garbage collector can free."""

    def __init__(self, graph: Dict[str, Set[str]]) -> None:
        self.graph = graph
        self.counter = 0
        self.stack: List[str] = []
        self.lowlink: Dict[str, int] = {}
        self.index: Dict[str, int] = {}
        self.on_stack: Set[str] = set()
        self.components: List[List[str]] = []

    def strongconnect(self, node: str) -> None:
        graph, index, lowlink = self.graph, self.index, self.lowlink
        index[node] = lowlink[node] = self.counter
        self.counter += 1
        self.stack.append(node)
        self.on_stack.add(node)
        for successor in graph.get(node, ()):
            if successor not in graph:
                continue
            if successor not in index:
                self.strongconnect(successor)
                lowlink[node] = min(lowlink[node], lowlink[successor])
            elif successor in self.on_stack:
                lowlink[node] = min(lowlink[node], index[successor])
        if lowlink[node] == index[node]:
            component = []
            while True:
                member = self.stack.pop()
                self.on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1 or node in graph.get(node, ()):
                self.components.append(sorted(component))


def _pattern_var_depths(tree: PChild) -> Dict[str, int]:
    """Minimum depth at which each pattern variable is bound in a body
    pattern tree (the root of the tree itself is depth 0)."""
    depths: Dict[str, int] = {}
    stack: List[Tuple[PChild, int]] = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, PVarLeaf):
            depths[node.var.name] = min(depths.get(node.var.name, depth), depth)
        elif isinstance(node, PRefLeaf) and isinstance(node.target, PatternVar):
            depths[node.target.name] = min(
                depths.get(node.target.name, depth), depth
            )
        elif isinstance(node, PNode):
            stack.extend((edge.target, depth + 1) for edge in node.edges)
    return depths


def is_safe_recursive(rule: Rule, cyclic_functors: Set[str]) -> Tuple[bool, str]:
    """Check a rule defining a cyclic functor for safe recursion.

    Returns ``(is_safe, reason)`` where *reason* explains a failure.
    """
    if rule.head is None:
        return True, ""
    head_term = rule.head.term
    body_names = {bp.name.name for bp in rule.body}
    # (a) the Skolem functor's sole parameter is a pattern name.
    if len(head_term.args) != 1:
        return False, (
            f"rule {rule.name!r}: head Skolem {head_term} must take exactly "
            f"one parameter for safe recursion"
        )
    param = head_term.args[0]
    if not isinstance(param, (Var, PatternVar)) or param.name not in body_names:
        return False, (
            f"rule {rule.name!r}: head Skolem parameter {param.name!r} is not "
            f"a body pattern name"
        )
    # (b) every recursive dereference argument is bound strictly below
    # the root of a body pattern.
    depths: Dict[str, int] = {}
    for bp in rule.body:
        for name, depth in _pattern_var_depths(bp.tree).items():
            depths[name] = min(depths.get(name, depth), depth)
    for term, is_reference in rule.head.skolem_occurrences():
        if is_reference or term.functor not in cyclic_functors:
            continue
        if len(term.args) != 1:
            return False, (
                f"rule {rule.name!r}: recursive dereference {term} must take "
                f"exactly one argument"
            )
        arg = term.args[0]
        if not isinstance(arg, (Var, PatternVar)):
            continue  # a constant argument cannot recurse
        depth = depths.get(arg.name)
        if depth is None or depth < 1:
            return False, (
                f"rule {rule.name!r}: recursive dereference {term} is not "
                f"performed on a proper subtree of the input"
            )
    return True, ""


class CycleReport:
    """Outcome of the static analysis: the dependency graph, its cycles,
    and for cyclic functors whether their rules are safe-recursive."""

    def __init__(
        self,
        graph: Dict[str, Set[str]],
        cycles: List[List[str]],
        violations: List[str],
    ) -> None:
        self.graph = graph
        self.cycles = cycles
        self.violations = violations

    @property
    def is_acceptable(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        status = "ok" if self.is_acceptable else "rejected"
        return (
            f"CycleReport({status}, {len(self.cycles)} cycle(s), "
            f"{len(self.violations)} violation(s))"
        )


def analyze_cycles(rules: Sequence[Rule]) -> CycleReport:
    """Run the full Section 3.4 analysis over a rule set."""
    graph = dereference_dependencies(rules)
    cycles = find_cycles(graph)
    cyclic_functors: Set[str] = set()
    for cycle in cycles:
        cyclic_functors.update(cycle)
    violations: List[str] = []
    if cyclic_functors:
        for rule in rules:
            if rule.head is None or rule.head.term.functor not in cyclic_functors:
                continue
            safe, reason = is_safe_recursive(rule, cyclic_functors)
            if not safe:
                violations.append(reason)
    return CycleReport(graph, cycles, violations)


def check_cycles(rules: Sequence[Rule]) -> CycleReport:
    """Run :func:`analyze_cycles`, raising on rejected programs."""
    report = analyze_cycles(rules)
    if not report.is_acceptable:
        detail = "; ".join(report.violations)
        cycle_text = " / ".join("->".join(c) for c in report.cycles)
        raise CyclicProgramError(
            f"potentially cyclic program rejected (cycles: {cycle_text}): {detail}"
        )
    return report
