"""Typing in YATL (Section 3.5).

"Input and output models can easily be inferred by considering the
program (i) input and output patterns, (ii) predicate/function
signatures and (iii) variable domains."

The couple of inferred models is the program's **signature**
``M_IN |-> M_OUT``. It is used to check composition compatibility
(Section 4.3) and to verify that a program's input or output complies
with a more general model (e.g. that generated objects are ODMG
compliant). Typing is optional: programs run without it.

Models are also checked once instead of node by node: a store built by
an import wrapper carries the model it is an instance of by
construction (:attr:`DataStore.model`), and :func:`discharged_checks`
proves which run-time domain checks of a program that model implies.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.instantiation import InstantiationContext, is_instance, model_is_instance
from ..core.labels import Label, Symbol, atom_type_name, is_atom
from ..core.models import Model
from ..core.patterns import (
    ONE,
    NameTerm,
    PChild,
    PEdge,
    PNameLeaf,
    PNode,
    PRefLeaf,
    PVarLeaf,
    Pattern,
    walk,
)
from ..core.variables import (
    ANY,
    AnyDomain,
    Domain,
    PatternVar,
    Var,
    domain_by_name,
)
from ..errors import TypingError
from .ast import Expr, Rule
from .functions import FunctionRegistry
from .matching import Path, Position


class Signature:
    """A program signature: the inferred input and output models."""

    def __init__(self, input_model: Model, output_model: Model) -> None:
        self.input_model = input_model
        self.output_model = output_model

    def __repr__(self) -> str:
        return (
            f"Signature({self.input_model.pattern_names()} |-> "
            f"{self.output_model.pattern_names()})"
        )


# ---------------------------------------------------------------------------
# Variable domain refinement
# ---------------------------------------------------------------------------


def _domain_of_constant(value: Label) -> Domain:
    if is_atom(value):
        return domain_by_name(atom_type_name(value))
    return ANY


def refine_domains(rule: Rule, registry: Optional[FunctionRegistry]) -> Dict[str, Domain]:
    """Per-variable domain restrictions implied by the rule's predicates
    and external function signatures.

    ``Year > 1975`` restricts ``Year`` to ``int``; ``C is city(Add)``
    restricts ``Add`` to the signature's argument domain and ``C`` to
    its result domain.
    """
    domains: Dict[str, Domain] = {}

    def restrict(expr: Expr, domain: Domain) -> None:
        if isinstance(domain, AnyDomain) or not isinstance(expr, Var):
            return
        existing = domains.get(expr.name)
        if existing is None or domain.subset_of(existing):
            domains[expr.name] = domain
        # Incompatible restrictions are kept as the first one; a full
        # intersection lattice is not needed for the paper's examples.

    for predicate in rule.predicates:
        if predicate.op in ("<", "<=", ">", ">="):
            for this, other in (
                (predicate.left, predicate.right),
                (predicate.right, predicate.left),
            ):
                if isinstance(this, Var) and not isinstance(other, (Var, PatternVar)):
                    restrict(this, _domain_of_constant(other))
    if registry is not None:
        for call in rule.calls:
            if not registry.has(call.function):
                continue
            fn = registry.get(call.function)
            for domain, arg in zip(fn.arg_domains, call.args):
                restrict(arg, domain)
            if call.result is not None:
                restrict(call.result, fn.result_domain)
    return domains


def apply_domains(tree: PChild, domains: Dict[str, Domain]) -> PChild:
    """Rebuild a pattern tree, narrowing variable domains."""
    if isinstance(tree, PNode):
        label = tree.label
        if isinstance(label, Var) and label.name in domains and label.domain == ANY:
            label = Var(label.name, domains[label.name])
        edges = [
            edge.with_target(apply_domains(edge.target, domains))
            for edge in tree.edges
        ]
        return PNode(label, edges)
    return tree


# ---------------------------------------------------------------------------
# Signature inference
# ---------------------------------------------------------------------------


def infer_signature(
    rules: Sequence[Rule],
    registry: Optional[FunctionRegistry] = None,
    name: str = "program",
) -> Signature:
    """Infer ``M_IN |-> M_OUT`` for a rule set.

    Body patterns named identically across rules union their trees into
    one input pattern; likewise head patterns sharing a Skolem functor
    union into one output pattern.
    """
    input_alts: Dict[str, List[PChild]] = {}
    output_alts: Dict[str, List[PChild]] = {}
    for rule in rules:
        domains = refine_domains(rule, registry)
        for bp in rule.body:
            refined = apply_domains(bp.tree, domains)
            alts = input_alts.setdefault(bp.name.name, [])
            if refined not in alts:
                alts.append(refined)
        if rule.head is not None:
            refined = apply_domains(rule.head.tree, domains)
            alts = output_alts.setdefault(rule.head.term.functor, [])
            if refined not in alts:
                alts.append(refined)
    input_model = Model(f"in({name})")
    for pattern_name, alts in input_alts.items():
        input_model.add(Pattern(pattern_name, alts))
    output_model = Model(f"out({name})")
    for pattern_name, alts in output_alts.items():
        output_model.add(Pattern(pattern_name, alts))
    return Signature(input_model, output_model)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_input_against(signature: Signature, general: Model) -> None:
    """Verify the inferred input model is an instance of *general*.

    Like all Section 3.5 checks on *inferred* models, this is lenient
    about variable domains: inference leaves many variables with the
    default domain, and "typing in YAT is in no way constraining".
    """
    if not model_is_instance(signature.input_model, general, lenient=True):
        raise TypingError(
            f"input model {signature.input_model.name!r} is not an instance "
            f"of {general.name!r}"
        )


def check_output_against(signature: Signature, general: Model) -> None:
    """Verify the inferred output model is an instance of *general* —
    e.g. "check that a program generates car and supplier objects
    compliant with ... the ODMG model". Lenient about variable domains
    (see :func:`check_input_against`)."""
    if not model_is_instance(signature.output_model, general, lenient=True):
        raise TypingError(
            f"output model {signature.output_model.name!r} is not an instance "
            f"of {general.name!r}"
        )


def compatible_for_composition(out_model: Model, in_model: Model) -> bool:
    """Section 4.3 compatibility: is ``M_2`` (the output model of prg1)
    an instance of ``M_2'`` (the input model of prg2)?

    The check is *lenient* about variable domains (they must intersect,
    not be included): inferred output models leave many variables with
    the default domain, and YAT typing "is in no way constraining" —
    the instantiation of prg2 on the actual patterns is the real gate.
    """
    return model_is_instance(out_model, in_model, lenient=True)


# ---------------------------------------------------------------------------
# Discharging run-time domain checks
# ---------------------------------------------------------------------------
#
# A typed pattern variable ``P2:Ptype`` checks the subtree it binds at
# every match. Over a store tagged with a model, many of those checks
# are implied: every tree of the store instantiates some pattern of the
# tag, so under O2Web's ``class -> C < *-> A -> P2:Ptype >`` the value
# P2 binds is where Pclass has a ``Ptype`` leaf. The proof aligns each
# body pattern with the model patterns its subject may instantiate and
# keeps the positions where the aligned model fragment is an instance
# of the variable's domain. A subject is a store tree (a root body
# pattern at top level, or a followed reference), or a demand subject:
# the first argument of a dereferenced Skolem term, typed by the domain
# of the variable every call site passes. Where a subject's type is not
# known, nothing is discharged.

def discharged_checks(
    rules: Sequence[Rule], model, store_model, proofs: Optional[dict] = None
) -> Dict[str, FrozenSet[Position]]:
    """Per rule name, the body positions whose domain check *store_model*
    (a store's model tag) proves, for *rules* run under the program
    model *model*. With *proofs*, a cache dict its owner keeps, each
    (rule set, model, tag) is proved once."""
    if not isinstance(model, Model) or not isinstance(store_model, Model):
        return {}
    rules = tuple(rules)
    key = (
        tuple(map(id, rules)),
        tuple(model.patterns()),
        tuple(store_model.patterns()),
    )
    cached = proofs.get(key) if proofs is not None else None
    if cached is not None and all(a is b for a, b in zip(cached[0], rules)):
        return cached[1]
    proof = _Proof(rules, model, store_model).discharged()
    if proofs is not None:
        proofs[key] = (rules, proof)  # the rules keep the ids of the key theirs
    return proof


class _Proof:
    """One proof of :func:`discharged_checks`. Types are unions (lists)
    of program-model pattern children."""

    def __init__(self, rules: Tuple[Rule, ...], model: Model, store_model: Model) -> None:
        self.rules = rules
        self.model = model
        self.store_model = store_model
        self.context = InstantiationContext(source_model=model, instance_model=model)
        self._implications: Dict[Tuple[PChild, str], bool] = {}

    def discharged(self) -> Dict[str, FrozenSet[Position]]:
        roots = self._store_roots()
        if roots is None:
            return {}
        calls = self._call_types(roots)
        proof: Dict[str, FrozenSet[Position]] = {}
        for rule in self.rules:
            root_names = {bp.name.name for bp in rule.root_body_patterns()}
            subject: Optional[List[PChild]] = roots
            functor = rule.head_functor
            if functor in calls:
                called = calls[functor]
                subject = None if called is None else roots + called
            positions: Set[Position] = set()
            for index, bp in enumerate(rule.body):
                if bp.name.name in root_names:
                    types = subject
                else:
                    bound = self._bound_type(rule, bp.name.name)
                    types = None if bound is None else bound + roots
                if types is not None:
                    implied = self._union(bp.tree, types, (), frozenset())
                    positions.update((index, path) for path in implied or ())
            if positions:
                proof[rule.name] = frozenset(positions)
        return proof

    def _store_roots(self) -> Optional[List[PChild]]:
        """Every store tree instantiates some pattern of the tag; read as
        the program model's pattern of that name, which must conform.
        Checked as one co-inductive family, so a name inside one pattern
        stands for the same name's pattern on the other side."""
        family = InstantiationContext(
            source_model=self.model, instance_model=self.store_model
        )
        roots: List[PChild] = []
        for pattern in self.store_model.patterns():
            own = self.model.get_pattern(pattern.name)
            if own is None or not is_instance(pattern, own, family):
                return None
            roots.append(PNameLeaf(NameTerm(pattern.name)))
        return roots

    def _call_types(self, roots: List[PChild]) -> Dict[str, Optional[List[PChild]]]:
        """Per functor evaluated on demand, the union of the types its
        dereferencing call sites pass as the subject, or None if one of
        them is unknown."""
        calls: Dict[str, Optional[List[PChild]]] = {}
        for rule in self.rules:
            if rule.head is None:
                continue
            for term, is_reference in rule.head.skolem_occurrences():
                if is_reference:
                    continue
                known = calls.setdefault(term.functor, [])
                first = term.args[0] if term.args else None
                bound = (
                    self._bound_type(rule, first.name)
                    if isinstance(first, (Var, PatternVar)) else None
                )
                if known is None or bound is None:
                    calls[term.functor] = None
                else:
                    known.extend(bound or roots)
        return calls

    def _bound_type(self, rule: Rule, name: str) -> Optional[List[PChild]]:
        """The type of the value pattern variable *name* binds in
        *rule*'s body: its first typed leaf's domain; ``[]`` for a
        binding reference (a store tree, typed by the roots); None when
        unknown."""
        for bp in rule.body:
            for leaf in walk(bp.tree):
                if isinstance(leaf, PVarLeaf) and leaf.var.name == name:
                    domain = leaf.var.domain_pattern
                    if domain is not None and domain in self.model:
                        return [leaf]
                elif (
                    isinstance(leaf, PRefLeaf)
                    and isinstance(leaf.target, PatternVar)
                    and leaf.target.name == name
                ):
                    return []
        return None

    # -- alignment ------------------------------------------------------------
    #
    # _align(b, t) reads: a data node matches body pattern child b and is
    # an instance of model child t. It returns the paths below b whose
    # domain check that implies, or None when no data node can do both.

    def _union(
        self, body: PChild, types: Sequence[PChild], path: Path, expanding: frozenset
    ) -> Optional[Set[Path]]:
        found: Optional[Set[Path]] = None
        for alternative in types:
            paths = self._align(body, alternative, path, expanding)
            if paths is not None:
                found = paths if found is None else found & paths
        return found

    def _align(
        self, body: PChild, typed: PChild, path: Path, expanding: frozenset
    ) -> Optional[Set[Path]]:
        if isinstance(body, PVarLeaf):
            implied = self._implies(typed, body.var.domain_pattern)
            return {path} if implied else set()
        name = _type_name(typed)
        if name is not None:
            pattern = self.model.get_pattern(name)
            if pattern is None or (id(body), name) in expanding:
                return set()
            return self._union(
                body, pattern.alternatives, path, expanding | {(id(body), name)}
            )
        if isinstance(typed, PVarLeaf) or isinstance(body, PNameLeaf):
            return set()  # any data, or a check this proof leaves alone
        if isinstance(body, PRefLeaf):
            return set() if isinstance(typed, PRefLeaf) else None
        if isinstance(typed, PRefLeaf) or not _labels_meet(body.label, typed.label):
            return None
        return self._align_edges(body.edges, typed.edges, path, expanding)

    def _align_edges(
        self,
        body: Sequence[PEdge],
        typed: Sequence[PEdge],
        path: Path,
        expanding: frozenset,
    ) -> Optional[Set[Path]]:
        found: Set[Path] = set()
        if not typed:  # a data leaf
            return None if any(edge.kind == ONE for edge in body) else found
        if len(typed) == 1 and typed[0].kind != ONE:
            # every child instantiates the one star-like edge's target
            for index, edge in enumerate(body):
                paths = self._align(edge.target, typed[0].target, path + (index,),
                                    expanding)
                if paths is None:
                    if edge.kind == ONE:
                        return None
                    continue  # the run must be empty
                found |= paths
            return found
        if all(edge.kind == ONE for edge in body) and all(
            edge.kind == ONE for edge in typed
        ):
            if len(body) != len(typed):
                return None
            for index, (edge, model_edge) in enumerate(zip(body, typed)):
                paths = self._align(edge.target, model_edge.target, path + (index,),
                                    expanding)
                if paths is None:
                    return None
                found |= paths
            return found
        return found  # no alignment this proof follows: nothing implied

    def _implies(self, typed: PChild, domain: Optional[str]) -> bool:
        """Is every instance of model child *typed* an instance of the
        pattern named *domain*?"""
        target = self.model.get_pattern(domain) if domain is not None else None
        if target is None:
            return False  # no check to discharge
        key = (typed, domain)
        known = self._implications.get(key)
        if known is None:
            name = _type_name(typed)
            if name is not None:
                source = self.model.get_pattern(name)
                known = source is not None and is_instance(source, target, self.context)
            elif isinstance(typed, PVarLeaf):
                known = False  # any subtree
            else:
                known = is_instance(typed, target, self.context)
            self._implications[key] = known
        return known


def _type_name(child: PChild) -> Optional[str]:
    """The pattern a model child stands for: a name leaf's, or a typed
    variable leaf's domain."""
    if isinstance(child, PNameLeaf):
        return child.term.functor
    if isinstance(child, PVarLeaf):
        return child.var.domain_pattern
    return None


def _labels_meet(first, second) -> bool:
    """Could one data label match both pattern labels?"""
    if isinstance(first, Var) and isinstance(second, Var):
        return first.domain.intersects(second.domain)
    if isinstance(first, Var):
        first, second = second, first
    if isinstance(second, Var):
        # Only a symbol is equal to nothing but itself: an atom
        # constant may equal atoms of other types (1 == 1.0 == True).
        return not isinstance(first, Symbol) or second.domain.contains(first)
    return first == second
