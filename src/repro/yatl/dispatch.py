"""Rule-dispatch indexing: pre-matching by root signature.

``apply_top_level`` used to match every rule against every input tree —
O(rules × inputs) body matching, which dominates runtime on realistic
stores. Scalable mediator engines index their rewrite rules by source
structure first; this module implements that pre-pass.

For each rule with a *single* root body pattern, we extract a
:class:`RootSignature` describing what ground trees the pattern's root
could possibly match:

* a constant root label → only trees with that exact label;
* a label variable with an enumerable domain (``X:(set|bag)``) → only
  trees whose label is in the enumeration;
* a label variable with a non-enumerable restricted domain
  (``C:symbol``) → a cheap ``domain.contains`` check on the label;
* the plain-edge count bounds the child count (a star-like edge makes
  it unbounded; a pattern leaf only matches a data leaf);
* a reference leaf root (``&Pobj``) only ever matches :class:`Ref`
  subjects.

Pattern-variable and pattern-name roots (``^Any``, ``Ptype``) and rules
with several root body patterns (joins like Rule 3) are *unindexed*:
they are attempted on every subject, exactly as before.

Signatures are **sound over-approximations**: when a signature rejects a
subject, the full matcher is guaranteed to reject it too, so filtering
candidates through the index never changes the produced bindings — only
how fast non-matches are discarded.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..core.labels import Label
from ..core.patterns import (
    ONE,
    PChild,
    PNameLeaf,
    PNode,
    PRefLeaf,
    PVarLeaf,
)
from ..core.trees import Ref, Tree
from ..core.variables import AnyDomain, Domain, EnumDomain, Var
from .ast import Rule

Subject = Union[Tree, Ref]

#: Marker for signatures that accept any subject (kept distinct from
#: ``None`` so a missing rule entry is detectable).
WILDCARD = None

#: Reserved key under which ``candidates()`` stores the per-subjects
#: label-bucket index inside a caller-owned cache dict.
_BUCKETS = ("__buckets__",)


class DispatchStats:
    """Per-run dispatch accounting, kept as plain ints.

    Admission checks run once per (rule, subject) pair — hundreds of
    thousands of times on realistic stores — so the index mutates bare
    attributes here and the interpreter flushes them into the run's
    :class:`~repro.obs.MetricsRegistry` once, at the end.

    ``subjects_considered``/``subjects_admitted`` count the candidate
    filtering of *indexed* rules (a cache hit counts the subjects it
    would have scanned, so the reduction ratio reflects pruned work,
    not cache topology); ``admit_checks``/``admit_rejections`` count
    the demand loop's single-subject admission tests.
    """

    __slots__ = (
        "indexed_calls",
        "unindexed_calls",
        "subjects_considered",
        "subjects_admitted",
        "admit_checks",
        "admit_rejections",
    )

    def __init__(self) -> None:
        self.indexed_calls = 0
        self.unindexed_calls = 0
        self.subjects_considered = 0
        self.subjects_admitted = 0
        self.admit_checks = 0
        self.admit_rejections = 0

    def hit_ratio(self) -> float:
        """Fraction of candidate requests served by an indexed rule."""
        calls = self.indexed_calls + self.unindexed_calls
        return self.indexed_calls / calls if calls else 0.0

    def reduction_ratio(self) -> float:
        """Fraction of (rule, subject) match attempts the index pruned."""
        if not self.subjects_considered:
            return 0.0
        return 1.0 - self.subjects_admitted / self.subjects_considered

    def __repr__(self) -> str:
        return (
            f"DispatchStats(hit={self.hit_ratio():.2f}, "
            f"reduction={self.reduction_ratio():.2f}, "
            f"{self.admit_rejections}/{self.admit_checks} demand rejections)"
        )


class RootSignature:
    """What the root of a single-root body pattern can possibly match.

    ``labels`` is a frozen set of admissible root labels (``None`` means
    any label), ``domain`` an optional domain the label must belong to,
    ``min_children``/``unbounded`` the child-count constraint, and
    ``refs_only`` marks reference-leaf roots that never match a plain
    tree. :class:`Ref` subjects are always admitted — matching may
    follow the reference, and resolving it here would cost more than it
    saves.
    """

    __slots__ = ("labels", "domain", "min_children", "unbounded", "refs_only")

    def __init__(
        self,
        labels: Optional[FrozenSet[Label]] = None,
        domain: Optional[Domain] = None,
        min_children: int = 0,
        unbounded: bool = True,
        refs_only: bool = False,
    ) -> None:
        self.labels = labels
        self.domain = domain
        self.min_children = min_children
        self.unbounded = unbounded
        self.refs_only = refs_only

    def admits(self, subject: Subject) -> bool:
        """Could the indexed pattern match *subject*? False only when a
        full match is guaranteed to fail."""
        if isinstance(subject, Ref):
            return True  # the matcher may follow the reference
        if self.refs_only:
            return False
        label, arity = subject.root_signature
        if self.labels is not None and label not in self.labels:
            return False
        if self.domain is not None and not self.domain.contains(label):
            return False
        if arity < self.min_children:
            return False
        if not self.unbounded and arity != self.min_children:
            return False
        return True

    def key(self) -> Tuple:
        """A hashable identity, so candidate lists can be shared between
        rules whose root patterns have equivalent signatures."""
        return (self.labels, self.domain, self.min_children,
                self.unbounded, self.refs_only)

    def __repr__(self) -> str:
        parts = []
        if self.refs_only:
            parts.append("refs-only")
        if self.labels is not None:
            parts.append(f"labels={{{', '.join(sorted(map(str, self.labels)))}}}")
        if self.domain is not None:
            parts.append(f"domain={self.domain.render()}")
        bound = "+" if self.unbounded else ""
        parts.append(f"children={self.min_children}{bound}")
        return f"RootSignature({', '.join(parts)})"


def pattern_root_signature(pattern: PChild) -> Optional[RootSignature]:
    """The signature of one root body-pattern tree, or :data:`WILDCARD`
    when nothing cheap can be said about its subjects."""
    if isinstance(pattern, (PVarLeaf, PNameLeaf)):
        # Pattern-variable / pattern-name roots are model-checked, not
        # structure-checked: anything may instantiate them.
        return WILDCARD
    if isinstance(pattern, PRefLeaf):
        return RootSignature(refs_only=True)
    assert isinstance(pattern, PNode)
    labels: Optional[FrozenSet[Label]] = None
    domain: Optional[Domain] = None
    label = pattern.label
    if isinstance(label, Var):
        if isinstance(label.domain, EnumDomain):
            labels = frozenset(label.domain.values)
        elif not isinstance(label.domain, AnyDomain):
            domain = label.domain
    else:
        labels = frozenset((label,))
    min_children = sum(1 for edge in pattern.edges if edge.kind == ONE)
    unbounded = any(edge.kind != ONE for edge in pattern.edges)
    if labels is None and domain is None and min_children == 0 and unbounded:
        return WILDCARD
    return RootSignature(labels, domain, min_children, unbounded)


def rule_root_signature(rule: Rule) -> Optional[RootSignature]:
    """The dispatch signature of a whole rule: its single root body
    pattern's signature, or :data:`WILDCARD` for multi-root rules (a
    join's roots each range over the inputs independently, so one
    signature cannot soundly stand for the rule)."""
    roots = rule.root_body_patterns()
    if len(roots) != 1:
        return WILDCARD
    return pattern_root_signature(roots[0].tree)


class RuleDispatchIndex:
    """Per-rule root signatures with order-preserving candidate filtering.

    ``candidates(rule, subjects)`` returns the subjects the rule could
    possibly match, in their original order (output naming depends on
    first-encounter order, so indexed and unindexed evaluation stay
    byte-identical). Rules whose signatures are equivalent can share one
    filtered list per ``subjects`` sequence through a caller-owned
    ``cache`` dict (the index itself is immutable and safely shared
    between runs of one interpreter).
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        self._signatures: Dict[str, Optional[RootSignature]] = {
            rule.name: rule_root_signature(rule) for rule in rules
        }

    def signature(self, rule: Rule) -> Optional[RootSignature]:
        return self._signatures.get(rule.name)

    def admits(
        self,
        rule: Rule,
        subject: Subject,
        stats: Optional[DispatchStats] = None,
    ) -> bool:
        signature = self._signatures.get(rule.name)
        if signature is None:
            return True
        if stats is None:
            return signature.admits(subject)
        stats.admit_checks += 1
        admitted = signature.admits(subject)
        if not admitted:
            stats.admit_rejections += 1
        return admitted

    def candidates(
        self,
        rule: Rule,
        subjects: Sequence[Subject],
        cache: Optional[Dict[Tuple, List[Subject]]] = None,
        stats: Optional[DispatchStats] = None,
    ) -> Sequence[Subject]:
        """Filter *subjects* down to those the rule could match.

        ``cache`` should be scoped to one run and one ``subjects``
        sequence (the caller must not reuse it across different subject
        lists): rules with equivalent signatures then share the filter
        work. ``stats`` accounts the filtering (see
        :class:`DispatchStats`).
        """
        signature = self._signatures.get(rule.name)
        if signature is None:
            if stats is not None:
                stats.unindexed_calls += 1
            return subjects
        if cache is None:
            result = [s for s in subjects if signature.admits(s)]
        else:
            key = signature.key()
            result = cache.get(key)
            if result is None:
                result = self._filter(signature, subjects, cache)
                cache[key] = result
        if stats is not None:
            stats.indexed_calls += 1
            stats.subjects_considered += len(subjects)
            stats.subjects_admitted += len(result)
        return result

    @staticmethod
    def _filter(
        signature: RootSignature,
        subjects: Sequence[Subject],
        cache: Dict,
    ) -> List[Subject]:
        """Order-preserving filter. Label-constrained signatures go
        through a per-subjects-list bucket index (built once, shared by
        every rule) so each rule's cost is proportional to *its* bucket,
        not to the whole input."""
        if signature.labels is None or signature.domain is not None:
            return [s for s in subjects if signature.admits(s)]
        index = cache.get(_BUCKETS)
        if index is None:
            by_label: Dict[Label, List[Tuple[int, Subject]]] = {}
            refs: List[Tuple[int, Subject]] = []
            for position, subject in enumerate(subjects):
                if isinstance(subject, Ref):
                    refs.append((position, subject))
                else:
                    by_label.setdefault(subject.label, []).append(
                        (position, subject)
                    )
            index = (by_label, refs)
            cache[_BUCKETS] = index
        by_label, refs = index
        picked: List[Tuple[int, Subject]] = []
        for label in signature.labels:
            picked.extend(by_label.get(label, ()))
        picked.extend(refs)  # Ref subjects are always admitted
        if len(signature.labels) > 1 or refs:
            picked.sort(key=lambda pair: pair[0])  # restore input order
        return [subject for _, subject in picked if signature.admits(subject)]

    def indexed_rules(self) -> List[str]:
        """Names of the rules that got a non-wildcard signature."""
        return [name for name, sig in self._signatures.items() if sig is not None]

    def __repr__(self) -> str:
        indexed = len(self.indexed_rules())
        return f"RuleDispatchIndex({indexed}/{len(self._signatures)} rules indexed)"
