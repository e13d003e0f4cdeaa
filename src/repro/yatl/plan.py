"""Rule evaluation plans: a rule compiled once, on first application.

The five phases of Section 3.1 run per rule application, and phases 1
and 5 walk the rule's body and head patterns at every node of every
binding. A :class:`RulePlan` resolves those walks once: the body
becomes a match program (:class:`~repro.yatl.matching.BodyProgram`) and
the head a builder (:func:`~repro.yatl.construction.compile_head`), in
the spirit of a mediator compiling a query into an evaluation plan.
:meth:`Rule.plan` compiles lazily and caches the plan on the rule, so
loading a program compiles nothing, and a rule that never fires is
never compiled.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from .ast import Rule
from .construction import HeadBuilder, SkolemTerm, compile_head
from .matching import BodyProgram, Position


class RulePlan:
    """Phase 1's match program, plus (for rules with a head) the head
    term's Skolem arguments and phase 5's head builder. Runs over a
    store whose model tag discharges some of the body's domain checks
    use a variant of the match program without them (:meth:`body_for`),
    compiled once per set of discharged positions."""

    __slots__ = ("body", "head_term", "head", "_typed_bodies")

    def __init__(self, rule: Rule) -> None:
        self.body = BodyProgram(rule)
        self._typed_bodies: Dict[FrozenSet[Position], BodyProgram] = {}
        head = rule.head
        self.head_term: Optional[SkolemTerm] = (
            SkolemTerm(head.term) if head is not None else None
        )
        self.head: Optional[HeadBuilder] = (
            compile_head(head.tree) if head is not None else None
        )

    def body_for(
        self, rule: Rule, discharged: Optional[FrozenSet[Position]]
    ) -> BodyProgram:
        """The match program of *rule* (this plan's rule) without the
        domain checks at the *discharged* positions, if any."""
        if not discharged:
            return self.body
        body = self._typed_bodies.get(discharged)
        if body is None:
            body = self._typed_bodies[discharged] = BodyProgram(rule, discharged)
        return body
