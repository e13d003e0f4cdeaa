"""The YATL interpreter (Sections 3.1, 3.4, 4.2).

A rule application processes its input in five phases:

1. match the body patterns, producing variable bindings;
2. evaluate external functions (after the type filter);
3. apply predicates to filter the bindings;
4. evaluate Skolem functions (global to the program);
5. construct the output patterns and associate them to their names.

Program evaluation adds: rule-hierarchy dispatch (more specific rules
shadow general ones per input, Section 4.2), demand-driven evaluation of
dereferenced Skolems on subtrees (the safe-recursive programs of
Sections 3.4/4.1), dereference splicing "at the end of rules
processing", and the optional run-time typing of Section 3.5 (inputs
converted by no rule raise, or feed empty-head fallback rules).
"""

from __future__ import annotations

import time
import warnings as _warnings
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.arena import ArenaStore
from ..core.trees import DataStore, Ref, Tree
from ..errors import (
    CyclicProgramError,
    DanglingReferenceError,
    FunctionError,
    UnconvertedDataError,
)
from ..obs import MetricsRegistry, ambient_registry, span
from ..obs.metrics import TIME_BUCKETS
from ..obs.provenance import ProvenanceStore, ambient_provenance
from .arena_exec import ArenaEngine
from .ast import Expr, FunctionCall, Rule
from .bindings import Binding, Value
from .construction import (
    Constructor,
    Unbound,
    deref_target,
    is_deref_placeholder,
)
from .dispatch import DispatchStats
from .functions import FunctionRegistry, evaluate_comparison, standard_registry
from .hierarchy import Hierarchy
from .matching import MatchContext, match_body
from .skolem import SkolemTable
from ..core.variables import PatternVar, Var

# Metric names (the catalog lives in docs/OBSERVABILITY.md). Per-rule
# metrics carry a ``rule`` label; everything else is unlabelled.
M_RULE_APPLICATIONS = "yatl.rule.applications"
M_RULE_MATCHED = "yatl.rule.bindings_matched"
M_RULE_AFTER_CALLS = "yatl.rule.bindings_after_calls"
M_RULE_AFTER_PREDICATES = "yatl.rule.bindings_after_predicates"
M_RULE_OUTPUTS = "yatl.rule.outputs"
M_RULE_SECONDS = "yatl.rule.seconds"
M_CONSTRUCT_GROUPS = "yatl.construct.groups"
M_CONSTRUCT_SKIPPED = "yatl.construct.skipped_unbound"
M_DEMAND_ITERATIONS = "yatl.demand.iterations"
M_DEMAND_ROUNDS = "yatl.demand.rounds"
M_INPUT_TREES = "yatl.inputs.total"
M_INPUT_CONVERTED = "yatl.inputs.converted"
M_INPUT_UNCONVERTED = "yatl.inputs.unconverted"
M_OUTPUT_TREES = "yatl.outputs.trees"
M_WARNINGS = "yatl.warnings"
M_BATCHES = "yatl.batches"
M_DISPATCH_INDEXED = "yatl.dispatch.indexed_calls"
M_DISPATCH_UNINDEXED = "yatl.dispatch.unindexed_calls"
M_DISPATCH_CONSIDERED = "yatl.dispatch.subjects_considered"
M_DISPATCH_ADMITTED = "yatl.dispatch.subjects_admitted"
M_DISPATCH_ADMIT_CHECKS = "yatl.dispatch.admit_checks"
M_DISPATCH_ADMIT_REJECTIONS = "yatl.dispatch.admit_rejections"
M_DISPATCH_HIT_RATIO = "yatl.dispatch.hit_ratio"
M_DISPATCH_REDUCTION = "yatl.dispatch.candidate_reduction_ratio"
M_SKOLEM_FRESH = "yatl.skolem.ids_fresh"
M_SKOLEM_REUSED = "yatl.skolem.ids_reused"
M_SKOLEM_SIZE = "yatl.skolem.table_size"
M_MATCH_COVERAGE_MEMO_HITS = "yatl.match.coverage_memo_hits"
M_PROVENANCE_FIRINGS = "yatl.provenance.firings"
M_PROVENANCE_RECORDS = "yatl.provenance.records"


class ConversionResult:
    """Outcome of a program run.

    ``store`` maps generated identifiers to their (dereferenced) trees;
    ``skolems`` exposes the Skolem table for identifier introspection;
    ``unconverted`` lists input trees no rule matched — fallback
    (empty-head) rules count as matching, so an input a fallback handled
    is *not* reported unconverted; ``warnings`` collects non-fatal
    anomalies (filtered function errors, dangling references in
    non-strict mode...); ``metrics`` is the run's
    :class:`~repro.obs.MetricsRegistry` — per-rule phase counters,
    dispatch-index hit and candidate-reduction ratios, Skolem table
    stats (see docs/OBSERVABILITY.md for the catalog); ``provenance``
    is the run's :class:`~repro.obs.ProvenanceStore` — name-level
    origins for every output (always exact), plus per-firing lineage
    records with backward/forward queries when a store was installed
    (``Interpreter(provenance=...)`` or the ambient
    :func:`repro.obs.tracing`).
    """

    def __init__(
        self,
        store: DataStore,
        skolems: SkolemTable,
        unconverted: List[Tree],
        warnings: List[str],
        provenance: Optional[ProvenanceStore] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.skolems = skolems
        self.unconverted = unconverted
        self.warnings = warnings
        #: per-node lineage for this run (see docs/OBSERVABILITY.md)
        self.provenance: ProvenanceStore = (
            provenance if provenance is not None else ProvenanceStore()
        )
        #: runtime accounting for this run
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry()
        )

    def ids_of(self, functor: str) -> List[str]:
        """Identifiers generated for a Skolem functor, in creation order."""
        return [i for i in self.skolems.ids_of_functor(functor) if i in self.store]

    def trees_of(self, functor: str) -> List[Tree]:
        return [self.store.get(i) for i in self.ids_of(functor)]

    def tree(self, identifier: str) -> Tree:
        return self.store.get(identifier)

    def lineage(self, identifier: str) -> Set[str]:
        """The input-tree names an output was derived from (mediator
        lineage — which sources fed this integrated object). A view
        over ``provenance.origins_of``; always exact, recorder or not."""
        return self.provenance.origins_of(identifier)

    def derived_from(self, input_name: str) -> List[str]:
        """Outputs whose derivation involved the named input tree."""
        return [
            identifier
            for identifier in self.store.names()
            if input_name in self.provenance.origins_of(identifier)
        ]

    def __repr__(self) -> str:
        return (
            f"ConversionResult({len(self.store)} trees, "
            f"{len(self.unconverted)} unconverted, "
            f"{len(self.warnings)} warning(s))"
        )


class Interpreter:
    """Evaluates a rule set over a data store.

    Parameters
    ----------
    rules:
        The program's rules (any iterable; order is the tie-break for
        hierarchy dispatch).
    registry:
        External functions; defaults to the standard library.
    model:
        Optional model for typed pattern variables and name leaves.
    hierarchy:
        Prebuilt rule hierarchy; computed on demand otherwise.
    runtime_typing:
        Section 3.5's run-time check: raise
        :class:`~repro.errors.UnconvertedDataError` when an input tree
        is matched by no rule — not even a fallback rule.
    strict_refs:
        Raise on dangling ``&`` references instead of warning.
    use_dispatch_index:
        Pre-filter each rule's candidate subjects through the
        root-signature dispatch index (see :mod:`.dispatch`). On by
        default; disable to measure the unindexed O(rules × inputs)
        behaviour (the benchmark's ``--no-index`` ablation).
    use_arena:
        Evaluate :class:`~repro.core.arena.ArenaStore` inputs on the
        columnar batch path (see :mod:`.arena_exec`): compilable rules
        run as flat column comparisons, the rest fall back to the tree
        matcher over lazily materialized candidates. Outputs are
        byte-identical either way. Disable (the benchmark's
        ``--no-arena`` ablation) to convert arena inputs to a
        :class:`~repro.core.trees.DataStore` up front and run the plain
        tree path. Irrelevant for non-arena inputs.
    workers:
        Evaluate the top-level input forest with the multi-process
        executor of :mod:`repro.parallel`: the inputs are split into
        contiguous chunks, each chunk runs through its own interpreter
        with an isolated Skolem table, and the chunk results are merged
        back deterministically (Skolem identifiers reconciled by
        canonical term). ``workers=1`` runs the same chunk plan
        serially in-process, so ``workers=N`` output is always
        byte-identical to ``workers=1`` — see docs/PERFORMANCE.md.
        ``None`` (default) keeps the plain single-pass evaluation.
    chunk_size:
        Inputs per chunk for ``workers=``; defaults to a heuristic that
        leaves small forests on the plain in-process path.
    executor:
        A shared :class:`repro.parallel.ParallelExecutor` (e.g. the
        serve plane's per-process pool); without one an ephemeral pool
        is created per run when ``workers > 1``.
    parallel_safe_batches:
        Deprecated — use ``workers=``/``chunk_size=``. Historically
        this only *partitioned* the inputs into contiguous batches
        evaluated sequentially in one process (it never ran anything
        concurrently, despite the name). It now maps onto the sharded
        executor with ``workers=1`` and that many chunks, which keeps
        the old contract: results equivalent to a single pass, with
        identifiers numbered in chunk order rather than rule-major
        order.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to account the run(s)
        into. When omitted, each run uses the ambient registry
        installed by :func:`repro.obs.collecting` if there is one
        (pipelines and the CLI aggregate that way), or a fresh
        registry otherwise; either way the registry is surfaced on
        ``ConversionResult.metrics``.
    provenance:
        A :class:`~repro.obs.ProvenanceStore` to record per-firing
        lineage into. When omitted, each run uses the ambient store
        installed by :func:`repro.obs.tracing` if there is one; with
        neither, only the always-on name-level origins are kept (no
        per-firing records — the zero-overhead default).
    program_name:
        Stamped on every provenance record this interpreter emits, so
        cross-program chains name the program each hop came from.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        registry: Optional[FunctionRegistry] = None,
        model=None,
        hierarchy: Optional[Hierarchy] = None,
        runtime_typing: bool = False,
        strict_refs: bool = False,
        max_demand_iterations: int = 100_000,
        target_functors: Optional[Sequence[str]] = None,
        use_dispatch_index: bool = True,
        use_arena: bool = True,
        parallel_safe_batches: Optional[int] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        executor=None,
        metrics: Optional[MetricsRegistry] = None,
        provenance: Optional[ProvenanceStore] = None,
        program_name: Optional[str] = None,
    ) -> None:
        self.rules = list(rules)
        self.registry = registry or standard_registry()
        self.model = model
        self.hierarchy = hierarchy or Hierarchy(self.rules, model=model)
        self.runtime_typing = runtime_typing
        self.strict_refs = strict_refs
        self.max_demand_iterations = max_demand_iterations
        self.metrics = metrics
        self.provenance = provenance
        self.program_name = program_name
        self.dispatch = self.hierarchy.dispatch_index() if use_dispatch_index else None
        self.use_arena = use_arena
        if parallel_safe_batches is not None and parallel_safe_batches < 1:
            raise ValueError("parallel_safe_batches must be >= 1")
        if parallel_safe_batches is not None:
            _warnings.warn(
                "parallel_safe_batches is deprecated; use workers= and "
                "chunk_size= (it maps onto the sharded executor of "
                "repro.parallel with workers=1)",
                DeprecationWarning,
                stacklevel=2,
            )
        self.parallel_safe_batches = parallel_safe_batches
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.workers = workers
        self.chunk_size = chunk_size
        self.executor = executor
        self.target_functors = (
            list(target_functors) if target_functors is not None else None
        )
        # Targeted evaluation (the paper's future work: "querying the
        # target data representation without materializing it"): when
        # target functors are given, only the rules those functors
        # transitively need — through Skolem references *and*
        # dereferences — are evaluated.
        self.needed_functors: Optional[Set[str]] = (
            self._transitive_functors(target_functors)
            if target_functors is not None
            else None
        )

    def _transitive_functors(self, targets: Sequence[str]) -> Set[str]:
        dependencies: Dict[str, Set[str]] = {}
        for rule in self.rules:
            if rule.head is None:
                continue
            functor = rule.head.term.functor
            uses = dependencies.setdefault(functor, set())
            for term, _ in rule.head.skolem_occurrences():
                uses.add(term.functor)
        needed: Set[str] = set()
        frontier = list(targets)
        while frontier:
            functor = frontier.pop()
            if functor in needed:
                continue
            needed.add(functor)
            frontier.extend(dependencies.get(functor, ()))
        return needed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, data: Union[DataStore, Sequence[Tree], Tree]) -> ConversionResult:
        store = _as_store(data, self.use_arena)
        workers = self.workers
        chunk_count = None
        if workers is None and self.executor is not None:
            # A shared pool is an explicit opt-in: use its worker count.
            workers = self.executor.workers
        if workers is None and (self.parallel_safe_batches or 0) > 1:
            # Deprecated batching maps onto the sharded executor run
            # serially in-process: same contiguous partitions, one
            # reconciled Skolem table.
            workers, chunk_count = 1, self.parallel_safe_batches
        if workers is not None:
            from ..parallel import run_sharded  # cycle: parallel runs interpreters

            return run_sharded(
                self.shard_spec(),
                store,
                workers=workers,
                chunk_size=self.chunk_size,
                chunk_count=chunk_count,
                executor=self.executor,
                strict_refs=self.strict_refs,
                metrics=self.metrics,
                provenance=self.provenance,
            )
        return self.run_local(store)

    def run_local(self, data: Union[DataStore, Sequence[Tree], Tree]) -> ConversionResult:
        """One plain single-process pass (no sharding) — the execution
        primitive :mod:`repro.parallel` runs once per chunk."""
        store = _as_store(data, self.use_arena)
        state = _RunState(self, store)
        try:
            with span("yatl.run", rules=len(self.rules), inputs=state.n_inputs):
                state.metrics.counter(M_BATCHES).inc(1)
                state.apply_top_level()
                state.apply_fallbacks()
                state.demand_loop()
                return state.finish()
        finally:
            state.close()

    def shard_spec(self):
        """The picklable description :mod:`repro.parallel` ships to
        worker processes to rebuild this interpreter per shard."""
        from ..parallel import ShardSpec

        return ShardSpec(
            rules=self.rules,
            registry=self.registry,
            model=self.model,
            hierarchy=self.hierarchy,
            runtime_typing=self.runtime_typing,
            max_demand_iterations=self.max_demand_iterations,
            target_functors=self.target_functors,
            use_dispatch_index=self.dispatch is not None,
            use_arena=self.use_arena,
            program_name=self.program_name,
        )

    # ------------------------------------------------------------------
    # Phases 1-3 for one rule
    # ------------------------------------------------------------------

    def rule_bindings(
        self,
        rule: Rule,
        groups: Sequence[Sequence[Tree]],
        mctx: MatchContext,
        metrics: Optional[MetricsRegistry] = None,
    ) -> List[Tuple[List[Binding], List[str]]]:
        """Phases 1-3 of one application of *rule*: for each group of
        candidate subjects, in order, the surviving bindings and the
        warnings the function calls raised. Each group is matched on
        its own — a join across several body patterns never pairs
        subjects of two groups — so the top level passes its whole
        input as one group, and a demand round passes each of its
        subjects as a group of one."""
        with span("yatl.rule", rule=rule.name, candidates=sum(map(len, groups))):
            started = time.perf_counter() if metrics is not None else 0.0
            with span("yatl.phase.match", rule=rule.name):
                matched = [match_body(rule, group, mctx) for group in groups]  # phase 1
            n_matched = sum(map(len, matched))
            if metrics is not None:
                metrics.counter(M_RULE_APPLICATIONS).inc(rule=rule.name)
                metrics.counter(M_RULE_MATCHED).inc(n_matched, rule=rule.name)
            outcomes: List[Tuple[List[Binding], List[str]]] = [
                (bindings, []) for bindings in matched
            ]
            if not n_matched:
                if metrics is not None:
                    metrics.histogram(M_RULE_SECONDS, buckets=TIME_BUCKETS).observe(
                        time.perf_counter() - started, rule=rule.name
                    )
                return outcomes
            with span("yatl.phase.call", rule=rule.name):
                outcomes = [
                    (self._evaluate_calls(rule, bindings, warnings), warnings)
                    for bindings, warnings in outcomes
                ]  # phase 2
            after_calls = sum(len(bindings) for bindings, _ in outcomes)
            with span("yatl.phase.predicate", rule=rule.name):
                outcomes = [
                    (self._apply_predicates(rule, bindings), warnings)
                    for bindings, warnings in outcomes
                ]  # phase 3
            if metrics is not None:
                metrics.counter(M_RULE_AFTER_CALLS).inc(after_calls, rule=rule.name)
                metrics.counter(M_RULE_AFTER_PREDICATES).inc(
                    sum(len(bindings) for bindings, _ in outcomes), rule=rule.name
                )
                metrics.histogram(M_RULE_SECONDS, buckets=TIME_BUCKETS).observe(
                    time.perf_counter() - started, rule=rule.name
                )
            return outcomes

    def _evaluate_calls(
        self, rule: Rule, bindings: List[Binding], warnings: List[str]
    ) -> List[Binding]:
        for call in rule.calls:
            fn = self.registry.get(call.function)
            surviving: List[Binding] = []
            for binding in bindings:
                args = _argument_values(call, binding)
                if args is None or not fn.accepts(args):
                    continue  # the paper's type filter
                try:
                    result = fn(*args)
                except UnconvertedDataError:
                    raise
                except FunctionError as exc:
                    warnings.append(
                        f"rule {rule.name!r}: {call.function} filtered a "
                        f"binding: {exc}"
                    )
                    continue
                if call.result is None:
                    if result:
                        surviving.append(binding)
                    continue
                extended = binding.bind(call.result, result)  # type: ignore[arg-type]
                if extended is not None:
                    surviving.append(extended)
            bindings = surviving
            if not bindings:
                break
        return bindings

    def _apply_predicates(self, rule: Rule, bindings: List[Binding]) -> List[Binding]:
        for predicate in rule.predicates:
            surviving = []
            for binding in bindings:
                left = _expr_value(predicate.left, binding)
                right = _expr_value(predicate.right, binding)
                if left is _MISSING or right is _MISSING:
                    continue
                if evaluate_comparison(left, predicate.op, right):
                    surviving.append(binding)
            bindings = surviving
            if not bindings:
                break
        return bindings


# ---------------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------------


class _RunState:
    """Mutable state of one program run."""

    def __init__(self, interpreter: Interpreter, store: DataStore) -> None:
        self.interp = interpreter
        self.input_store = store
        # Arena inputs stay columnar: roots are matched by index and
        # decoded lazily, so `inputs` holds only what got materialized
        # (see ArenaEngine); everything downstream sizes itself off
        # `n_inputs` and fetches leftovers via `_leftover_inputs`.
        self.arena_engine: Optional[ArenaEngine] = None
        if isinstance(store, ArenaStore):
            self.arena_engine = ArenaEngine(self, store)
            self.inputs: List[Tree] = []
        else:
            self.inputs = store.trees()
        self.n_inputs = len(store)
        self.skolems = SkolemTable()
        self.warnings: List[str] = []
        # One registry per run unless the interpreter (or an ambient
        # `collecting` block) supplies a shared one. None checks, not
        # truthiness: an empty registry is falsy but still the sink.
        metrics = interpreter.metrics
        if metrics is None:
            metrics = ambient_registry()
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics: MetricsRegistry = metrics
        # Dispatch accounting: plain ints on the hot path, flushed into
        # the registry once, in finish().
        self.dispatch_stats = DispatchStats()
        self.match_ctx = MatchContext(store=store, model=interpreter.model)
        self.constructor = Constructor(self.skolems, self._on_skolem)
        # Demand-driven evaluation bookkeeping. Insertion-ordered dicts
        # (not sets): demand_loop iterates pending_deref, and set order
        # varies with the process hash seed — Skolem numbering must not.
        self.pending_deref: Dict[str, None] = {}
        self.pending_ref: Dict[str, None] = {}
        self.applied: Set[Tuple[str, Tree]] = set()  # (rule name, demand tree)
        # Rule names that *matched* a demand subject, keyed by the
        # subject itself. Persisted across demand iterations (and thus
        # shared by structurally-equal subjects) so a general rule stays
        # shadowed once a more specific one has matched the subject.
        self.demand_matched: Dict[Union[Tree, Ref], Set[str]] = {}
        self.matched_inputs: Set[int] = set()  # ids of converted input trees
        # Converted input trees by *value*: binding deduplication can
        # collapse structurally-equal inputs into one binding, so id()
        # bookkeeping alone under-reports conversions.
        self.matched_values: Set[Tree] = set()
        self.root_refs: Dict[str, Ref] = {}  # heads that built a bare reference
        self.order = interpreter.hierarchy.specific_first()
        # Hierarchy shadowing state, keyed by id(input tree); spans
        # batches (batches never share tree objects).
        self._matched_by: Dict[int, Set[str]] = {}
        # Dispatch-index candidate lists, shared between rules with
        # equivalent signatures; one cache per batch (see
        # RuleDispatchIndex.candidates).
        self._candidate_caches: Dict[int, Dict] = {}
        # Provenance: output identifier -> names of the input trees it
        # was derived from. Demand-driven outputs inherit the origins of
        # the output whose construction demanded them.
        self.provenance: Dict[str, Set[str]] = {}
        # For arena inputs the map is filled at materialization time
        # (iterating the store here would decode every root eagerly).
        self._input_names: Dict[int, str] = (
            {}
            if self.arena_engine is not None
            else {id(node): name for name, node in store}
        )
        self._active_origins: Set[str] = set()
        # Identifiers whose associated value is known reference-free
        # (the arena fast path never builds reference leaves — the
        # compiler rejects them): finish() skips their splice and
        # dangling-reference walks.
        self.ref_free_ids: Set[str] = set()
        # Detailed per-firing recorder: explicit or ambient, usually
        # None. Resolved once per run; when None the construct path pays
        # exactly one extra `is not None` check per output group.
        self.prov: Optional[ProvenanceStore] = interpreter.provenance
        if self.prov is None:
            self.prov = ambient_provenance()
        self.prov_firings = 0
        self.prov_records = 0

    # -- Skolem callback ------------------------------------------------------

    def _on_skolem(self, identifier: str, term, deref: bool) -> None:
        if deref:
            self.pending_deref[identifier] = None
        else:
            self.pending_ref[identifier] = None
        if self._active_origins:
            self.provenance.setdefault(identifier, set()).update(
                self._active_origins
            )

    # -- top-level application --------------------------------------------------

    def apply_top_level(self, inputs: Optional[List[Tree]] = None) -> None:
        """Apply every non-fallback rule over *inputs* (one batch; the
        whole input set by default), with hierarchy shadowing per root
        input tree. Fallback rules run afterwards, once, over the whole
        run's leftovers — see :meth:`apply_fallbacks`."""
        if inputs is None and self.arena_engine is not None:
            self._apply_top_level_arena()
            return
        if inputs is None:
            inputs = self.inputs
        needed = self.interp.needed_functors
        for rule in self.order:
            if rule.is_fallback:
                continue
            if needed is not None and rule.head_functor not in needed:
                continue  # targeted evaluation: this output is not queried
            self._apply_rule_with_shadowing(rule, inputs)

    def _apply_top_level_arena(self) -> None:
        """Top-level application over an arena: compilable rules run
        entirely on the columns (:meth:`ArenaEngine.apply_rule`); the
        rest run the existing tree path over candidates the engine
        prefilters — and lazily materializes — from the label/arity
        columns."""
        engine = self.arena_engine
        needed = self.interp.needed_functors
        for rule in self.order:
            if rule.is_fallback:
                continue
            if needed is not None and rule.head_functor not in needed:
                continue  # targeted evaluation: this output is not queried
            if engine.apply_rule(rule):
                continue
            self._apply_rule_with_shadowing(rule, engine.slow_candidates(rule))

    def apply_fallbacks(self) -> None:
        """Fallback (empty-head) rules over the inputs no other rule
        converted, recording what they match; with ``runtime_typing``,
        raise for inputs that not even a fallback rule matched."""
        leftovers = self._leftover_inputs()
        if not leftovers:
            return
        for rule in self.order:
            if not rule.is_fallback:
                continue
            candidates = self._candidates(rule, leftovers)
            if not candidates:
                continue
            bindings = self._rule_bindings(rule, candidates)
            # A fallback match *handles* the input (the paper's Rule
            # Exception): account it as converted.
            for binding in bindings:
                for bp in rule.root_body_patterns():
                    value = binding.get(bp.name.name)
                    if isinstance(value, Tree):
                        self.matched_inputs.add(id(value))
                        self.matched_values.add(value)
        if self.interp.runtime_typing:
            unhandled = [t for t in leftovers if not self._converted(t)]
            if unhandled:
                raise UnconvertedDataError(
                    f"{len(unhandled)} input tree(s) matched by no rule "
                    f"(not even a fallback rule; first: "
                    f"{str(unhandled[0])[:80]!r})"
                )

    def _converted(self, node: Tree) -> bool:
        return id(node) in self.matched_inputs or node in self.matched_values

    def _leftover_inputs(self) -> List[Tree]:
        """The inputs no rule converted so far, in store order."""
        if self.arena_engine is not None:
            return self.arena_engine.unconverted_inputs()
        return [t for t in self.inputs if not self._converted(t)]

    def _candidates(self, rule: Rule, inputs: List[Tree]) -> Sequence[Tree]:
        """The inputs *rule* could match, per the dispatch index (all of
        them when indexing is off or the rule is unindexed)."""
        dispatch = self.interp.dispatch
        if dispatch is None:
            return inputs
        # The entry retains the inputs list so its id() stays allocated
        # for as long as the cache references it (id reuse would
        # otherwise alias a dead batch list to a fresh one).
        entry = self._candidate_caches.get(id(inputs))
        if entry is None or entry[0] is not inputs:
            entry = (inputs, {})
            self._candidate_caches[id(inputs)] = entry
        return dispatch.candidates(rule, inputs, entry[1], self.dispatch_stats)

    def _rule_bindings(self, rule: Rule, candidates: Sequence[Tree]) -> List[Binding]:
        """Phases 1-3 of *rule* over all *candidates* as one group."""
        [(bindings, warnings)] = self.interp.rule_bindings(
            rule, [candidates], self.match_ctx, self.metrics
        )
        self.warnings.extend(warnings)
        return bindings

    def _apply_rule_with_shadowing(self, rule: Rule, inputs: List[Tree]) -> None:
        roots = rule.root_body_patterns()
        single_root = roots[0].name.name if len(roots) == 1 else None
        candidates = self._candidates(rule, inputs)
        if not candidates:
            return
        bindings = self._rule_bindings(rule, candidates)
        if not bindings:
            return
        if single_root is not None:
            kept: List[Binding] = []
            for binding in bindings:
                root_tree = binding.get(single_root)
                key = id(root_tree)
                names = self._matched_by.setdefault(key, set())
                if self.interp.hierarchy.shadowed(rule, names):
                    continue
                kept.append(binding)
            if not kept:
                return
            for binding in kept:
                root_tree = binding.get(single_root)
                self._matched_by.setdefault(id(root_tree), set()).add(rule.name)
                self.matched_inputs.add(id(root_tree))
                if isinstance(root_tree, Tree):
                    self.matched_values.add(root_tree)
            bindings = kept
        else:
            for binding in bindings:
                for bp in roots:
                    root_tree = binding.get(bp.name.name)
                    if root_tree is not None:
                        self.matched_inputs.add(id(root_tree))
                        if isinstance(root_tree, Tree):
                            self.matched_values.add(root_tree)
        self._construct_outputs(rule, bindings)

    # -- phases 4-5 -------------------------------------------------------------

    def _construct_outputs(self, rule: Rule, bindings: List[Binding]) -> None:
        if rule.head is None:
            return
        head = rule.head
        groups: Dict[str, List[Binding]] = {}
        order: List[str] = []
        for binding in bindings:
            try:
                identifier = self.constructor.skolem_id(head.term, binding, False)
            except Unbound:
                continue  # missing Skolem argument: no output for it
            if identifier not in groups:
                groups[identifier] = []
                order.append(identifier)
            groups[identifier].append(binding)
        root_names = [bp.name.name for bp in rule.root_body_patterns()]
        metrics = self.metrics
        metrics.counter(M_CONSTRUCT_GROUPS).inc(len(order), rule=rule.name)
        built = skipped = 0
        with span("yatl.phase.construct", rule=rule.name, groups=len(order)):
            for identifier in order:
                group = groups[identifier]
                origins = self._origins_of(group, root_names)
                self.provenance.setdefault(identifier, set()).update(origins)
                previous_origins = self._active_origins
                self._active_origins = self.provenance[identifier]
                try:
                    value = self.constructor.construct(head.tree, group)
                except Unbound as unbound:
                    self.warnings.append(
                        f"rule {rule.name!r}: output {identifier} skipped "
                        f"(unbound {unbound.name})"
                    )
                    skipped += 1
                    continue
                finally:
                    self._active_origins = previous_origins
                if isinstance(value, Ref):
                    self.root_refs[identifier] = value
                else:
                    self.skolems.associate(identifier, value)
                built += 1
                self.pending_ref.pop(identifier, None)
                self.pending_deref.pop(identifier, None)
                if self.prov is not None:
                    self.prov_firings += 1
                    if self.prov.record_firing(
                        identifier,
                        rule.name,
                        inputs=origins,
                        program=self.interp.program_name,
                        skolem=partial(self.skolems.term_text, identifier),
                    ):
                        self.prov_records += 1
        if built:
            metrics.counter(M_RULE_OUTPUTS).inc(built, rule=rule.name)
        if skipped:
            metrics.counter(M_CONSTRUCT_SKIPPED).inc(skipped, rule=rule.name)

    def _origins_of(self, group: List[Binding], root_names: List[str]) -> Set[str]:
        """Input-tree names contributing to one Skolem group: top-level
        root matches, plus (for demand-driven applications) the origins
        of the demanding output."""
        origins: Set[str] = set(self._active_origins)
        for binding in group:
            for name in root_names:
                value = binding.get(name)
                input_name = self._input_names.get(id(value))
                if input_name is not None:
                    origins.add(input_name)
        return origins

    # -- demand-driven evaluation -------------------------------------------------

    def demand_loop(self) -> None:
        """Evaluate pending dereferenced Skolems on their subtree
        arguments until quiescence (safe recursion, Section 3.4), one
        batched round at a time (see :meth:`_demand_round`)."""
        by_functor: Dict[str, List[Rule]] = {}
        for rule in self.order:
            if rule.head is not None:
                by_functor.setdefault(rule.head.term.functor, []).append(rule)
        iterations = 0
        rounds = 0
        while True:
            pending = [
                i
                for i in self.pending_deref
                if not self.skolems.has_value(i) and i not in self.root_refs
            ]
            if not pending:
                break
            rounds += 1
            # Every pending identifier of every round is one step.
            iterations += len(pending)
            if iterations > self.interp.max_demand_iterations:
                raise CyclicProgramError(
                    "demand-driven evaluation did not converge "
                    f"(> {self.interp.max_demand_iterations} steps): "
                    "the program is likely cyclic"
                )
            with span("yatl.demand.round", round=rounds, pending=len(pending)):
                progressed = self._demand_round(pending, by_functor)
            if not progressed:
                break
        if iterations:
            self.metrics.counter(M_DEMAND_ITERATIONS).inc(iterations)
            self.metrics.counter(M_DEMAND_ROUNDS).inc(rounds)

    def _demand_round(
        self, pending: List[str], by_functor: Dict[str, List[Rule]]
    ) -> bool:
        """Evaluate one round of pending identifiers; True if any rule
        matched.

        The subject of an identifier is its first tree argument. Each
        defining rule runs once per round, in ``specific_first`` order,
        over every subject it was not yet applied to, is not shadowed
        for and is admitted for. Outputs are then constructed per
        identifier, per rule, in pending order. Matching reads only the
        input store, so the Skolem numbering, the shadowing and the
        ``applied`` bookkeeping are those of evaluating the identifiers
        one at a time.

        ``applied`` and ``demand_matched`` key on the subject's
        structural identity: Skolem terms are value-keyed, so equal
        subjects produce identical outputs, and the shadowing state must
        be shared too — a general rule stays shadowed once a more
        specific rule matched this subject, including on later rounds
        for a still-pending identifier.
        """
        subjects: List[Union[Tree, Ref]] = []  # one per demanding identifier
        demanders: Dict[str, List[int]] = {}  # rule name -> indexes into subjects
        for identifier in pending:
            functor, args = self.skolems.key_of(identifier)
            defining = by_functor.get(functor)
            subject = next((a for a in args if isinstance(a, (Tree, Ref))), None)
            if not defining or subject is None:
                continue
            self.demand_matched.setdefault(subject, set())
            for rule in defining:
                demanders.setdefault(rule.name, []).append(len(subjects))
            subjects.append(subject)
        hierarchy = self.interp.hierarchy
        dispatch = self.interp.dispatch
        # Demand index -> its (rule, bindings, warnings), in defining
        # order: rules are visited in specific_first order, and each
        # identifier's defining rules are a subsequence of it.
        claims: Dict[int, List[Tuple[Rule, List[Binding], List[str]]]] = {}
        for rule in self.order:
            batch: List[int] = []
            for index in demanders.get(rule.name, ()):
                subject = subjects[index]
                key = (rule.name, subject)
                if key in self.applied:
                    continue
                matched = self.demand_matched[subject]
                if matched and hierarchy.shadowed(rule, matched):
                    continue
                self.applied.add(key)  # a dispatch rejection can never match
                if dispatch is None or dispatch.admits(
                    rule, subject, self.dispatch_stats
                ):
                    batch.append(index)
            if not batch:
                continue
            results = self.interp.rule_bindings(
                rule, [[subjects[i]] for i in batch], self.match_ctx, self.metrics
            )
            for index, (bindings, warnings) in zip(batch, results):
                if bindings:
                    self.demand_matched[subjects[index]].add(rule.name)
                if bindings or warnings:
                    claims.setdefault(index, []).append((rule, bindings, warnings))
        progressed = False
        for index in sorted(claims):
            for rule, bindings, warnings in claims.pop(index):
                self.warnings.extend(warnings)
                if bindings:
                    self._construct_outputs(rule, bindings)
                    progressed = True
        return progressed

    # -- final splicing ----------------------------------------------------------

    def finish(self) -> ConversionResult:
        splicer = _Splicer(self.skolems, self.root_refs, self.ref_free_ids)
        output = DataStore()
        with span("yatl.splice"):
            for identifier in self.skolems.ids():
                if not self.skolems.has_value(identifier) and identifier not in self.root_refs:
                    continue
                output.add(identifier, splicer.value_of(identifier))
        # Dangling plain references (known reference-free outputs skip
        # the walk; mirrors DataStore.dangling_references exactly).
        ref_free = self.ref_free_ids
        dangling = sorted(
            {
                ref.target
                for name, node in output
                if name not in ref_free
                for ref in node.references()
                if ref.target not in output
            }
        )
        if dangling:
            message = f"dangling reference(s) in output: {', '.join(dangling)}"
            if self.interp.strict_refs:
                raise DanglingReferenceError(message)
            self.warnings.append(message)
        unconverted = self._leftover_inputs()
        # The name-level origins live in the run's ProvenanceStore
        # (explicit/ambient when installed, a fresh result-local one
        # otherwise) so result.lineage() reads one source of truth and
        # per-firing records — when recorded — share it.
        prov = self.prov if self.prov is not None else ProvenanceStore()
        for identifier, origins in self.provenance.items():
            if identifier in output:
                prov.add_origins(identifier, origins)
        self._flush_metrics(output, unconverted)
        return ConversionResult(
            output, self.skolems, unconverted, self.warnings, prov,
            metrics=self.metrics,
        )

    def close(self) -> None:
        """Break the run's back-references (the constructor's Skolem
        callback and the arena engine both point back at this state),
        so reference counting frees the run as soon as it ends."""
        self.constructor.on_skolem = None
        self.arena_engine = None

    def _flush_metrics(self, output: DataStore, unconverted: List[Tree]) -> None:
        """Flush the hot-path accumulators (dispatch stats, memo hit
        counts, Skolem stats) into the registry, once per run."""
        m = self.metrics
        m.counter(M_INPUT_TREES).inc(self.n_inputs)
        m.counter(M_INPUT_CONVERTED).inc(self.n_inputs - len(unconverted))
        m.counter(M_INPUT_UNCONVERTED).inc(len(unconverted))
        m.counter(M_OUTPUT_TREES).inc(len(output))
        m.counter(M_WARNINGS).inc(len(self.warnings))
        ds = self.dispatch_stats
        m.counter(M_DISPATCH_INDEXED).inc(ds.indexed_calls)
        m.counter(M_DISPATCH_UNINDEXED).inc(ds.unindexed_calls)
        m.counter(M_DISPATCH_CONSIDERED).inc(ds.subjects_considered)
        m.counter(M_DISPATCH_ADMITTED).inc(ds.subjects_admitted)
        m.counter(M_DISPATCH_ADMIT_CHECKS).inc(ds.admit_checks)
        m.counter(M_DISPATCH_ADMIT_REJECTIONS).inc(ds.admit_rejections)
        # Ratios are whole-registry gauges: recomputed from the counter
        # totals so shared registries aggregate correctly across runs.
        calls = m.value(M_DISPATCH_INDEXED) + m.value(M_DISPATCH_UNINDEXED)
        if calls:
            m.gauge(M_DISPATCH_HIT_RATIO).set(m.value(M_DISPATCH_INDEXED) / calls)
        considered = m.value(M_DISPATCH_CONSIDERED)
        if considered:
            m.gauge(M_DISPATCH_REDUCTION).set(
                1.0 - m.value(M_DISPATCH_ADMITTED) / considered
            )
        m.counter(M_SKOLEM_FRESH).inc(self.skolems.fresh_ids)
        m.counter(M_SKOLEM_REUSED).inc(self.skolems.reused_ids)
        m.gauge(M_SKOLEM_SIZE).set(len(self.skolems))
        m.counter(M_MATCH_COVERAGE_MEMO_HITS).inc(self.match_ctx.coverage_memo_hits)
        if self.prov_firings:
            m.counter(M_PROVENANCE_FIRINGS).inc(self.prov_firings)
        if self.prov_records:
            m.counter(M_PROVENANCE_RECORDS).inc(self.prov_records)


class _Splicer:
    """Dereference splicing "at the end of rules processing": replaces
    every dereference placeholder by the (spliced) value of its
    identifier, memoized per run. Methods rather than closures in
    :meth:`_RunState.finish`: mutually recursive closures form
    reference cycles that only the cyclic garbage collector frees."""

    def __init__(
        self,
        skolems: SkolemTable,
        root_refs: Dict[str, Ref],
        ref_free_ids: Set[str],
    ) -> None:
        self.skolems = skolems
        self.root_refs = root_refs
        self.ref_free_ids = ref_free_ids
        self.resolved: Dict[str, Tree] = {}
        self.in_progress: Set[str] = set()

    def value_of(self, identifier: str) -> Tree:
        resolved = self.resolved.get(identifier)
        if resolved is not None:
            return resolved
        if identifier in self.in_progress:
            raise CyclicProgramError(
                f"cyclic dereferencing detected while splicing {identifier!r}"
            )
        raw = self.skolems.value(identifier)
        if raw is None:
            alias = self.root_refs.get(identifier)
            if alias is not None:
                if is_deref_placeholder(alias):
                    return self.value_of(deref_target(alias))
                return self.value_of(alias.target)
            raise DanglingReferenceError(
                f"no value was associated to {identifier!r} "
                f"({_term_text(self.skolems, identifier)})"
            )
        if identifier in self.ref_free_ids:
            # Reference-free by construction: splicing would walk the
            # tree only to return it unchanged.
            self.resolved[identifier] = raw
            return raw
        self.in_progress.add(identifier)
        try:
            spliced = raw.map_refs(self.splice)
        finally:
            self.in_progress.discard(identifier)
        self.resolved[identifier] = spliced
        return spliced

    def splice(self, ref: Ref) -> Union[Tree, Ref]:
        if is_deref_placeholder(ref):
            return self.value_of(deref_target(ref))
        return ref


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

_MISSING = object()


def _as_store(
    data: Union[DataStore, Sequence[Tree], Tree], use_arena: bool = True
) -> DataStore:
    if isinstance(data, ArenaStore):
        # The ForestView seam: an arena input engages the batch path
        # unless the ablation flag turns it off, in which case it is
        # materialized up front and runs the plain tree path.
        return data if use_arena else data.to_data_store()
    if isinstance(data, DataStore):
        return data
    if isinstance(data, Tree):
        data = [data]
    store = DataStore()
    for index, node in enumerate(data, start=1):
        store.add(f"in{index}", node)
    return store


def _argument_values(call: FunctionCall, binding: Binding) -> Optional[List[Value]]:
    values: List[Value] = []
    for arg in call.args:
        if isinstance(arg, (Var, PatternVar)):
            if arg not in binding:
                return None
            values.append(binding[arg])
        else:
            values.append(arg)
    return values


def _expr_value(expr: Expr, binding: Binding):
    if isinstance(expr, (Var, PatternVar)):
        if expr not in binding:
            return _MISSING
        return binding[expr]
    return expr


def _term_text(skolems: SkolemTable, identifier: str) -> str:
    functor, args = skolems.key_of(identifier)
    return f"{functor}/{len(args)}"
