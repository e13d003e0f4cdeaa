"""Allocation discipline: a conversion leaves no cyclic garbage.

Reference counting frees a binding, a closure cell or an intermediate
tree the moment its last reference goes, but only if nothing on the
conversion path forms a reference cycle. A self-recursive nested
closure is such a cycle (its cell points back at the function), and so
is a bound-method callback stored on an object that the method's owner
holds. Either one turns every object it reaches into work for the
cyclic garbage collector. Under ``gc.DEBUG_SAVEALL`` the collector
keeps what it would have freed in ``gc.garbage``; after a full
conversion that list must be empty (see docs/PERFORMANCE.md,
"Allocation discipline").

That discipline is what lets a run pause the collector altogether
(docs/PERFORMANCE.md, "Collector pause"). The pause must end with the
run however it ends, survive nesting and concurrency, and leave a
collector the caller disabled alone. Compiled rule plans, cached on the
rules, must not add cycles either, nor stop rules from being pickled
for pool workers.
"""

import gc
import pickle
import sys
import threading

import pytest

from repro.core.trees import atom, tree
from repro.errors import CyclicProgramError, UnconvertedDataError
from repro.library import o2web_program, sgml_brochures_to_odmg
from repro.workloads import brochure_trees
from repro.yatl import interpreter
from repro.yatl.functions import standard_registry
from repro.yatl.interpreter import Interpreter, collector_paused
from repro.yatl.parser import parse_rule


@pytest.fixture(scope="module")
def brochures():
    return brochure_trees(20, distinct_suppliers=5, seed=11)


def cyclic_garbage(action):
    """What only the cyclic collector could free after *action*, as
    ``(kind, count)`` pairs, most frequent first (functions by name)."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        kinds = {}
        for item in gc.garbage:
            name = getattr(item, "__qualname__", type(item).__name__)
            kinds[name] = kinds.get(name, 0) + 1
        return sorted(kinds.items(), key=lambda kv: -kv[1])
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_sgml_brochures_to_odmg_leaves_no_cycles(brochures):
    program = sgml_brochures_to_odmg()
    assert cyclic_garbage(lambda: program.run(brochures)) == []


def test_o2web_leaves_no_cycles(brochures):
    objects = sgml_brochures_to_odmg().run(brochures).store
    program = o2web_program()
    assert cyclic_garbage(lambda: program.run(objects)) == []


def test_composed_sgml_to_html_leaves_no_cycles(brochures):
    to_odmg, web = sgml_brochures_to_odmg(), o2web_program()

    def compose_and_run():
        to_odmg.composed_with(web, name="SgmlToHtml").run(brochures)

    assert cyclic_garbage(compose_and_run) == []


def test_discarded_program_with_compiled_plans_leaves_no_cycles(brochures):
    def compile_run_discard():
        to_odmg, web = sgml_brochures_to_odmg(), o2web_program()
        web.run(to_odmg.run(brochures).store)
        fired = [rule for rule in to_odmg.rules + web.rules if rule._plan]
        assert len(fired) == len(to_odmg.rules) + len(web.rules)

    assert cyclic_garbage(compile_run_discard) == []


# ---------------------------------------------------------------------------
# Collector pause
# ---------------------------------------------------------------------------


@pytest.fixture
def collector_on():
    """Every test starts with the collector enabled and leaves it so."""
    gc.enable()
    yield
    gc.enable()


def test_collector_is_paused_during_a_run_only(brochures, collector_on):
    seen = []

    def probe(value):
        seen.append(gc.isenabled())
        return value

    registry = standard_registry().child()
    registry.register("probe", probe)
    rule = parse_rule("rule R: Out(N) : out -> V <= P : a -> N, V is probe(N)")
    Interpreter([rule], registry=registry).run([tree("a", atom(1))])
    assert seen == [False]
    assert gc.isenabled()


def test_large_run_promotes_its_survivors_on_resume(collector_on):
    threshold0, threshold1, _ = gc.get_threshold()
    inputs = brochure_trees(500, distinct_suppliers=100, seed=11)
    result = sgml_brochures_to_odmg().run(inputs)
    assert len(result.store) > 500
    # the run's survivors went to the oldest generation in one step,
    # not into the young generations that later scans walk
    young = len(gc.get_objects(0)) + len(gc.get_objects(1))
    assert young < threshold0 * threshold1


def test_collector_resumes_after_unconverted_data_error(collector_on):
    with pytest.raises(UnconvertedDataError):
        sgml_brochures_to_odmg().run([tree("junk")], runtime_typing=True)
    assert gc.isenabled()


def test_collector_resumes_after_cyclic_program_error(brochures, collector_on):
    program = o2web_program()
    objects = sgml_brochures_to_odmg().run(brochures).store
    interpreter = Interpreter(
        program.rules,
        registry=program.registry,
        model=program._context_model(),
        hierarchy=program.hierarchy(),
        max_demand_iterations=1,
    )
    with pytest.raises(CyclicProgramError):
        interpreter.run(objects)
    assert gc.isenabled()


def test_collector_the_caller_disabled_stays_disabled(brochures):
    gc.disable()
    try:
        sgml_brochures_to_odmg().run(brochures)
        with pytest.raises(UnconvertedDataError):
            sgml_brochures_to_odmg().run([tree("junk")], runtime_typing=True)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_runs_resume_when_the_outer_run_ends(brochures, collector_on):
    inner = sgml_brochures_to_odmg()
    seen = []

    def probe(value):
        inner.run(brochures[:3])  # a run inside the outer run
        seen.append(gc.isenabled())
        return value

    registry = standard_registry().child()
    registry.register("probe", probe)
    rule = parse_rule("rule R: Out(N) : out -> V <= P : a -> N, V is probe(N)")
    with collector_paused():
        Interpreter([rule], registry=registry).run([tree("a", atom(1))])
        assert not gc.isenabled()
    assert seen == [False]
    assert gc.isenabled()


def test_concurrent_runs_resume_when_the_last_one_ends(brochures, collector_on):
    # a fresh program: its plans are compiled by the racing threads
    program = sgml_brochures_to_odmg()
    expected = sgml_brochures_to_odmg().run(brochures).store
    start = threading.Barrier(4)
    outcomes = []

    def worker():
        start.wait(timeout=30)
        for _ in range(3):
            outcomes.append(program.run(brochures).store == expected)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-pause, often
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == [True] * 12
    assert gc.isenabled()


def test_overlapping_runs_still_collect_past_the_pause_limit(
    brochures, collector_on, monkeypatch
):
    monkeypatch.setattr(interpreter, "MAX_PAUSE_S", 0.0)
    full = []

    def count_full(phase, info):
        if phase == "stop" and info["generation"] == 2:
            full.append(info)

    program = sgml_brochures_to_odmg()
    gc.callbacks.append(count_full)
    try:
        with collector_paused():  # another run that never breaks
            program.run(brochures)
            program.run(brochures)
            assert len(full) == 2 and not gc.isenabled()
    finally:
        gc.callbacks.remove(count_full)
    assert gc.isenabled()


def test_compiled_plans_are_not_pickled(brochures, collector_on):
    program = sgml_brochures_to_odmg()
    serial = program.run(brochures)
    assert all(rule._plan is not None for rule in program.rules)
    copy = pickle.loads(pickle.dumps(program.rules[0]))
    assert copy._plan is None and copy == program.rules[0]
    pooled = program.run(brochures, workers=2, chunk_size=5)
    assert pooled.store == serial.store
    assert gc.isenabled()
