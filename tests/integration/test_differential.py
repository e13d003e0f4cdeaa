"""Randomized differential tests for the Section 4 program operations.

The paper asserts that instantiated programs are "equivalent to the
previous one, but more specific" (§4.1) and that composed programs
replace sequential application (§4.3). These tests check both
equivalences on randomized workloads, plus round-trip stability of the
whole program serialization chain, and that O2Web's typing modes (a
store tagged with its model or not, run-time typing, the dispatch
index) are schedules of one semantics (§3.5).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import car_schema_model
from repro.library import o2web_program, sgml_brochures_to_odmg
from repro.objectdb import car_dealer_schema
from repro.obs import semantic_diff
from repro.wrappers import OdmgExportWrapper, OdmgImportWrapper
from repro.workloads import brochure_trees, car_object_store


def _pages(result):
    return sorted(
        str(result.store.materialize(i)) for i in result.ids_of("HtmlPage")
    )


@pytest.fixture(scope="module")
def programs():
    to_odmg = sgml_brochures_to_odmg()
    web = o2web_program()
    composed = to_odmg.composed_with(web, name="SgmlToHtml")
    specialized = web.instantiated_on(car_schema_model(), name="Specialized")
    return to_odmg, web, composed, specialized


@given(
    seed=st.integers(0, 10_000),
    count=st.integers(1, 8),
    distinct=st.integers(1, 5),
    per_brochure=st.integers(0, 3),
)
@settings(max_examples=25, deadline=None)
def test_composition_equivalence_randomized(
    programs, seed, count, distinct, per_brochure
):
    """composed(x) == web(to_odmg(x)) on random brochure collections."""
    to_odmg, web, composed, _ = programs
    inputs = brochure_trees(
        count,
        distinct_suppliers=distinct,
        suppliers_per_brochure=per_brochure,
        seed=seed,
    )
    sequential = web.run(to_odmg.run(inputs).store)
    direct = composed.run(inputs)
    assert _pages(sequential) == _pages(direct)


@given(
    seed=st.integers(0, 10_000),
    cars=st.integers(1, 6),
    suppliers=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_customization_equivalence_randomized(programs, seed, cars, suppliers):
    """The program instantiated on the Car Schema produces the same
    pages as the general Web program on random object graphs."""
    _, web, _, specialized = programs
    objects = car_object_store(cars=cars, suppliers=suppliers, seed=seed)
    store = OdmgImportWrapper().to_store(objects)
    assert _pages(web.run(store)) == _pages(specialized.run(store))


@given(seed=st.integers(0, 10_000), count=st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_serialization_is_semantics_preserving(programs, seed, count):
    """print -> parse -> run gives the same output store."""
    from repro.yatl.parser import parse_program
    from repro.yatl.printer import render_program

    to_odmg, _, _, _ = programs
    reparsed = parse_program(render_program(to_odmg))
    inputs = brochure_trees(count, seed=seed)
    original = to_odmg.run(inputs)
    again = reparsed.run(inputs)
    assert sorted(original.store.names()) == sorted(again.store.names())
    for name in original.store.names():
        assert original.store.get(name) == again.store.get(name)


@given(seed=st.integers(0, 10_000), count=st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_targeted_evaluation_is_a_restriction(programs, seed, count):
    """Targeted outputs are exactly the full run's outputs for the
    targeted functor (plus dependencies), value-identical."""
    to_odmg, _, _, _ = programs
    inputs = brochure_trees(count, seed=seed)
    full = to_odmg.run(inputs)
    targeted = to_odmg.run(inputs, target_functors=["Psup"])
    assert targeted.ids_of("Psup") == full.ids_of("Psup")
    for identifier in targeted.ids_of("Psup"):
        assert targeted.tree(identifier) == full.tree(identifier)
    assert not targeted.ids_of("Pcar")


def _assert_typing_modes_agree(web, store):
    """O2Web over a tagged ODMG store, against an untagged copy, with
    run-time typing and without the dispatch index: no output differs
    by canonical Skolem term, and the pages are the same."""
    assert store.model is not None
    untagged = store.copy()
    tagged = web.run(store)
    modes = {
        "untagged": web.run(untagged),
        "runtime_typing": web.run(store, runtime_typing=True),
        "untagged_runtime_typing": web.run(untagged, runtime_typing=True),
        "unindexed": web.run(store, use_dispatch_index=False),
        "untagged_unindexed": web.run(untagged, use_dispatch_index=False),
    }
    assert tagged.metrics.value("yatl.typing.checks_run", pattern="Ptype") == 0
    for mode, result in modes.items():
        summary = semantic_diff(tagged, result)["summary"]
        assert (summary["added"], summary["removed"], summary["changed"]) == \
            (0, 0, 0), (mode, summary)
        assert _pages(result) == _pages(tagged), mode


@given(
    seed=st.integers(0, 10_000),
    count=st.integers(1, 8),
    distinct=st.integers(1, 5),
    per_brochure=st.integers(0, 3),
)
@settings(max_examples=15, deadline=None)
def test_typing_modes_on_brochure_stores(
    programs, seed, count, distinct, per_brochure
):
    to_odmg, web, _, _ = programs
    objects = to_odmg.run(brochure_trees(
        count, distinct_suppliers=distinct,
        suppliers_per_brochure=per_brochure, seed=seed,
    ))
    exported = OdmgExportWrapper(car_dealer_schema()).from_store(objects.store)
    _assert_typing_modes_agree(web, OdmgImportWrapper().to_store(exported))


@given(
    seed=st.integers(0, 10_000),
    cars=st.integers(1, 6),
    suppliers=st.integers(1, 4),
)
@settings(max_examples=15, deadline=None)
def test_typing_modes_on_dealer_stores(programs, seed, cars, suppliers):
    _, web, _, _ = programs
    objects = car_object_store(cars=cars, suppliers=suppliers, seed=seed)
    _assert_typing_modes_agree(web, OdmgImportWrapper().to_store(objects))
