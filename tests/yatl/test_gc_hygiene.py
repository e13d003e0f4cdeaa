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
"""

import gc

import pytest

from repro.library import o2web_program, sgml_brochures_to_odmg
from repro.workloads import brochure_trees


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
