"""Batched demand rounds (Section 3.4 safe recursion, evaluated per round).

Each demand round matches all of its subjects with one
``rule_bindings`` call per defining rule, then constructs outputs per
pending identifier in per-identifier, per-rule order. The outputs must
be exactly those of evaluating one subject at a time: the golden
digests below were recorded from that subject-at-a-time demand loop on
the same inputs. Each case pins the output store bytes, the Skolem
allocation log (identifier numbering) and the demand counters.
"""

import hashlib

import pytest

from repro.core.trees import DataStore, Ref, atom, sym, tree
from repro.errors import CyclicProgramError
from repro.library import o2web_program, sgml_brochures_to_odmg
from repro.obs import collecting
from repro.workloads import brochure_trees
from repro.yatl.interpreter import Interpreter
from repro.yatl.parser import parse_program


def digests(result):
    """``(store digest, allocation-log digest)`` of a conversion."""
    store = hashlib.sha256()
    for name, node in result.store:
        store.update(f"{name}\t{node!r}\n".encode())
    log = hashlib.sha256()
    for identifier, functor, args in result.skolems.allocation_log():
        log.update(f"{identifier}\t{functor}\t{args!r}\n".encode())
    return store.hexdigest()[:16], log.hexdigest()[:16]


def _objects(count, cyclic=False, suppliers_per_brochure=2):
    inputs = brochure_trees(
        count,
        suppliers_per_brochure=suppliers_per_brochure,
        distinct_suppliers=max(1, count // 5),
        seed=3,
    )
    return sgml_brochures_to_odmg(cyclic=cyclic).run(inputs).store


def _o2web(count):
    return lambda: o2web_program().run(_objects(count))


def _composed(**options):
    composed = sgml_brochures_to_odmg().composed_with(
        o2web_program(), name="SgmlToHtml"
    )
    inputs = brochure_trees(50, distinct_suppliers=10, seed=3)
    return composed.run(inputs, **options)


def _cyclic():
    return sgml_brochures_to_odmg(cyclic=True).run(
        brochure_trees(50, distinct_suppliers=10, seed=3)
    )


def _cyclic_o2web():
    return o2web_program().run(_objects(50, cyclic=True))


def _mixed_objects(count=6):
    """ODMG objects whose attributes mix atoms, tuples, lists, bags and
    sets of references, so one demand round interleaves subjects of
    every O2Web rule, and each of them demands new identifiers."""
    store = DataStore()
    for i in range(1, count + 1):
        store.add(f"s{i}", tree("class", tree("supplier",
            tree("name", atom(f"dealer {i}")),
            tree("address", tree("tuple",
                tree("city", atom(f"city {i % 3}")),
                tree("zips", tree("list", atom(75000 + i), atom(69000 + i))),
            )),
            tree("tags", tree("bag", atom("vw"), atom(f"t{i % 2}"))),
            tree("peers", tree("set", *[Ref(f"s{j}") for j in range(1, i)])),
        )))
    return store


def _sharded():
    # A shard resolves references only among its own objects, so the
    # sharded store holds cars without suppliers: no object references,
    # but the same demand rounds over tuple and collection subtrees.
    objects = _objects(50, suppliers_per_brochure=0)
    return o2web_program().run(objects, workers=2, chunk_size=8)


CASES = {
    "o2web_1": _o2web(1),
    "o2web_50": _o2web(50),
    "o2web_1000": _o2web(1000),
    "composed_sgml_to_html": _composed,
    "cyclic": _cyclic,
    "cyclic_o2web": _cyclic_o2web,
    "o2web_sharded": _sharded,
    "o2web_mixed": lambda: o2web_program().run(_mixed_objects()),
}

#: case -> (store digest, allocation-log digest, demand iterations,
#: demand rounds), recorded with one demand evaluation per subject.
GOLDEN = {
    "composed_sgml_to_html": ("3ff476403eaa4d71", "fb9fd4f759900b25", 0, 0),
    "cyclic": ("712d4bced53f6534", "b49c17b1e76e8e41", 0, 0),
    "cyclic_o2web": ("5501dee9edf96a2b", "c472f77e9aaa16dd", 191, 2),
    "o2web_1": ("d09f3fb265afd191", "5580717343d0382b", 7, 2),
    "o2web_50": ("6a01699fc0b01823", "09a92197efd1c994", 131, 2),
    "o2web_1000": ("aa4a283500c6b8f9", "3475ccb4f6048825", 2597, 2),
    "o2web_sharded": ("f24188a400de204d", "ea7bd3afa61a3353", 90, 7),
    "o2web_mixed": ("d1ad0ccf897eb4b9", "c563d557ce13f5ea", 49, 3),
    "shadow_pending": ("d5f70ce48f41ae35", "b5f897162b7e080d", 3, 2),
}


def run_case(name):
    with collecting() as registry:
        result = CASES[name]()
    return digests(result) + (
        registry.value("yatl.demand.iterations"),
        registry.value("yatl.demand.rounds"),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_subject_at_a_time_goldens(name):
    assert run_case(name) == GOLDEN[name]


# ---------------------------------------------------------------------------
# The max_demand_iterations guard counts every pending identifier
# ---------------------------------------------------------------------------


def _interpreter(program, cap):
    return Interpreter(
        program.rules,
        registry=program.registry,
        model=program._context_model(),
        hierarchy=program.hierarchy(),
        max_demand_iterations=cap,
    )


@pytest.fixture(scope="module")
def o2web_inputs():
    return _objects(50)


def test_guard_boundary_is_exact(o2web_inputs):
    program = o2web_program()
    n = GOLDEN["o2web_50"][2]
    assert n > 0
    with pytest.raises(CyclicProgramError):
        _interpreter(program, n - 1).run(o2web_inputs)
    result = _interpreter(program, n).run(o2web_inputs)
    assert result.metrics.value("yatl.demand.iterations") == n
    assert digests(result) == GOLDEN["o2web_50"][:2]


# ---------------------------------------------------------------------------
# Hierarchy shadowing for a subject that stays pending across rounds
# ---------------------------------------------------------------------------

SHADOW_PENDING_TEXT = """
program ShadowPending
rule Broken:
  Holder(P) : holder < -> F(P2), -> Missing >
<=
  P : box -> ^P2
rule Working:
  Holder(P) : holder -> F(P2)
<=
  P : crate -> ^P2
rule Specific:
  F(P2) : special -> W
<=
  P2 : item < -> kind -> gold, -> v -> X >
rule General:
  F(P2) : general -> X
<=
  P2 : item < -> kind -> K, -> v -> X >
end
"""


def _item(kind, value):
    return tree("item", tree("kind", sym(kind)), tree("v", atom(value)))


def test_specific_rule_keeps_shadowing_a_subject_pending_across_rounds():
    # The gold item is demanded by Broken, whose own output is skipped
    # (Missing is never bound). Specific matches it but cannot build
    # its output (W is never bound), so F(gold item) is still pending
    # in round 2, where General must stay shadowed. The silver item is
    # built by General in round 1.
    program = parse_program(SHADOW_PENDING_TEXT)
    with collecting() as registry:
        result = program.run(
            [tree("box", _item("gold", 1)), tree("crate", _item("silver", 2))]
        )
    assert registry.value("yatl.demand.rounds") == 2
    assert registry.value("yatl.rule.bindings_matched", rule="General") == 1
    assert registry.value("yatl.rule.bindings_matched", rule="Specific") == 1
    [holder] = result.trees_of("Holder")
    assert holder == tree("holder", tree("general", atom(2)))
    assert digests(result) + (
        registry.value("yatl.demand.iterations"),
        registry.value("yatl.demand.rounds"),
    ) == GOLDEN["shadow_pending"]
