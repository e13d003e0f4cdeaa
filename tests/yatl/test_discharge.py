"""Store model tags and discharged domain checks (Section 3.5).

A store imported from an ODMG database is tagged with the ODMG model;
a run over it leaves out the ``P2:Ptype`` checks the tag implies, and
runs the others through compiled checkers. Every run must end exactly
as it did when each check went through ``is_instance``: same outputs,
Skolem numbering, unconverted inputs and warnings, or the same error.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instantiation import InstantiationContext, is_instance
from repro.core.labels import Symbol
from repro.core.models import odmg_model, sgml_model
from repro.core.trees import DataStore, Ref, Tree, atom, tree
from repro.errors import DanglingReferenceError, YatError
from repro.library import o2web_program, sgml_brochures_to_odmg
from repro.objectdb import car_dealer_schema
from repro.workloads import brochure_trees, car_object_store, deep_object_store
from repro.wrappers import OdmgExportWrapper, OdmgImportWrapper
from repro.yatl import interpreter
from repro.yatl.matching import MatchContext
from repro.yatl.typing import discharged_checks

DISCHARGED = "yatl.typing.checks_discharged"
RUN = "yatl.typing.checks_run"


class IsInstanceTyping(MatchContext):
    """Run-time typing as it ran before checks were compiled or
    discharged: every check through ``is_instance``, with one
    instantiation context per run."""

    def __init__(self, store=None, model=None, discharged=None):
        super().__init__(store=store, model=model)
        self._icontext = InstantiationContext(source_model=model, store=store)

    def instance_check(self, node, pattern_name):
        pattern = self.model.get_pattern(pattern_name) if self.model else None
        if pattern is None:
            return True
        return is_instance(node, pattern, self._icontext)


@contextmanager
def typing_by_is_instance():
    saved = interpreter.MatchContext
    interpreter.MatchContext = IsInstanceTyping
    try:
        yield
    finally:
        interpreter.MatchContext = saved


def outcome(program, store, **options):
    try:
        result = program.run(store, **options)
    except YatError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (
        "ok",
        [f"{name}\t{node!r}" for name, node in result.store],
        [i for i in result.skolems.allocation_log()],
        [repr(node) for node in result.unconverted],
        result.warnings,
    )


def same_as_is_instance(program, store, **options):
    expected_tag = store.model
    with typing_by_is_instance():
        expected = outcome(program, store, **options)
    assert store.model is expected_tag
    assert outcome(program, store, **options) == expected


def odmg_store(objects):
    return OdmgImportWrapper().to_store(objects)


def brochure_objects(count, seed):
    result = sgml_brochures_to_odmg().run(
        brochure_trees(count, distinct_suppliers=3, seed=seed)
    )
    return OdmgExportWrapper(car_dealer_schema()).from_store(result.store)


@pytest.fixture(scope="module")
def web():
    return o2web_program()


# ---------------------------------------------------------------------------
# Ill-typed hand-built stores
# ---------------------------------------------------------------------------

NAMES = ["o0", "o1", "o2", "o3", "gone"]
_atoms = st.one_of(
    st.sampled_from(["", "x", "set"]), st.integers(-2, 2), st.booleans(),
    st.sampled_from([1.0, 2.5]),
)
_leaves = st.one_of(
    _atoms.map(atom),
    st.sampled_from(NAMES).map(Ref),
    st.sampled_from(["x", "class", "tuple", "set"]).map(lambda n: Tree(Symbol(n))),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(
            st.sampled_from(["set", "bag", "list", "array", "tuple", "foo"]),
            st.lists(inner, max_size=3),
        ).map(lambda p: Tree(Symbol(p[0]), p[1])),
        st.lists(
            st.tuples(st.sampled_from(["f", "g"]), inner), max_size=2
        ).map(lambda fields: Tree(
            Symbol("tuple"), [Tree(Symbol(n), (v,)) for n, v in fields]
        )),
        st.tuples(_atoms, st.lists(inner, min_size=1, max_size=2)).map(
            lambda p: Tree(p[0], p[1])
        ),
    ),
    max_leaves=6,
)
_attributes = st.lists(
    st.tuples(st.sampled_from(["name", "desc", "parts"]),
              st.lists(_values, min_size=1, max_size=2)),
    max_size=3,
)
_objects = st.tuples(st.sampled_from(["car", "supplier", "set"]), _attributes).map(
    lambda p: tree("class", Tree(Symbol(p[0]), [
        Tree(Symbol(name), values) for name, values in p[1]
    ]))
)
_stray = _values.filter(lambda v: isinstance(v, Tree))
_stores = st.lists(
    st.one_of(_objects, _objects, _stray), min_size=1, max_size=4
).map(lambda trees: DataStore({f"o{i}": t for i, t in enumerate(trees)}))


class TestUntypedStores:
    @given(store=_stores, runtime_typing=st.booleans(), strict=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_stores_run_as_with_is_instance(
        self, web, store, runtime_typing, strict
    ):
        assert store.model is None
        same_as_is_instance(
            web, store, runtime_typing=runtime_typing, strict_refs=strict
        )

    @given(seed=st.integers(0, 1000), extra=_stray, name=st.sampled_from(
        ["o_new", "first", "last"]))
    @settings(max_examples=60, deadline=None)
    def test_tagged_store_mutated_after_import(self, web, seed, extra, name):
        store = odmg_store(car_object_store(cars=3, suppliers=2, seed=seed))
        assert store.model is not None
        names = store.names()
        target = {"first": names[0], "last": names[-1]}.get(name, name)
        store.add(target, extra)
        assert store.model is None
        same_as_is_instance(web, store, runtime_typing=True)
        try:
            result = web.run(store)
        except YatError:
            return  # e.g. a dereference of a dangling ``&o0``, as before
        assert result.metrics.value(DISCHARGED, pattern="Ptype") == 0

    def test_removal_clears_the_tag(self):
        store = odmg_store(car_object_store(cars=2, suppliers=2))
        store.remove(store.names()[0])
        assert store.model is None

    def test_copy_is_untagged(self):
        store = odmg_store(car_object_store(cars=2, suppliers=2))
        assert store.copy().model is None


# ---------------------------------------------------------------------------
# Tagged stores
# ---------------------------------------------------------------------------


class TestTaggedStores:
    def test_import_tags_with_the_odmg_model(self):
        store = odmg_store(car_object_store(cars=2, suppliers=2))
        assert store.model == odmg_model()
        assert store.model.is_instance_of(odmg_model())

    @given(seed=st.integers(0, 1000), cars=st.integers(1, 5),
           suppliers=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_dealer_stores_run_as_with_is_instance(self, web, seed, cars, suppliers):
        store = odmg_store(car_object_store(cars=cars, suppliers=suppliers,
                                            seed=seed))
        same_as_is_instance(web, store)
        same_as_is_instance(web, store, runtime_typing=True)

    @given(seed=st.integers(0, 1000), count=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_brochure_stores_run_as_with_is_instance(self, web, seed, count):
        same_as_is_instance(web, odmg_store(brochure_objects(count, seed)))

    @pytest.mark.parametrize("depth", [1, 3])
    def test_nested_collections(self, web, depth):
        same_as_is_instance(web, odmg_store(deep_object_store(depth)))

    def test_no_ptype_check_runs(self, web):
        store = odmg_store(car_object_store(cars=4, suppliers=3))
        tagged = web.run(store).metrics
        untagged = web.run(store.copy()).metrics
        assert tagged.value(RUN, pattern="Ptype") == 0
        assert untagged.value(DISCHARGED, pattern="Ptype") == 0
        ptype_checks = untagged.value(RUN, pattern="Ptype")
        assert ptype_checks > 0
        assert tagged.value(DISCHARGED, pattern="Ptype") == ptype_checks
        # Web2's Patomic checks tell atoms from the rest: they stay.
        assert tagged.value(RUN, pattern="Patomic") == \
            untagged.value(RUN, pattern="Patomic") > 0

    def test_a_tag_is_trusted(self, web):
        """The tag is a promise of the wrapper that built the store: a
        forged one skips the checks it implies. Here Web1 lets an
        ill-typed value through, and no rule can render it."""
        bad = tree("class", tree("car", tree("parts", tree("foo", atom(1)))))
        honest = DataStore({"o1": bad})
        forged = DataStore({"o1": bad})
        forged.model = odmg_model()
        assert web.run(honest).ids_of("HtmlPage") == []
        with pytest.raises(DanglingReferenceError, match="HtmlElement"):
            web.run(forged)


class TestProof:
    def test_o2web_over_odmg(self, web):
        proof = discharged_checks(web.rules, web._context_model(), odmg_model())
        # P2:Ptype under Web1's and Web6's Pclass, and under the
        # HtmlElement subjects of Web3-5; Web2's Patomic stays.
        assert proof == {
            "Web1": frozenset({(0, (0, 0, 0))}),
            "Web3": frozenset({(0, (0, 0))}),
            "Web4": frozenset({(0, (0,))}),
            "Web5": frozenset({(0, (0,))}),
            "Web6": frozenset({(1, (0, 0, 0))}),
        }

    def test_proved_once_per_program(self, web):
        proofs = {}
        first = discharged_checks(web.rules, web._context_model(),
                                  odmg_model(), proofs)
        assert discharged_checks(web.rules, web._context_model(),
                                 odmg_model(), proofs) is first
        program = o2web_program()
        program.run(odmg_store(car_object_store(cars=1, suppliers=1)))
        assert len(program._typing_proofs) == 1
        program.remove_rule("Web6")
        assert not program._typing_proofs

    def test_unrelated_tag_discharges_nothing(self, web):
        assert discharged_checks(web.rules, web._context_model(),
                                 sgml_model()) == {}

    @pytest.mark.parametrize("argument,discharged", [
        ("^P", False), ("P:Ptype", True),
    ])
    def test_call_sites_type_the_subjects(self, web, argument, discharged):
        """B's subject is the argument of E: an untyped pattern variable
        leaves it untyped, and B keeps its check."""
        from repro.yatl.parser import parse_program

        program = parse_program(
            "program P\n"
            f"rule A: Out(X) : o -> E(P) <= X : class -> C < *-> L -> {argument} >\n"
            "rule B: E(P) : e <= P : tuple < *-> F:symbol -> Q:Ptype >\n"
            "end\n"
        )
        program.input_model = web.input_model
        proof = discharged_checks(
            program.rules, program._context_model(), odmg_model()
        )
        assert ("B" in proof) is discharged
