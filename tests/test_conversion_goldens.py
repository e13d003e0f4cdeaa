"""Equivalence goldens for the conversion path: parse, import, match, build.

The SGML parser, the SGML import wrapper, the DTD validator, the drift
fingerprint, the body matcher and the head builder sit on every cold
``repro serve`` request and every Fig. 1 conversion. Their outputs were
recorded once into ``tests/goldens/conversion_goldens.json``; any
rewrite of those layers must reproduce them exactly — element trees,
error messages down to the reported line number, validation errors down
to the element path, fingerprint JSON, matcher bindings (in order),
constructed heads with their Skolem allocation logs, and the O2Web
pages of whole Fig. 1 conversions.

Regenerate (only when a change of behaviour is intended) with::

    PYTHONPATH=src python tests/test_conversion_goldens.py --record
"""

import hashlib
import json
import os
import sys

import pytest

from repro.core import parse_pattern_tree
from repro.core.labels import Symbol
from repro.core.trees import DataStore, Ref, Tree, atom, tree
from repro.errors import WrapperError, YatError
from repro.obs import fingerprint_store
from repro.sgml.dtd import parse_dtd
from repro.sgml.parser import parse_sgml, parse_sgml_many
from repro.sgml.validator import ValidationError, validate
from repro.yatl.bindings import Binding
from repro.yatl.construction import Constructor, Unbound
from repro.yatl.matching import MatchContext, match_body, match_child
from repro.yatl.parser import parse_rule
from repro.yatl.skolem import SkolemTable

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens",
    "conversion_goldens.json",
)

#: (seed, brochures, distinct suppliers) of the generated corpora.
CORPORA = [(1, 1, None), (7, 5, 2), (13, 40, 8), (29, 120, 30)]

DOCTYPE = (
    "<!DOCTYPE brochures [\n"
    "  <!ELEMENT brochure - - (number, title, model, desc, spplrs)>\n"
    "]>\n"
)

HANDWRITTEN = (
    DOCTYPE
    + "<!-- a collection -->\n"
    "<brochure>\n"
    "  <number>1</number>\n"
    "  <title>Golf &amp; Polo &#65;&lt;1&gt; &quot;GTI&quot; &apos;s</title>\n"
    "  <!-- inner comment -->\n"
    "  <model> 1995 </model>\n"
    "  <desc>one<!-- split -->two</desc>\n"
    "  <spplrs><supplier><name>VW</name></supplier></spplrs>\n"
    "</brochure>\n"
    "<!-- between -->\n\n"
    "<brochure><title>&#66;&#67;</title><empty></empty></brochure>\n"
)

#: name -> (entry point, text). Each must raise a WrapperError.
ERROR_CASES = {
    "unclosed_element": ("many", "<a>\n<b>x</b>\n"),
    "unclosed_element_text_to_eof": ("many", "<a>\n  text\nmore"),
    "unclosed_nested": ("one", "<a><b>\n\n"),
    "mismatched_end_tag": ("many", "<a>\n<b>x</c>\n</a>"),
    "mismatched_root_end_tag": ("one", "<a>\n<b>x</b>\n</z>\n"),
    "unterminated_comment_in_element": ("many", "<a>\n<!-- oops\n</a>"),
    "unterminated_comment_between": ("many", "<a></a>\n<!-- x\n"),
    "unterminated_start_tag": ("many", "<a>\n\n<b"),
    "unterminated_end_tag": ("one", "<a>\nx\n</a"),
    "unterminated_declaration": ("one", "<!DOCTYPE a [\n<!ELEMENT a>\n"),
    "unterminated_entity": ("many", "<a>\nfoo &amp bar\n</a>"),
    "bad_character_reference": ("one", "<a>\n\n&#xZZ;</a>"),
    "unknown_entity": ("many", "<a>\n<b>\n&nbsp;\n</b></a>"),
    "invalid_tag_name": ("many", "<a>\n<b c>x</b>\n</a>"),
    "empty_start_tag": ("one", "<>x</>"),
    "content_after_root": ("one", "<a></a>\n\ntrailing"),
    "second_root": ("one", "<a></a>\n<b></b>"),
    "expected_start_tag": ("many", "<a></a>\n text <b></b>"),
    "empty_document": ("one", "  <!-- only a comment -->\n"),
    "no_document": ("many", "\n\n"),
}


def _dtd(root, *declarations):
    """DTD text: ``<!DOCTYPE root [...]>`` over ``name model`` pairs."""
    body = "".join(f"<!ELEMENT {d}>\n" for d in declarations)
    return f"<!DOCTYPE {root} [\n{body}]>"


_AB = ("a EMPTY", "b EMPTY", "c EMPTY", "d EMPTY")
#: The brochures DTD of Section 3.1 (``repro.sgml.brochure_dtd``).
_BROCHURE = _dtd(
    "brochure", "brochure (number, title, model, desc, spplrs)",
    "number (#PCDATA)", "title (#PCDATA)", "model (#PCDATA)",
    "desc (#PCDATA)", "spplrs (supplier)*", "supplier (name, address)",
    "name (#PCDATA)", "address (#PCDATA)",
)

#: name -> (DTD text, document text). Each records "valid" or the exact
#: ValidationError text: the element path and the message.
VALIDATION_CASES = {
    "seq_valid": (_dtd("r", "r (a, b)", *_AB), "<r><a></a> <b></b></r>"),
    "seq_swapped": (_dtd("r", "r (a, b)", *_AB), "<r><b></b><a></a></r>"),
    "seq_short": (_dtd("r", "r (a, b, c)", *_AB), "<r><a></a><b></b></r>"),
    "seq_long": (_dtd("r", "r (a, b)", *_AB), "<r><a></a><b></b><c></c></r>"),
    "choice_valid": (_dtd("r", "r (a | b)", *_AB), "<r><b></b></r>"),
    "choice_both": (_dtd("r", "r (a | b)", *_AB), "<r><a></a><b></b></r>"),
    "choice_none": (_dtd("r", "r (a | b)", *_AB), "<r></r>"),
    "optional_absent": (_dtd("r", "r (a?, b)", *_AB), "<r><b></b></r>"),
    "optional_twice": (_dtd("r", "r (a?, b)", *_AB),
                       "<r><a></a><a></a><b></b></r>"),
    "star_valid": (_dtd("r", "r (a*, b)", *_AB),
                   "<r><a></a><a></a><a></a><b></b></r>"),
    "star_interleaved": (_dtd("r", "r (a*, b)", *_AB),
                         "<r><a></a><b></b><a></a></r>"),
    "plus_valid": (_dtd("r", "r (a+)", *_AB), "<r><a></a><a></a></r>"),
    "plus_empty": (_dtd("r", "r (a+)", *_AB), "<r>  </r>"),
    "group_plus": (_dtd("r", "r (a, b)+", *_AB),
                   "<r><a></a><b></b><a></a></r>"),
    "nested_repeats": (_dtd("r", "r ((a | b)*, c?)+", *_AB),
                       "<r><b></b><c></c><a></a><c></c><c></c></r>"),
    "mixed_valid": (_dtd("r", "r (#PCDATA | a)*", *_AB),
                    "<r>x<a></a>y<a></a></r>"),
    "mixed_foreign_child": (_dtd("r", "r (#PCDATA | a)*", *_AB),
                            "<r>x<a></a><b></b>y</r>"),
    "pcdata_with_element": (_dtd("r", "r (#PCDATA)", *_AB),
                            "<r>text<a></a></r>"),
    "text_in_element_content": (_dtd("r", "r (a)", *_AB),
                                "<r><a></a>stray</r>"),
    "empty_with_content": (_dtd("r", "r (a)", *_AB), "<r><a>x</a></r>"),
    "empty_with_element": (_dtd("r", "r (a)", *_AB), "<r><a><b></b></a></r>"),
    "any_content": (_dtd("r", "r ANY", *_AB), "<r>t<b></b><a></a></r>"),
    "undeclared_element": (_dtd("r", "r ANY", *_AB), "<r><a></a><z></z></r>"),
    "undeclared_in_model": (_dtd("r", "r (a*)", *_AB), "<r><a></a><z></z></r>"),
    "wrong_root": (_dtd("r", "r (a)", *_AB), "<a></a>"),
    "nested_indexed_path": (
        _dtd("brochure", "brochure (spplrs, number)", "number (#PCDATA)",
             "spplrs (supplier)*", "supplier (name, address)",
             "name (#PCDATA)", "address (#PCDATA)"),
        "<brochure><spplrs>"
        "<supplier><name>A</name><address>x</address></supplier>"
        "<supplier><address>y</address><name>B</name></supplier>"
        "</spplrs><number>1</number></brochure>",
    ),
    "deep_error_after_valid_siblings": (
        _dtd("r", "r (s, s, s)", "s (a | (b, c))", *_AB),
        "<r><s><a></a></s><s><b></b><c></c></s><s><b></b></s></r>",
    ),
    "ambiguous_first_branch": (_dtd("r", "r ((a, b) | (a, c))", *_AB),
                               "<r><a></a><b></b></r>"),
    "ambiguous_second_branch": (_dtd("r", "r ((a, b) | (a, c))", *_AB),
                                "<r><a></a><c></c></r>"),
    "ambiguous_rejects": (_dtd("r", "r ((a, b) | (a, c))", *_AB),
                          "<r><a></a><d></d></r>"),
    "ambiguous_star": (_dtd("r", "r ((a, b)*, a?)", *_AB),
                       "<r><a></a><b></b><a></a></r>"),
    "brochure_valid": (
        _BROCHURE,
        "<brochure><number>1</number><title>t</title><model>1990</model>"
        "<desc>d</desc><spplrs></spplrs></brochure>",
    ),
    "brochure_missing_desc": (
        _BROCHURE,
        "<brochure><number>1</number><title>t</title><model>1990</model>"
        "<spplrs></spplrs></brochure>",
    ),
}

#: name -> (pattern text, data node builder).
MATCH_CASES = {
    "var_label_leaf_binds": ("a -> X", lambda: tree("a", atom("v"))),
    "var_label_leaf_on_leaf": ("X", lambda: tree("a")),
    "var_label_leaf_on_inner": ("X", lambda: tree("a", tree("b"))),
    "typed_var_leaf": ("model -> Y:int", lambda: tree("model", atom(1995))),
    "typed_var_leaf_rejects": ("model -> Y:int", lambda: tree("model", atom("x"))),
    "const_leaf_on_inner": ("a -> b", lambda: tree("a", tree("b", tree("c")))),
    "const_leaf_on_leaf": ("a -> b", lambda: tree("a", tree("b"))),
    "const_root_leaf_on_inner": ("b", lambda: tree("b", tree("c"))),
    "const_leaf_on_ref": ("a -> b", lambda: tree("a", Ref("b"))),
    "var_leaf_on_ref": ("a -> X", lambda: tree("a", Ref("r1"))),
    "ref_leaf_on_leaf": ("a -> &P", lambda: tree("a", atom("r1"))),
    "star_leaves_dedup": (
        "a *-> X", lambda: tree("a", atom(1), atom(1), atom(2)),
    ),
    "star_shared_var": (
        "pair < -> a *-> X, -> b -> X >",
        lambda: tree("pair", tree("a", atom(1), atom(2), atom(1)),
                     tree("b", atom(1))),
    ),
    # A star edge followed by plain edges: the run length is fixed.
    "star_then_plain": (
        "r < *-> a -> X, -> b -> Y, -> c -> Z >",
        lambda: tree("r", tree("a", atom(1)), tree("a", atom(2)),
                     tree("b", atom(3)), tree("c", atom(4))),
    ),
    "star_then_plain_vars": (
        "r < *-> X, -> Y >", lambda: tree("r", atom(1), atom(2), atom(3)),
    ),
    "star_then_plain_empty_run": (
        "r < *-> a -> X, -> b -> Y >", lambda: tree("r", tree("b", atom(3))),
    ),
    "star_then_plain_too_short": (
        "r < *-> X, -> Y, -> Z >", lambda: tree("r", atom(1)),
    ),
    "star_then_plain_mismatch": (
        "r < *-> a -> X, -> b -> Y >",
        lambda: tree("r", tree("a", atom(1)), tree("c", atom(2)),
                     tree("b", atom(3))),
    ),
    "star_then_plain_join": (
        "pair < *-> a -> X, -> b -> X >",
        lambda: tree("pair", tree("a", atom(1)), tree("a", atom(2)),
                     tree("a", atom(2)), tree("b", atom(2))),
    ),
    "plain_star_plain": (
        "r < -> h -> H, *-> a -> X, -> t -> T >",
        lambda: tree("r", tree("h", atom(0)), tree("a", atom(1)),
                     tree("a", atom(2)), tree("t", atom(9))),
    ),
    "star_then_star": (
        "r < *-> a -> X, *-> Y >",
        lambda: tree("r", tree("a", atom(1)), tree("a", atom(2)), atom(3)),
    ),
    "star_of_vars_then_star": (
        "r < *-> X, *-> Y >", lambda: tree("r", atom(1), atom(2)),
    ),
    # Index edges; a shared index variable selects the diagonal, and an
    # off-diagonal child is covered by shape without contributing.
    "index_positions": (
        "m (I)-> X", lambda: tree("m", tree("a"), tree("b"), tree("c")),
    ),
    "index_diagonal_conflict": (
        "m (I)-> X (I)-> Y -> V",
        lambda: tree("m", *[
            tree(f"c{c}", *[tree(f"r{r}", atom(10 * r + c))
                            for r in range(1, 4)])
            for c in range(1, 4)
        ]),
    ),
    "index_diagonal_shape_mismatch": (
        "m (I)-> c (I)-> r -> V",
        lambda: tree("m", tree("c", tree("r", atom(11)), tree("r", atom(21))),
                     tree("c", tree("r", atom(12)), tree("x", atom(22)))),
    ),
    "index_then_plain": (
        "m < (I)-> x -> V, -> end >",
        lambda: tree("m", tree("x", atom("a")), tree("x", atom("b")),
                     tree("end")),
    ),
    # Domain-restricted variable labels.
    "domain_var_label": (
        "X:(bag|set) *-> Y", lambda: tree("bag", atom(1), atom(2)),
    ),
    "domain_var_label_rejects": (
        "X:(bag|set) *-> Y", lambda: tree("list", atom(1)),
    ),
    "symbol_var_labels": (
        "class -> C:symbol *-> A:symbol -> V",
        lambda: tree("class", tree("car", tree("name", atom("golf")),
                                   tree("year", atom(1995)))),
    ),
    "symbol_var_label_rejects_atom": (
        "class -> C:symbol *-> A:symbol -> V",
        lambda: tree("class", tree("car", tree("name", atom("golf")),
                                   Tree("year", (atom(1995),)))),
    ),
}


def _objects_store():
    return DataStore({
        "o1": tree("class", tree("car", tree("name", atom("golf")),
                                 tree("maker", Ref("o2")))),
        "o2": tree("class", tree("supplier", tree("name", atom("VW")))),
        "o3": tree("class", Tree("odd", (tree("name", atom("x")),))),
    })


#: name -> (rule text, input builder); matched by ``match_body`` over
#: the inputs with ``_objects_store()`` resolving references.
RULE_CASES = {
    # A `&Pobj` binding reference: Pobj matches the referenced tree.
    "binding_reference": (
        "rule R: H(Pref) : a -> C <= Pref : &Pobj, "
        "Pobj : class -> C:symbol *-> A:symbol -> V",
        lambda: [Ref("o1"), Ref("o2"), Ref("o3"), Ref("gone"),
                 tree("class", tree("car"))],
    ),
    "reference_input_followed": (
        "rule R: H(P) : a -> C <= P : class -> C:symbol *-> A -> V",
        lambda: [Ref("o2"), Ref("o1"), tree("class", tree("bus",
                 tree("seats", atom(40))))],
    ),
    "join_two_roots": (
        "rule R: H(K) : a -> K <= A : a -> k -> K, B : b *-> k -> K",
        lambda: [tree("a", tree("k", atom(1))), tree("a", tree("k", atom(2))),
                 tree("b", tree("k", atom(2)), tree("k", atom(3))),
                 tree("b", tree("k", atom(1)))],
    ),
}


def _group(*items):
    group = []
    for item in items:
        binding = Binding.EMPTY
        for name, value in item.items():
            binding = binding.bind(name, value)
        group.append(binding)
    return group


#: name -> (head pattern text, Skolem group builder).
CONSTRUCT_CASES = {
    "group_edge": (
        "s {}-> pair < -> a -> A, -> b -> B >",
        lambda: _group({"A": 1, "B": 2}, {"A": 3, "B": 4}, {"A": 1, "B": 2},
                       {"A": 5}),
    ),
    "group_edge_refs": (
        "set {}-> &P(N)",
        lambda: _group({"N": "b"}, {"N": "a"}, {"N": "b"}),
    ),
    "order_edge": (
        "l [K]-> v -> K",
        lambda: _group({"K": 3}, {"K": 1}, {"K": 3}, {"K": 2}, {"J": 0}),
    ),
    "order_edge_two_criteria": (
        "l [K, J]-> v < -> k -> K, -> j -> J, *-> x -> X >",
        lambda: _group({"K": 2, "J": 1, "X": 1}, {"K": 1, "J": 2, "X": 2},
                       {"K": 2, "J": 1, "X": 3}, {"K": 1, "J": 1}),
    ),
    "order_edge_refs": (
        "list [N]-> &P(N)",
        lambda: _group({"N": "b"}, {"N": "a"}, {"N": "c"}),
    ),
    "index_edge": (
        "ol (I)-> li -> X",
        lambda: _group({"I": 2, "X": "b"}, {"I": 1, "X": "a"},
                       {"I": 2, "X": "b"}, {"X": "z"}),
    ),
    "star_edge_projection": (
        "s < -> n -> N, *-> x -> X >",
        lambda: _group({"N": 1, "X": 1, "J": 1}, {"N": 1, "X": 1, "J": 2},
                       {"N": 1, "X": 2}, {"N": 1}),
    ),
    "star_edge_deref": (
        "ul *-> li < -> L, -> E(P) >",
        lambda: _group({"L": "a", "P": tree("p", atom(1))},
                       {"L": "b", "P": tree("p", atom(2))},
                       {"L": "a", "P": tree("p", atom(1))}),
    ),
    "ref_and_deref": (
        "p < -> a -> Q(X), -> b -> &R(X, 7) >",
        lambda: _group({"X": 1}, {"X": 1, "Y": 2}),
    ),
    "var_label": (
        "L < -> x -> X, -> W >",
        lambda: _group({"L": Symbol("row"), "X": 1, "W": "w"}),
    ),
    "var_label_tree_leaf": (
        "L < -> x -> X, -> W >",
        lambda: _group({"L": Symbol("row"), "X": 1, "W": tree("w", atom(2))}),
    ),
    "pattern_var_leaves": (
        "p < -> ^T, *-> q -> ^T >",
        lambda: _group({"T": tree("t", atom(1))}, {"T": tree("t", atom(1))}),
    ),
    "var_label_tree_rejected": (
        "L -> x", lambda: _group({"L": tree("w")}),
    ),
    "plain_disagreement": (
        "p -> x -> X", lambda: _group({"X": 1}, {"X": 2}),
    ),
    "skolem_disagreement": (
        "p -> &Q(X)", lambda: _group({"X": 1}, {"X": 2}),
    ),
    "plain_unbound": (
        "p -> x -> X", lambda: _group({"Y": 1}),
    ),
    "root_reference": (
        "&Q(X)", lambda: _group({"X": 1}, {"X": 1}),
    ),
}

#: Seeds of the whole-conversion O2Web page digests.
O2WEB_SEEDS = (2, 5, 17)


def canon(element):
    """An element tree as nested JSON lists: ``[tag, [children]]``."""
    return [element.tag, [c if isinstance(c, str) else canon(c)
                          for c in element.children]]


def canon_many(text):
    return [canon(e) for e in parse_sgml_many(text)]


def corpus_text(seed, count, distinct):
    from repro.workloads import brochure_sgml

    text = brochure_sgml(count, distinct_suppliers=distinct, seed=seed)
    # Entities, character references and comments inside the documents.
    text = text.replace("</title>", " &amp; Co &#65;<!-- c --></title>", 3)
    return DOCTYPE + "<!-- generated -->\n" + text + "\n<!-- tail -->\n"


def digest(payload):
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def parse_case(kind, text):
    try:
        (parse_sgml if kind == "one" else parse_sgml_many)(text)
    except WrapperError as exc:
        return str(exc)
    raise AssertionError(f"no WrapperError for {text!r}")


def validation_case(dtd_text, document_text):
    try:
        validate(parse_sgml(document_text), parse_dtd(dtd_text))
    except ValidationError as exc:
        return str(exc)
    return "valid"


def fig1_fingerprints():
    from repro import YatSystem
    from repro.objectdb import car_dealer_schema
    from repro.sgml import brochure_dtd

    system = YatSystem()
    to_odmg = system.import_program("SgmlBrochuresToOdmg")
    o2web = system.import_program("O2Web")
    store = system.import_sgml(
        parse_sgml_many(corpus_text(3, 30, 6)), brochure_dtd()
    )
    objects = system.export_odmg(system.run(to_odmg, store),
                                 car_dealer_schema())
    object_store = system.import_odmg(objects)
    pages = system.run(o2web, object_store)
    page_trees = [(i, pages.store.get(i)) for i in pages.ids_of("HtmlPage")]
    return {
        "sgml": fingerprint_store(store).to_json(),
        "odmg": fingerprint_store(object_store).to_json(),
        "html": fingerprint_store(page_trees).to_json(),
    }


def match_case(pattern_text, build):
    pattern = parse_pattern_tree(pattern_text)
    bindings = match_child(pattern, build(), Binding.EMPTY, MatchContext())
    return [repr(b) for b in bindings]


def rule_case(rule_text, build):
    rule = parse_rule(rule_text)
    ctx = MatchContext(store=_objects_store())
    return [repr(b) for b in match_body(rule, build(), ctx)]


def construct_case(head_text, build):
    skolems = SkolemTable()
    try:
        built = repr(Constructor(skolems).construct(
            parse_pattern_tree(head_text), build()))
    except Unbound as unbound:
        built = f"Unbound: {unbound.name}"
    except YatError as exc:
        built = f"{type(exc).__name__}: {exc}"
    log = [[i, f, repr(a)] for i, f, a in skolems.allocation_log()]
    return {"built": built, "skolems": log}


def o2web_digest(seed):
    """Digests of one whole Fig. 1 conversion (brochures -> objects ->
    pages): each store's bytes and Skolem allocation log."""
    from repro.library import o2web_program, sgml_brochures_to_odmg
    from repro.workloads import brochure_trees

    objects = sgml_brochures_to_odmg().run(
        brochure_trees(40, distinct_suppliers=8, seed=seed))
    pages = o2web_program().run(objects.store)
    out = {}
    for name, result in (("objects", objects), ("pages", pages)):
        out[name] = digest([f"{i}\t{node!r}" for i, node in result.store])
        out[name + "_skolems"] = digest(
            [[i, f, repr(a)] for i, f, a in result.skolems.allocation_log()])
    return out


def record():
    return {
        "handwritten": canon_many(HANDWRITTEN),
        "corpora": {
            f"{seed}/{count}/{distinct}": digest(
                canon_many(corpus_text(seed, count, distinct))
            )
            for seed, count, distinct in CORPORA
        },
        "errors": {name: parse_case(*case)
                   for name, case in ERROR_CASES.items()},
        "validation": {name: validation_case(*case)
                       for name, case in VALIDATION_CASES.items()},
        "fingerprints": fig1_fingerprints(),
        "matches": {name: match_case(*case)
                    for name, case in MATCH_CASES.items()},
        "rules": {name: rule_case(*case)
                  for name, case in RULE_CASES.items()},
        "constructs": {name: construct_case(*case)
                       for name, case in CONSTRUCT_CASES.items()},
        "o2web": {str(seed): o2web_digest(seed) for seed in O2WEB_SEEDS},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_handwritten_trees(golden):
    assert canon_many(HANDWRITTEN) == golden["handwritten"]
    assert canon(parse_sgml(HANDWRITTEN.split("<!-- between -->")[0])) == \
        golden["handwritten"][0]


@pytest.mark.parametrize("seed,count,distinct", CORPORA)
def test_corpus_trees(golden, seed, count, distinct):
    trees = canon_many(corpus_text(seed, count, distinct))
    assert len(trees) == count
    assert digest(trees) == golden["corpora"][f"{seed}/{count}/{distinct}"]


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_messages(golden, name):
    assert parse_case(*ERROR_CASES[name]) == golden["errors"][name]


@pytest.mark.parametrize("name", sorted(VALIDATION_CASES))
def test_validation_errors(golden, name):
    assert validation_case(*VALIDATION_CASES[name]) == \
        golden["validation"][name]


@pytest.fixture(scope="module")
def fingerprints():
    return fig1_fingerprints()


@pytest.mark.parametrize("source", ["sgml", "odmg", "html"])
def test_fig1_fingerprints(golden, fingerprints, source):
    assert fingerprints[source] == golden["fingerprints"][source]


@pytest.mark.parametrize("name", sorted(MATCH_CASES))
def test_matcher_bindings(golden, name):
    assert match_case(*MATCH_CASES[name]) == golden["matches"][name]


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_rule_bindings(golden, name):
    assert rule_case(*RULE_CASES[name]) == golden["rules"][name]


@pytest.mark.parametrize("name", sorted(CONSTRUCT_CASES))
def test_head_construction(golden, name):
    assert construct_case(*CONSTRUCT_CASES[name]) == golden["constructs"][name]


@pytest.mark.parametrize("seed", O2WEB_SEEDS)
def test_o2web_pages(golden, seed):
    assert o2web_digest(seed) == golden["o2web"][str(seed)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_conversion_goldens.py --record")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
