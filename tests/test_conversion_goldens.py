"""Equivalence goldens for the cold-request path: parse, import, match.

The SGML parser, the SGML import wrapper, the drift fingerprint and the
body matcher sit on every cold ``repro serve`` request and every Fig. 1
conversion. Their outputs were recorded once into
``tests/goldens/conversion_goldens.json``; any rewrite of those layers
must reproduce them exactly — element trees, error messages down to
the reported line number, fingerprint JSON, and matcher bindings.

Regenerate (only when a change of behaviour is intended) with::

    PYTHONPATH=src python tests/test_conversion_goldens.py --record
"""

import hashlib
import json
import os
import sys

import pytest

from repro.core import parse_pattern_tree
from repro.core.trees import Ref, atom, tree
from repro.errors import WrapperError
from repro.obs import fingerprint_store
from repro.sgml.parser import parse_sgml, parse_sgml_many
from repro.yatl.bindings import Binding
from repro.yatl.matching import MatchContext, match_child

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
}


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
        "fingerprints": fig1_fingerprints(),
        "matches": {name: match_case(*case)
                    for name, case in MATCH_CASES.items()},
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


@pytest.fixture(scope="module")
def fingerprints():
    return fig1_fingerprints()


@pytest.mark.parametrize("source", ["sgml", "odmg", "html"])
def test_fig1_fingerprints(golden, fingerprints, source):
    assert fingerprints[source] == golden["fingerprints"][source]


@pytest.mark.parametrize("name", sorted(MATCH_CASES))
def test_matcher_bindings(golden, name):
    assert match_case(*MATCH_CASES[name]) == golden["matches"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_conversion_goldens.py --record")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
