"""SGML substrate: DTD parsing, document parsing, validation, writing."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError, WrapperError
from repro.sgml.dtd import ContentAutomaton, Empty
from repro.sgml import (
    Choice,
    DTD,
    Element,
    ElementDecl,
    NameRef,
    PCData,
    Repeat,
    Seq,
    ValidationError,
    brochure_dtd,
    element,
    is_valid,
    parse_dtd,
    parse_sgml,
    parse_sgml_many,
    validate,
    write_sgml,
)


class TestDtdParsing:
    def test_brochure_dtd(self):
        dtd = brochure_dtd()
        assert dtd.root == "brochure"
        content = dtd.element("brochure").content
        assert isinstance(content, Seq) and len(content.items) == 5

    def test_repetitions(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a*, b+, c?)> <!ELEMENT a (#PCDATA)>"
            " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>"
        )
        items = dtd.element("r").content.items
        assert [i.mode for i in items] == ["*", "+", "?"]

    def test_choice(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a | b)> <!ELEMENT a (#PCDATA)>"
            " <!ELEMENT b (#PCDATA)> ]>"
        )
        assert isinstance(dtd.element("r").content, Choice)

    def test_mixed_separators_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd("<!DOCTYPE r [ <!ELEMENT r (a, b | c)> ]>")

    def test_undeclared_reference_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd("<!DOCTYPE r [ <!ELEMENT r (missing)> ]>")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd(
                "<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> <!ELEMENT r (#PCDATA)> ]>"
            )

    def test_paper_typo_accepted(self):
        # the paper's listing spells it #PCADATA
        dtd = parse_dtd("<!DOCTYPE r [ <!ELEMENT r (#PCADATA)> ]>")
        assert isinstance(dtd.element("r").content, PCData)

    def test_empty_and_any(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a, b)> <!ELEMENT a EMPTY>"
            " <!ELEMENT b ANY> ]>"
        )
        assert dtd.element("a").content.render() == "EMPTY"
        assert dtd.element("b").content.render() == "ANY"


class TestSgmlParsing:
    def test_simple_document(self):
        doc = parse_sgml("<a><b>text</b><c>more</c></a>")
        assert doc.tag == "a"
        assert doc.find("b").text == "text"

    def test_whitespace_between_elements_ignored(self):
        doc = parse_sgml("<a>\n  <b>x</b>\n</a>")
        assert len(doc.elements()) == 1

    def test_entities_decoded(self):
        doc = parse_sgml("<a>x &amp; y &lt;z&gt; &#65;</a>")
        assert doc.text == "x & y <z> A"

    def test_unknown_entity_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml("<a>&nope;</a>")

    def test_comments_skipped(self):
        doc = parse_sgml("<a><!-- note --><b>x</b></a>")
        assert len(doc.elements()) == 1

    def test_doctype_skipped(self):
        doc = parse_sgml("<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>x</a>")
        assert doc.tag == "a"

    def test_mismatched_tags_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml("<a><b>x</a></b>")

    def test_unclosed_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml("<a><b>x</b>")

    def test_content_after_root_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml("<a>x</a><b>y</b>")

    def test_parse_many(self):
        docs = parse_sgml_many("<a>1</a> <a>2</a>")
        assert [d.text for d in docs] == ["1", "2"]

    def test_parse_many_empty_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml_many("   ")


class TestValidation:
    def test_valid_brochure(self):
        doc = element(
            "brochure",
            element("number", 1),
            element("title", "Golf"),
            element("model", 1995),
            element("desc", "d"),
            element(
                "spplrs",
                element("supplier", element("name", "VW"),
                        element("address", "x")),
            ),
        )
        validate(doc, brochure_dtd())

    def test_zero_suppliers_valid(self):
        doc = element(
            "brochure",
            element("number", 1),
            element("title", "Golf"),
            element("model", 1995),
            element("desc", "d"),
            element("spplrs"),
        )
        assert is_valid(doc, brochure_dtd())

    def test_missing_field_invalid(self):
        doc = element("brochure", element("title", "Golf"))
        with pytest.raises(ValidationError):
            validate(doc, brochure_dtd())

    def test_wrong_order_invalid(self):
        doc = element(
            "brochure",
            element("title", "Golf"),
            element("number", 1),
            element("model", 1995),
            element("desc", "d"),
            element("spplrs"),
        )
        assert not is_valid(doc, brochure_dtd())

    def test_wrong_root(self):
        assert not is_valid(element("other"), brochure_dtd())

    def test_undeclared_element(self):
        doc = element(
            "brochure",
            element("number", 1),
            element("title", "Golf"),
            element("model", 1995),
            element("desc", "d"),
            element("spplrs", element("intruder")),
        )
        assert not is_valid(doc, brochure_dtd())

    def test_plus_requires_one(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a)+> <!ELEMENT a (#PCDATA)> ]>"
        )
        assert not is_valid(element("r"), dtd)
        assert is_valid(element("r", element("a", "x")), dtd)
        assert is_valid(element("r", element("a", "x"), element("a", "y")), dtd)

    def test_optional(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a?)> <!ELEMENT a (#PCDATA)> ]>"
        )
        assert is_valid(element("r"), dtd)
        assert is_valid(element("r", element("a", "x")), dtd)
        assert not is_valid(element("r", element("a", "x"), element("a", "y")), dtd)

    def test_validation_error_carries_path(self):
        doc = element(
            "brochure",
            element("number", 1),
            element("title", "Golf"),
            element("model", 1995),
            element("desc", "d"),
            element("spplrs", element("supplier", element("name", "x"))),
        )
        with pytest.raises(ValidationError) as exc:
            validate(doc, brochure_dtd())
        assert "supplier" in str(exc.value)


def _regex(model):
    """A content model as a regular expression over one character per
    child: the element's tag, or T for a text child."""
    if isinstance(model, NameRef):
        return model.name
    if isinstance(model, PCData):
        return "T*"
    if isinstance(model, Seq):
        return "".join(_regex(item) for item in model.items)
    if isinstance(model, Choice):
        return "(?:" + "|".join(_regex(o) for o in model.options) + ")"
    return "(?:" + _regex(model.item) + ")" + model.mode


_MODELS = st.recursive(
    st.sampled_from([NameRef("a"), NameRef("b"), NameRef("c"), PCData()]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(Seq),
        st.lists(inner, min_size=2, max_size=3).map(Choice),
        st.tuples(inner, st.sampled_from("*+?")).map(lambda p: Repeat(*p)),
    ),
    max_leaves=6,
)


class TestContentAutomata:
    """Content models compile to automata cached on the DTD; acceptance
    is checked against Python's regular expressions."""

    @given(model=_MODELS, children=st.lists(st.sampled_from("abcT "), max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_model_language(self, model, children):
        dtd = DTD("r", [ElementDecl("r", model)] + [
            ElementDecl(name, Empty()) for name in "abc"
        ])
        doc = Element("r", [
            "text" if c == "T" else " \n" if c == " " else Element(c)
            for c in children
        ])
        symbols = "".join(c for c in children if c != " ")
        expected = re.fullmatch(_regex(model), symbols) is not None
        assert is_valid(doc, dtd) == expected

    def test_compiled_once_per_dtd(self):
        dtd = brochure_dtd()
        automata = dtd.automata()
        assert dtd.automata() is automata
        assert set(automata) == set(dtd.element_names())
        dtd.add(ElementDecl("extra", Empty()))
        assert "extra" in dtd.automata()

    def test_ambiguous_model(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r ((a, b) | (a, c))> <!ELEMENT a EMPTY>"
            " <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> ]>"
        )
        assert is_valid(element("r", element("a"), element("b")), dtd)
        assert is_valid(element("r", element("a"), element("c")), dtd)
        assert not is_valid(element("r", element("a")), dtd)

    def test_threads_sharing_a_dtd(self):
        """States are created lazily; threads stepping one automaton
        for the first time, each through different documents, must
        agree on their numbers."""
        import sys
        import threading

        names = "abcdefgh"
        model = "((" + " | ".join(names) + ")*, (" + ", ".join(names) + "))"
        decls = "".join(f"<!ELEMENT {n} EMPTY>" for n in names)
        text = f"<!DOCTYPE r [ <!ELEMENT r {model}> {decls} ]>"
        docs = []
        for shift in range(16):
            prefix = [names[(shift * 3 + i) % 8] for i in range(shift % 6)]
            docs.append((element("r", *[element(n) for n in prefix + list(names)]),
                         True))
            docs.append((element("r", *[element(n) for n in prefix + list(names[::-1])]),
                         False))
        workers = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                dtd = parse_dtd(text)  # fresh automata: every state is new
                verdicts = {}

                def check(worker):
                    for k in range(len(docs)):  # a different order each
                        index = (5 * k + 7 * worker) % len(docs)
                        verdicts[worker, index] = is_valid(docs[index][0], dtd)

                threads = [threading.Thread(target=check, args=(w,))
                           for w in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert verdicts == {(w, i): docs[i][1] for w in range(workers)
                                    for i in range(len(docs))}
        finally:
            sys.setswitchinterval(interval)

    def test_transitions_and_dead_state(self):
        automaton = ContentAutomaton(parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a, (b | c)*, a?)> <!ELEMENT a EMPTY>"
            " <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> ]>"
        ).element("r").content)
        state = 0
        for symbol in ["a", "b", "c", "b", "a"]:
            state = automaton.step(state, symbol)
            assert state >= 0
        assert automaton.accepting[state]
        assert automaton.step(state, "a") == ContentAutomaton.DEAD


class TestWriting:
    def test_round_trip(self):
        doc = element(
            "a", element("b", "text & more"), element("c", element("d", "x"))
        )
        assert parse_sgml(write_sgml(doc)) == doc

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs")),
                   min_size=1).map(str.strip).filter(lambda s: s and "&" not in s))
    def test_text_round_trips(self, text):
        doc = element("a", text)
        assert parse_sgml(write_sgml(doc)).text == text
