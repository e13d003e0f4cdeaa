"""Tracing a run: per-rule phase statistics on ConversionResult.metrics."""

from tests.conftest import make_brochure


def _outputs(program, result, rule_name):
    """The identifiers built by the rule that owns its head functor."""
    (rule,) = [r for r in program.rules if r.name == rule_name]
    return result.ids_of(rule.head_functor)


class TestExplain:
    def test_phase_statistics(self, brochures_program, brochure_b1, brochure_b2):
        result = brochures_program.run([brochure_b1, brochure_b2])
        metrics = result.metrics
        # Figure 3: three bindings matched (1 from b1, 2 from b2)
        assert metrics.value("yatl.rule.bindings_matched", rule="Rule1") == 3
        # nothing filtered (years > 1975)
        assert metrics.value(
            "yatl.rule.bindings_after_predicates", rule="Rule1"
        ) == 3
        assert _outputs(brochures_program, result, "Rule1") == ["s1", "s2"]
        assert _outputs(brochures_program, result, "Rule2") == ["c1", "c2"]

    def test_predicate_filtering_visible(self, brochures_program):
        old = make_brochure(9, "Beetle", 1960, "old",
                            [("V", "x, Paris 75001")])
        metrics = brochures_program.run([old]).metrics
        matched = metrics.value("yatl.rule.bindings_matched", rule="Rule1")
        kept = metrics.value("yatl.rule.bindings_after_predicates", rule="Rule1")
        assert matched == 1
        assert kept == 0
        assert matched - kept == 1  # filtered by Year > 1975
