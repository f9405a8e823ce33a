import sys

import pytest

import ospd.character
import ospd.cli
import ospd.crystal
import ospd.lemmas
import ospd.osptab
from bench import tracing
from bench.tracing import Tracer, self_times


def test_self_time_nested_spans():
    # root [0, 10] > child [2, 6] > grandchild [3, 4]
    own = self_times([0.0, 2.0, 3.0], [10.0, 6.0, 4.0], [-1, 0, 1])
    assert own == pytest.approx([6.0, 3.0, 1.0])


def test_self_time_sibling_spans():
    # root [0, 10] with children [1, 3] and [5, 8]
    own = self_times([0.0, 1.0, 5.0], [10.0, 3.0, 8.0], [-1, 0, 0])
    assert own == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_child_fills_parent():
    # root [0, 10] > middle [2, 7] filled by its only child [2, 7]
    own = self_times([0.0, 2.0, 2.0], [10.0, 7.0, 7.0], [-1, 0, 1])
    assert own == pytest.approx([5.0, 0.0, 5.0])


def test_self_time_overlapping_children_count_once():
    own = self_times([0.0, 1.0, 2.0], [10.0, 4.0, 6.0], [-1, 0, 0])
    assert own[0] == pytest.approx(5.0)


def test_every_binding_is_wrapped_and_restored():
    originals = {(m, f): getattr(sys.modules[m], f)
                 for _, m, f in tracing.FUNCTIONS}
    with Tracer() as tracer:
        assert tracer.unwrapped_references() == []
        # the defining module and the modules that imported the name by
        # ``from ... import`` all see the wrapper
        wrapped = ospd.osptab.is_admissible
        assert wrapped is not originals["ospd.osptab", "is_admissible"]
        assert ospd.lemmas.is_admissible is wrapped
        assert ospd.is_admissible is wrapped
        assert ospd.character.enumerate_tableaux is ospd.osptab.enumerate_tableaux
        assert ospd.crystal.enumerate_tableaux is ospd.osptab.enumerate_tableaux
    assert tracer.not_restored() == []
    for (m, f), fn in originals.items():
        assert getattr(sys.modules[m], f) is fn
    assert ospd.lemmas.is_admissible is originals["ospd.osptab", "is_admissible"]


def test_coverage_check_reports_a_stray_reference():
    original = ospd.osptab.lr_split
    with Tracer() as tracer:
        ospd.crystal._stray = original
        try:
            assert tracer.unwrapped_references() == ["ospd.crystal._stray"]
        finally:
            del ospd.crystal._stray


def test_spans_nest_through_imported_names():
    alphabet = ospd.make_alphabet("classical", 3, 0)
    plan = ospd.osptab.shape_plan((1,), 1, alphabet)
    with Tracer() as tracer:
        poly = ospd.character.s_character(plan, alphabet)
    calls = tracer.function_calls()
    assert calls["s_character"] == 1 and calls["enumerate_tableaux"] == 1
    fids = list(tracer.fids)
    names = [tracing.FUNCTIONS[f][2] for f in fids]
    enum = names.index("enumerate_tableaux")
    assert names[tracer.parents[enum]] == "s_character"
    metrics = tracer.metrics()
    assert metrics["character.char.calls"] == 1
    assert metrics["character.char.terms"] == len(poly.terms)
    assert metrics["osptab.enumerate.tableaux"] == sum(poly.terms.values())
    assert all(metrics[layer + ".self_s"] >= 0 for layer, _, _ in tracing.LAYERS)


def test_counted_takes_lists_and_iterators():
    counts = {"n": 0}
    assert tracing.counted([1, 2, 3], counts, "n") == [1, 2, 3]
    assert counts["n"] == 3
    stream = tracing.counted(iter("ab"), counts, "n")
    assert counts["n"] == 3     # nothing is counted before it is consumed
    assert list(stream) == ["a", "b"]
    assert counts["n"] == 5
