"""Tests for the abstract predicate-set domain."""

from hypothesis import given, settings, strategies as st

from repro.core.predicates import (
    EqualityPredicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
    Trilean,
    point_satisfies,
)
from repro.domains.predicate_set import AbstractPredicateSet

GRID = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def predicates(draw):
    feature = draw(st.integers(min_value=0, max_value=1))
    kind = draw(st.sampled_from(["threshold", "symbolic", "equality"]))
    if kind == "threshold":
        return ThresholdPredicate(feature, draw(GRID))
    if kind == "equality":
        return EqualityPredicate(feature, draw(GRID))
    low = draw(GRID)
    return SymbolicThresholdPredicate(feature, low, low + draw(st.sampled_from([0.5, 1.5])))


class TestConstruction:
    def test_initial_state_is_null_only(self):
        initial = AbstractPredicateSet.initial()
        assert initial.includes_null
        assert not initial.has_concrete_choices
        assert len(initial) == 1

    def test_of(self):
        predicates = AbstractPredicateSet.of([ThresholdPredicate(0, 1.0)])
        assert len(predicates) == 1
        assert ThresholdPredicate(0, 1.0) in predicates

    def test_is_empty(self):
        assert AbstractPredicateSet.of(()).is_empty
        assert not AbstractPredicateSet.initial().is_empty


class TestLattice:
    def test_join_unions_and_deduplicates(self):
        a = AbstractPredicateSet.of([ThresholdPredicate(0, 1.0)])
        b = AbstractPredicateSet.of(
            [ThresholdPredicate(0, 1.0), ThresholdPredicate(1, 2.0)], includes_null=True
        )
        joined = a.join(b)
        assert len(joined.predicates) == 2
        assert joined.includes_null

    def test_without_and_with_null(self):
        predicates = AbstractPredicateSet.of([ThresholdPredicate(0, 1.0)], includes_null=True)
        assert not predicates.without_null().includes_null
        assert predicates.without_null().with_null().includes_null


class TestPointPartition:
    def test_concrete_predicates_split_cleanly(self):
        predicates = AbstractPredicateSet.of(
            [ThresholdPredicate(0, 1.0), ThresholdPredicate(0, 5.0)]
        )
        satisfied, falsified = predicates.partition_for_point([3.0])
        assert satisfied == (ThresholdPredicate(0, 5.0),)
        assert falsified == (ThresholdPredicate(0, 1.0),)

    def test_symbolic_maybe_lands_in_both(self):
        symbolic = SymbolicThresholdPredicate(0, 1.0, 5.0)
        predicates = AbstractPredicateSet.of([symbolic])
        satisfied, falsified = predicates.partition_for_point([3.0])
        assert symbolic in satisfied and symbolic in falsified
        assert predicates.maybe_predicates([3.0]) == (symbolic,)

    def test_symbolic_definite_cases(self):
        symbolic = SymbolicThresholdPredicate(0, 1.0, 5.0)
        predicates = AbstractPredicateSet.of([symbolic])
        satisfied, falsified = predicates.partition_for_point([0.0])
        assert satisfied and not falsified
        satisfied, falsified = predicates.partition_for_point([9.0])
        assert falsified and not satisfied


    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(predicates(), max_size=6),
        st.lists(GRID | st.sampled_from([0.25, 1.75, float("nan")]), min_size=2, max_size=2),
    )
    def test_array_partition_matches_scalar_trilean(self, members, x):
        predicate_set = AbstractPredicateSet.of(members)
        verdicts = [point_satisfies(predicate, x) for predicate in members]
        satisfied, falsified = predicate_set.partition_for_point(x)
        assert satisfied == tuple(
            p for p, verdict in zip(members, verdicts) if verdict.possibly_true
        )
        assert falsified == tuple(
            p for p, verdict in zip(members, verdicts) if verdict.possibly_false
        )
        assert predicate_set.maybe_predicates(x) == tuple(
            p for p, verdict in zip(members, verdicts) if verdict is Trilean.MAYBE
        )


class TestDescribe:
    def test_describe_includes_null_marker(self):
        predicates = AbstractPredicateSet.of([ThresholdPredicate(0, 1.0)], includes_null=True)
        text = predicates.describe()
        assert "x0 <= 1" in text and "<>" in text
