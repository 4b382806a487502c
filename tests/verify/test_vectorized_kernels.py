"""Property tests pinning the vectorized kernels to their scalar references.

The batch interval kernels of the cold-path core (`_side_score_bounds` in
:mod:`repro.verify.transformers`, `_flip_split_score_bounds` in
:mod:`repro.poisoning.label_flip`) each retain a candidate-at-a-time mirror
written in plain :class:`~repro.domains.interval.Interval` arithmetic.  These
tests drive both through Hypothesis-generated candidate tables and require
bitwise-tolerant agreement, so any future vectorization change that drifts
from the defined transformer semantics fails here before it can weaken a
soundness bound.

The disjunctive learner's batched last level is held to bit-for-bit
agreement: `leaf_exit_bounds` over `split_statistics` must equal
`leaf_exit_bounds_reference` (one `split_down` + `cprob_intervals` per
child), and the array helpers `dominating_components` / `join_bounds` must
equal `dominating_component` / folded `join_interval_vectors` row by row.

``filter#`` is held to its oracle the same way: the closed-form n-ary join
(`joined_budget`) must equal the left fold of pairwise joins under every
order, and `filter_abstract_closed_form` must equal `filter_abstract` (one
`split_down` per piece, folded) in row set and budgets at *every* budget of
a ladder.  One engine walked across a budget ladder (and rerun at the same
budget) must report verdicts identical to fresh engines.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CertificationEngine
from repro.core import split_plan
from repro.core.dataset import Dataset
from repro.core.predicates import (
    EqualityPredicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.domains.interval import (
    Interval,
    dominating_component,
    dominating_components,
    join_bounds,
    join_interval_vectors,
)
from repro.domains.predicate_set import AbstractPredicateSet
from repro.domains.trainingset import AbstractTrainingSet
from repro.poisoning.label_flip import (
    FlipAbstractTrainingSet,
    _flip_split_score_bounds,
    _flip_split_score_bounds_reference,
)
from repro.poisoning.models import CompositePoisoningModel, RemovalPoisoningModel
from repro.verify.transformers import (
    _side_score_bounds,
    _side_score_bounds_reference,
    _table_positions,
    best_split_abstract,
    filter_abstract,
    filter_abstract_closed_form,
    joined_budget,
    leaf_exit_bounds,
    leaf_exit_bounds_reference,
    split_statistics,
)
from tests.conftest import random_small_dataset, random_test_point

TOL = 1e-9


@st.composite
def candidate_tables(draw, max_candidates: int = 6, max_classes: int = 3):
    """Random per-candidate (sizes, class_counts) arrays with counts ≤ size."""
    n_candidates = draw(st.integers(min_value=1, max_value=max_candidates))
    n_classes = draw(st.integers(min_value=2, max_value=max_classes))
    sizes = []
    counts = []
    for _ in range(n_candidates):
        row = [
            draw(st.integers(min_value=0, max_value=5)) for _ in range(n_classes)
        ]
        counts.append(row)
        sizes.append(sum(row))
    return np.asarray(sizes, dtype=np.int64), np.asarray(counts, dtype=np.int64)


class TestSideScoreBounds:
    """Vectorized removal-side score kernel vs the Interval-arithmetic mirror."""

    @settings(max_examples=120, deadline=None)
    @given(
        candidate_tables(),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["optimal", "box"]),
    )
    def test_matches_reference(self, table, budget, method):
        sizes, counts = table
        lower, upper = _side_score_bounds(sizes, counts, budget, method)
        ref_lower, ref_upper = _side_score_bounds_reference(
            sizes, counts, budget, method
        )
        np.testing.assert_allclose(lower, ref_lower, atol=TOL)
        np.testing.assert_allclose(upper, ref_upper, atol=TOL)

    @settings(max_examples=60, deadline=None)
    @given(candidate_tables(), st.integers(min_value=0, max_value=6))
    def test_bounds_are_ordered(self, table, budget):
        sizes, counts = table
        lower, upper = _side_score_bounds(sizes, counts, budget, "optimal")
        assert np.all(lower <= upper + TOL)


class TestFlipSplitScoreBounds:
    """Batched flip-allocation kernel vs the allocation-at-a-time mirror."""

    @settings(max_examples=80, deadline=None)
    @given(
        candidate_tables(),
        candidate_tables(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_matches_reference(self, left, right, removals, flips):
        left_sizes, left_counts = left
        right_sizes, right_counts = right
        # Both sides of a split have the same candidate axis; trim to the
        # shorter of the two draws.
        n = min(left_sizes.shape[0], right_sizes.shape[0])
        k = min(left_counts.shape[1], right_counts.shape[1])
        args = (
            left_sizes[:n],
            left_counts[:n, :k],
            right_sizes[:n],
            right_counts[:n, :k],
            removals,
            flips,
        )
        lower, upper = _flip_split_score_bounds(*args)
        ref_lower, ref_upper = _flip_split_score_bounds_reference(*args)
        np.testing.assert_allclose(lower, ref_lower, atol=TOL)
        np.testing.assert_allclose(upper, ref_upper, atol=TOL)


@st.composite
def leaf_levels(draw):
    """A random node ``⟨T, n⟩`` or ``⟨T, r, f⟩`` plus children to score.

    Children mix the node's own split-table candidates (symbolic and
    threshold, the predicates ``bestSplit#`` returns), arbitrary thresholds
    and symbolic ranges (some off the table, some with an empty side) and
    equality predicates, each on one branch or both (a *maybe* verdict).
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    dataset = random_small_dataset(
        rng,
        n_samples=draw(st.integers(min_value=3, max_value=14)),
        n_classes=draw(st.integers(min_value=2, max_value=3)),
    )
    keep = draw(
        st.lists(st.booleans(), min_size=len(dataset), max_size=len(dataset))
    )
    indices = np.flatnonzero(keep)
    if indices.size == 0:
        indices = np.arange(len(dataset))
    removals = draw(st.integers(min_value=0, max_value=4))
    if draw(st.booleans()):
        flips = draw(st.integers(min_value=0, max_value=3))
        state = FlipAbstractTrainingSet(dataset, indices, removals, flips)
    else:
        state = AbstractTrainingSet(dataset, indices, removals)

    tables = split_plan.plan_for(dataset).node_tables(state.indices)
    values = sorted({float(v) for v in dataset.X.ravel()})
    value = st.sampled_from(values + [values[0] - 1.0, values[-1] + 1.0])
    predicates = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        feature = draw(st.integers(min_value=0, max_value=dataset.n_features - 1))
        table = tables[feature]
        kind = draw(st.sampled_from(["table", "threshold", "symbolic", "equality"]))
        if kind == "table" and table.n_candidates:
            i = draw(st.integers(min_value=0, max_value=table.n_candidates - 1))
            if draw(st.booleans()):
                predicates.append(
                    split_plan.symbolic_predicate(
                        feature,
                        float(table.lower_values[i]),
                        float(table.upper_values[i]),
                    )
                )
            else:
                predicates.append(
                    split_plan.threshold_predicate(feature, float(table.thresholds[i]))
                )
        elif kind == "symbolic":
            low, high = sorted((draw(value), draw(value)))
            if low < high:
                predicates.append(SymbolicThresholdPredicate(feature, low, high))
        elif kind == "equality":
            predicates.append(EqualityPredicate(feature, draw(value)))
        else:
            predicates.append(ThresholdPredicate(feature, draw(value)))
    children = []
    for predicate in predicates:
        for branch in draw(st.sampled_from([(True,), (False,), (True, False)])):
            children.append((predicate, branch))
    return state, children


class TestLeafExitBounds:
    """The batched last level of the disjunctive learner vs per-child cprob#."""

    @settings(max_examples=300, deadline=None)
    @given(leaf_levels(), st.sampled_from(["optimal", "box"]))
    def test_matches_reference_bit_for_bit(self, level, method):
        state, children = level
        lower, upper = leaf_exit_bounds(
            state, split_statistics(state, children), method
        )
        ref_lower, ref_upper = leaf_exit_bounds_reference(state, children, method)
        np.testing.assert_array_equal(lower, ref_lower)
        np.testing.assert_array_equal(upper, ref_upper)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("method", ["optimal", "box"])
    def test_best_split_children_are_read_from_the_table(self, seed, method):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng, n_samples=int(rng.integers(8, 20)))
        state = _flip_state(dataset, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        if seed % 2:
            state = _removal_state(dataset, int(rng.integers(0, 3)))
        predicates = best_split_abstract(state, method=method).without_null()
        children = [
            (predicate, branch)
            for predicate in predicates.predicates
            for branch in (True, False)
        ]
        tables = split_plan.plan_for(dataset).node_tables(state.indices)
        assert (_table_positions(tables, predicates.predicates) >= 0).all()
        statistics = split_statistics(state, children)
        assert statistics[0].shape[0] == len(children)  # no empty side
        lower, upper = leaf_exit_bounds(state, statistics, method)
        ref_lower, ref_upper = leaf_exit_bounds_reference(state, children, method)
        np.testing.assert_array_equal(lower, ref_lower)
        np.testing.assert_array_equal(upper, ref_upper)


@st.composite
def interval_rows(draw):
    """``(e, k)`` bound arrays on a coarse grid, so ties are common."""
    e = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=4))
    lower = np.empty((e, k))
    upper = np.empty((e, k))
    for r in range(e):
        for c in range(k):
            a, b = sorted(
                (draw(st.integers(0, 8)) / 8.0, draw(st.integers(0, 8)) / 8.0)
            )
            lower[r, c], upper[r, c] = a, b
    return lower, upper


def _vectors(lower, upper):
    return [
        tuple(Interval(lo, hi) for lo, hi in zip(row_lo, row_hi))
        for row_lo, row_hi in zip(lower.tolist(), upper.tolist())
    ]


class TestIntervalRowHelpers:
    @settings(max_examples=200, deadline=None)
    @given(interval_rows())
    def test_dominating_components_matches_scalar(self, rows):
        lower, upper = rows
        expected = [dominating_component(vector) for vector in _vectors(lower, upper)]
        got = dominating_components(lower, upper).tolist()
        assert got == [-1 if index is None else index for index in expected]

    @settings(max_examples=200, deadline=None)
    @given(interval_rows())
    def test_join_bounds_matches_folded_join(self, rows):
        lower, upper = rows
        vectors = _vectors(lower, upper)
        expected = vectors[0]
        for vector in vectors[1:]:
            expected = join_interval_vectors(expected, vector)
        assert join_bounds(lower, upper) == expected


def _budgets_of(state):
    if isinstance(state, FlipAbstractTrainingSet):
        return state.removals, state.flips
    return state.n, None


def _assert_same_filter(result, expected):
    if expected is None:
        assert result is None
    else:
        assert result is not None
        np.testing.assert_array_equal(result.indices, expected.indices)
        assert _budgets_of(result) == _budgets_of(expected)


@st.composite
def join_pieces(draw):
    """2–4 non-empty pieces over one base, each with budgets within its size."""
    dataset = random_small_dataset(
        np.random.default_rng(draw(st.integers(0, 10_000))), n_samples=8
    )
    flip = draw(st.booleans())
    pieces = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        rows = draw(st.sets(st.integers(0, 7), min_size=1))
        indices = np.array(sorted(rows), dtype=np.int64)
        removals = draw(st.integers(0, indices.size))
        if flip:
            flips = draw(st.integers(0, indices.size))
            pieces.append(FlipAbstractTrainingSet(dataset, indices, removals, flips))
        else:
            pieces.append(AbstractTrainingSet(dataset, indices, removals))
    return pieces


class TestClosedFormJoin:
    """Definition 4.1 folded over any order equals the closed-form n-ary join."""

    @settings(max_examples=200, deadline=None)
    @given(join_pieces())
    def test_every_fold_order_equals_the_closed_form(self, pieces):
        union = np.unique(np.concatenate([piece.indices for piece in pieces]))
        sizes = np.array([piece.size for piece in pieces])
        removals = np.array([_budgets_of(piece)[0] for piece in pieces])
        flips = [_budgets_of(piece)[1] for piece in pieces]
        expected = (
            joined_budget(union.size, sizes, removals),
            None if flips[0] is None else max(flips),
        )
        for order in itertools.permutations(pieces):
            folded = order[0]
            for piece in order[1:]:
                folded = folded.join(piece)
            np.testing.assert_array_equal(folded.indices, union)
            assert _budgets_of(folded) == expected


@st.composite
def filter_problems(draw):
    """A node, a predicate set Ψ and a test point for ``filter#``.

    Ψ mixes table candidates, off-table thresholds and symbolic ranges (some
    with an empty side) and equality predicates; the point's coordinates are
    data values, midpoints between them (*maybe* for a table candidate) and
    values outside the data range.
    """
    state, children = draw(leaf_levels())
    predicates = AbstractPredicateSet.of(dict.fromkeys(p for p, _ in children))
    values = sorted({float(v) for v in state.dataset.X.ravel()})
    midpoints = [(a + b) / 2.0 for a, b in zip(values, values[1:])]
    coordinate = st.sampled_from(values + midpoints + [values[0] - 1.0, values[-1] + 1.0])
    x = [draw(coordinate) for _ in range(state.dataset.n_features)]
    return state, predicates, x


class TestFilterMatchesOracle:
    """The closed-form ``filter#`` kernel vs the pairwise fold, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(filter_problems())
    def test_matches_filter_abstract(self, problem):
        state, predicates, x = problem
        _assert_same_filter(
            filter_abstract_closed_form(state, predicates, x),
            filter_abstract(state, predicates, x),
        )

    @pytest.mark.parametrize("flip", [False, True])
    def test_all_pieces_empty_is_bottom(self, flip):
        dataset = random_small_dataset(np.random.default_rng(3))
        state = _flip_state(dataset, 1, 1) if flip else _removal_state(dataset, 1)
        below = float(dataset.X[:, 0].min()) - 1.0
        # x satisfies x0 <= below, whose positive side holds no row.
        predicates = AbstractPredicateSet.of([ThresholdPredicate(0, below)])
        x = np.full(dataset.n_features, below - 1.0)
        assert filter_abstract(state, predicates, x) is None
        assert filter_abstract_closed_form(state, predicates, x) is None

    def test_flip_budget_is_capped_by_the_largest_piece(self):
        # x = 2.5 takes x0 <= 3.5 (rows 0–3) and not x0 <= 1.5 (rows 2–5):
        # two 4-row pieces whose union is all 6 rows, so flips cap at 4, not 6.
        dataset = Dataset(
            X=np.arange(6.0).reshape(-1, 1),
            y=np.array([0, 1, 0, 1, 0, 1]),
            n_classes=2,
            name="overlap",
        )
        state = _flip_state(dataset, 1, 5)
        predicates = AbstractPredicateSet.of(
            [ThresholdPredicate(0, 3.5), ThresholdPredicate(0, 1.5)]
        )
        expected = filter_abstract(state, predicates, [2.5])
        assert expected is not None and expected.flips == 4
        _assert_same_filter(filter_abstract_closed_form(state, predicates, [2.5]), expected)


def _removal_state(dataset, budget):
    return AbstractTrainingSet.from_indices(
        dataset, np.arange(len(dataset)), budget
    )


def _flip_state(dataset, removals, flips):
    return FlipAbstractTrainingSet(
        dataset, np.arange(len(dataset)), removals, flips
    )


class TestFilterLadderMatchesOracle:
    """The kernel equals ``filter_abstract`` at every budget of a ladder.

    The row set of a filter does not depend on the budget, but the budget
    formula does; running one (node, Ψ, x) across a ladder of budgets holds
    the closed form to the pairwise fold at budgets below, at and above the
    piece sizes.
    """

    @settings(max_examples=200, deadline=None)
    @given(filter_problems(), st.integers(0, 5), st.integers(0, 5))
    def test_any_filter_at_any_budget(self, problem, removals, flips):
        state, predicates, x = problem
        if isinstance(state, FlipAbstractTrainingSet):
            probe = FlipAbstractTrainingSet(state.dataset, state.indices, removals, flips)
        else:
            probe = AbstractTrainingSet(state.dataset, state.indices, removals)
        _assert_same_filter(
            filter_abstract_closed_form(probe, predicates, x),
            filter_abstract(probe, predicates, x),
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_removal_ladder_all_budgets(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        state = _removal_state(dataset, int(rng.integers(0, 4)))
        predicates = best_split_abstract(state, method="optimal")
        predicates = predicates.without_null()
        if not predicates.has_concrete_choices:
            pytest.skip("bestSplit# returned only ⋄ for this draw")
        for budget in range(0, 7):
            probe = _removal_state(dataset, budget)
            _assert_same_filter(
                filter_abstract_closed_form(probe, predicates, x),
                filter_abstract(probe, predicates, x),
            )

    @pytest.mark.parametrize("seed", range(12, 24))
    def test_flip_ladder_all_budget_pairs(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        state = _flip_state(dataset, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        predicates = best_split_abstract(state, method="optimal")
        predicates = predicates.without_null()
        if not predicates.has_concrete_choices:
            pytest.skip("bestSplit# returned only ⋄ for this draw")
        for removals in range(0, 4):
            for flips in range(0, 4):
                probe = _flip_state(dataset, removals, flips)
                _assert_same_filter(
                    filter_abstract_closed_form(probe, predicates, x),
                    filter_abstract(probe, predicates, x),
                )


def _verdict(result):
    return (
        result.status,
        result.certified_class,
        tuple((i.lo, i.hi) for i in result.class_intervals),
    )


class TestWarmStartVerdictIdentity:
    """One engine's probes report identical verdicts to fresh engines.

    One engine walks the whole ladder, or reruns one budget, with its plan
    and split-table caches warm from the earlier probes; the oracle certifies
    each budget on a fresh engine.  Status, certified class, and the class
    intervals must agree exactly: engine state is an optimization, never a
    semantic change.
    """

    @pytest.mark.parametrize(
        "budgets", [tuple(range(0, 6)), (2, 2)], ids=["ladder", "rerun"]
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_removal_budget_ladder(self, seed, budgets):
        rng = np.random.default_rng(100 + seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        warm_engine = CertificationEngine(max_depth=2, domain="either")
        for budget in budgets:
            model = RemovalPoisoningModel(budget)
            warm = warm_engine.certify_point(dataset, x, model)
            cold = CertificationEngine(max_depth=2, domain="either").certify_point(
                dataset, x, model
            )
            assert _verdict(warm) == _verdict(cold), f"budget={budget}"

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_staircase(self, seed):
        rng = np.random.default_rng(200 + seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        warm_engine = CertificationEngine(max_depth=2, domain="either")
        for removals in range(0, 3):
            for flips in range(0, 3):
                model = CompositePoisoningModel(removals, flips)
                warm = warm_engine.certify_point(dataset, x, model)
                cold = CertificationEngine(
                    max_depth=2, domain="either"
                ).certify_point(dataset, x, model)
                assert _verdict(warm) == _verdict(cold), f"(r,f)=({removals},{flips})"
