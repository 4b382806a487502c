"""Abstract transformers for the operations of ``DTrace`` (§4.4–4.7).

Every function here soundly overapproximates the corresponding concrete
operation of :mod:`repro.core`: given any concrete training set
``T' ∈ γ(⟨T, n⟩)``, the concrete result is contained in the abstract result.
The property-based tests in ``tests/verify`` check exactly this containment
by enumerating small concretizations.

Two variants of ``cprob#`` are provided:

* ``"box"`` — the naïve interval-arithmetic lifting written out in §4.4
  (numerator interval divided by denominator interval);
* ``"optimal"`` — the optimal transformer of footnote 6, which the paper's
  implementation uses.  It is both tighter and cheaper.

``bestSplit#`` has a vectorized fast path that scores every candidate
threshold of a feature at once using the same per-feature split tables as the
concrete learner, plus a generic slow path over an explicit predicate pool.

The entry points the abstract learners call (``cprob_intervals``,
``pure_exit_vector``, ``best_split_abstract``) and ``filter_abstract`` dispatch
structurally on the abstract element: an element exposing the flip protocol
(``class_probability_intervals`` / ``pure_exit_intervals`` /
``abstract_best_split`` — i.e.
:class:`repro.poisoning.label_flip.FlipAbstractTrainingSet` for the
label-flip and composite removal+flip threat models) is routed to its own
transformers, so the same Box and disjunctive learners soundly interpret
``⟨T, n⟩`` and ``⟨T, r, f⟩`` alike.  The dispatch is duck-typed on purpose:
importing the flip domain here would cycle through ``repro.poisoning``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dataset import FeatureKind
from repro.core.predicates import (
    EqualityPredicate,
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.core import split_plan
from repro.core.splitter import FeatureSplitTable
from repro.domains.interval import Interval, mul_bounds, vector_bounds
from repro.domains.predicate_set import AbstractPredicateSet
from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling

#: Tolerance used when comparing abstract scores; widening the comparison by a
#: tiny epsilon can only *add* predicates to the returned set, which keeps the
#: transformer sound in the presence of floating-point rounding.
SCORE_TOLERANCE = 1e-9

CPROB_METHODS = ("optimal", "box")


# ---------------------------------------------------------------------------
# Scalar transformers on AbstractTrainingSet
# ---------------------------------------------------------------------------


def size_interval(trainset: AbstractTrainingSet) -> Interval:
    """``|⟨T, n⟩| = [|T| - n, |T|]`` (§4.6)."""
    return Interval(float(trainset.size - trainset.n), float(trainset.size))


def cprob_box(trainset: AbstractTrainingSet) -> Tuple[Interval, ...]:
    """The naïve ``cprob#`` of §4.4: interval numerator / interval denominator."""
    size = trainset.size
    n = trainset.n
    k = trainset.dataset.n_classes
    if n >= size:
        return tuple(Interval.unit() for _ in range(k))
    counts = trainset.class_counts()
    denominator = Interval(float(size - n), float(size))
    intervals = []
    for count in counts:
        numerator = Interval(float(max(0, count - n)), float(count))
        intervals.append(numerator.divide(denominator))
    return tuple(intervals)


def cprob_optimal(trainset: AbstractTrainingSet) -> Tuple[Interval, ...]:
    """The optimal ``cprob#`` of footnote 6.

    For each class ``i`` with count ``c_i`` and ``m = |T| - n`` remaining
    elements, the extremal probabilities are reached by dropping either as
    many class-``i`` elements as possible or as many other elements as
    possible, giving the interval ``[max(0, c_i - n)/m, min(c_i, m)/m]``.
    """
    size = trainset.size
    n = trainset.n
    k = trainset.dataset.n_classes
    m = size - n
    if m <= 0:
        return tuple(Interval.unit() for _ in range(k))
    counts = trainset.class_counts()
    intervals = []
    for count in counts:
        lower = max(0, int(count) - n) / m
        upper = min(int(count), m) / m
        intervals.append(Interval(lower, upper))
    return tuple(intervals)


def cprob_intervals(
    trainset: AbstractTrainingSet, method: str = "optimal"
) -> Tuple[Interval, ...]:
    """Dispatch between the two ``cprob#`` transformers (and the flip domain)."""
    flip_cprob = getattr(trainset, "class_probability_intervals", None)
    if flip_cprob is not None:
        return flip_cprob(method)
    if method == "optimal":
        return cprob_optimal(trainset)
    if method == "box":
        return cprob_box(trainset)
    raise ValueError(f"unknown cprob method {method!r}; expected one of {CPROB_METHODS}")


def gini_interval(
    trainset: AbstractTrainingSet, method: str = "optimal"
) -> Interval:
    """``ent#(⟨T, n⟩) = Σ_i ι_i (1 - ι_i)`` with interval arithmetic (§4.4)."""
    total = Interval.zero()
    one = Interval.point(1.0)
    for component in cprob_intervals(trainset, method):
        total = total + component * (one - component)
    return total


def score_interval(
    trainset: AbstractTrainingSet, predicate: Predicate, method: str = "optimal"
) -> Interval:
    """``score#(⟨T, n⟩, φ)`` of §4.6 for an arbitrary predicate."""
    left = trainset.split_down(predicate, True)
    right = trainset.split_down(predicate, False)
    return size_interval(left) * gini_interval(left, method) + size_interval(
        right
    ) * gini_interval(right, method)


def pure_restriction(trainset: AbstractTrainingSet) -> Optional[AbstractTrainingSet]:
    """The restriction used by the ``ent(T) = 0`` branch (§4.7), or ``None``."""
    return trainset.restrict_pure_any()


def pure_exit_vector(
    trainset: AbstractTrainingSet, method: str = "optimal"
) -> Optional[Tuple[Interval, ...]]:
    """Class-probability intervals of the ``ent(T) = 0`` exit, or ``None``.

    For removal elements this is ``cprob#`` of :func:`pure_restriction`.  Flip
    elements have no state-shaped pure restriction (a pure concretization may
    have *flipped* rows into the majority class), so they contribute the
    joined point vectors of every feasible pure class directly — which is
    exactly the classification of those exits.
    """
    with profiling.phase("pure_exit"):
        pure_exits = getattr(trainset, "pure_exit_intervals", None)
        if pure_exits is not None:
            return pure_exits()
        restricted = trainset.restrict_pure_any()
        if restricted is None:
            return None
        return cprob_intervals(restricted, method)


def entropy_is_definitely_zero(
    trainset: AbstractTrainingSet, method: str = "optimal"
) -> bool:
    """Whether every concretization has zero impurity (else-branch infeasible)."""
    return gini_interval(trainset, method).upper_at_most(0.0)


# ---------------------------------------------------------------------------
# filter#
# ---------------------------------------------------------------------------


def filter_abstract(
    trainset: AbstractTrainingSet,
    predicates: AbstractPredicateSet,
    x: Sequence[float],
) -> Optional[AbstractTrainingSet]:
    """``filter#(⟨T, n⟩, Ψ, x)`` of §4.5 (and its symbolic variant of App. B).

    Returns ``None`` (bottom) when no predicate applies, which can only happen
    when ``Ψ`` contains no concrete choices.  This is the scalar oracle: one
    ``split_down`` per piece, folded with the pairwise join of
    Definition 4.1.  The learners run :func:`filter_abstract_closed_form`,
    its closed-form vector kernel, which the property tests hold to it bit
    for bit.
    """
    with profiling.phase("filter"):
        satisfied, falsified = predicates.partition_for_point(x)
        pieces: List[AbstractTrainingSet] = []
        for predicate in satisfied:
            pieces.append(trainset.split_down(predicate, True))
        for predicate in falsified:
            pieces.append(trainset.split_down(predicate, False))
        # An abstractly empty side means no concrete run can take that branch
        # with that predicate (a non-trivial split needs both sides non-empty),
        # so such pieces are identity elements for the join (Example 4.8).
        pieces = [piece for piece in pieces if piece.size > 0]
        if not pieces:
            return None
        result = pieces[0]
        for piece in pieces[1:]:
            result = result.join(piece)
        return result


# The join that ``filter#`` takes over the split pieces ``⟨T_j, n_j⟩`` has a
# closed form: for non-empty pieces with ``n_j ≤ |T_j|``, folded left to right,
#
#     ⊔_j ⟨T_j, n_j⟩ = ⟨∪_j T_j, |∪_j T_j| − min_j (|T_j| − n_j)⟩.
#
# Proof: with ``U_k`` the size of the first ``k`` pieces' union and ``b_k`` the
# fold's budget, Definition 4.1 gives
# ``b_k = max((U_k − |T_k|) + n_k, (U_k − U_{k−1}) + b_{k−1})``, i.e.
# ``b_k − U_k = max(n_k − |T_k|, b_{k−1} − U_{k−1})``; both terms are ``≤ 0``,
# so the clamp to the union size never binds.  For ``⟨T, r, f⟩`` elements
# ``r`` follows the same formula and ``f = max_j f_j``.  The join is therefore
# order-independent and needs no intermediate unions.


def joined_budget(union_size: int, sizes: np.ndarray, budgets: np.ndarray) -> int:
    """Budget of ``⊔_j ⟨T_j, n_j⟩`` whose union has ``union_size`` rows (see above)."""
    return union_size - int((sizes - budgets).min())


def _filtered_removals(
    loose: np.ndarray, tight: np.ndarray, union_size: int, n: int
) -> int:
    """The filtered element's removal budget for an incoming budget ``n``.

    ``loose[j]`` is piece ``j``'s row count ``l`` and ``tight[j]`` the tight
    count ``t`` of a symbolic split (``t = l`` for a concrete predicate, for
    which the symbolic budget rule reduces to ``min(n, l)``).
    """
    pieces = np.maximum(np.minimum(n, loose), (loose - tight) + np.minimum(n, tight))
    return joined_budget(union_size, loose, pieces)


def filter_abstract_closed_form(
    trainset: AbstractTrainingSet,
    predicates: AbstractPredicateSet,
    x: Sequence[float],
) -> Optional[AbstractTrainingSet]:
    """``filter#(trainset, Ψ, x)``, equal to :func:`filter_abstract`.

    Every (predicate, branch) piece that ``x`` can take is split at once over
    the node's rows: the positive branch of ``x_i <= [a, b)`` keeps
    ``x_i < b`` (loose) of which ``x_i <= a`` is tight, the negative branch
    keeps ``x_i > a`` of which ``x_i >= b`` is tight, and a concrete
    predicate's piece is its satisfying (resp. falsifying) rows.  Empty
    pieces are identities of the join (Example 4.8) and are dropped; the
    row set is the OR of the loose masks and the budgets follow the closed
    form above.
    """
    with profiling.phase("filter"):
        possibly_true, possibly_false = predicates.point_sides(x)
        features, low, high, symbolic, equality = predicates.arrays
        # Pieces in four blocks: symbolic positive, symbolic negative,
        # concrete positive, concrete negative (the join is order-free).
        blocks = (
            possibly_true & symbolic,
            possibly_false & symbolic,
            possibly_true & ~symbolic,
            possibly_false & ~symbolic,
        )
        pieces = np.concatenate([np.flatnonzero(block) for block in blocks])
        a, b, c = np.cumsum([np.count_nonzero(block) for block in blocks[:3]]).tolist()
        low = low[pieces, np.newaxis]
        high = high[pieces, np.newaxis]
        indices = trainset.indices
        # One row of node values per piece; each needed column is read once.
        columns, inverse = np.unique(features[pieces], return_inverse=True)
        values = trainset.dataset.X.T[np.ix_(columns, indices)][inverse]

        loose = np.empty(values.shape, dtype=bool)
        tight = np.empty((b, values.shape[1]), dtype=bool)
        np.less(values[:a], high[:a], out=loose[:a])
        np.less_equal(values[:a], low[:a], out=tight[:a])
        np.greater(values[a:b], low[a:b], out=loose[a:b])
        np.greater_equal(values[a:b], high[a:b], out=tight[a:b])
        concrete, bound = values[b:], low[b:]
        hit = np.where(equality[pieces[b:], np.newaxis], concrete == bound, concrete <= bound)
        loose[b:c] = hit[: c - b]
        np.logical_not(hit[c - b :], out=loose[c:])

        loose_counts = np.count_nonzero(loose, axis=1)
        tight_counts = np.concatenate([np.count_nonzero(tight, axis=1), loose_counts[b:]])
        nonempty = loose_counts > 0
        if not nonempty.any():
            return None
        next_indices = indices[loose.any(axis=0)]
        next_indices.setflags(write=False)
        loose_counts = loose_counts[nonempty]
        tight_counts = tight_counts[nonempty]
        union_size = int(next_indices.size)
        flips = getattr(trainset, "flips", None)
        if flips is None:
            n = _filtered_removals(loose_counts, tight_counts, union_size, trainset.n)
            return type(trainset)._trusted(trainset.dataset, next_indices, n)
        r = _filtered_removals(loose_counts, tight_counts, union_size, trainset.removals)
        f = min(flips, int(loose_counts.max()))  # max_j min(f, l_j)
        return type(trainset)._trusted(trainset.dataset, next_indices, r, f)


# ---------------------------------------------------------------------------
# bestSplit#
# ---------------------------------------------------------------------------


@dataclass
class _ScoredCandidates:
    """Scored candidate predicates of one feature (vectorized bounds).

    Predicate objects are materialized lazily: the common selection path only
    instantiates the (typically few) candidates that survive the ``lub``
    comparison, while the score arrays cover every candidate position.  The
    generic pool/categorical paths pre-materialize and set ``predicates``.
    """

    score_lower: np.ndarray
    score_upper: np.ndarray
    universal: np.ndarray  # boolean mask: non-trivial for every concretization
    predicates: Optional[List[Predicate]] = None  # eager (pool path) predicates
    feature: int = -1
    kind: Optional[FeatureKind] = None
    table: Optional[FeatureSplitTable] = None

    def materialize(self, positions: Sequence[int]) -> List[Predicate]:
        """Predicate objects at ``positions``, preserving candidate order."""
        if self.predicates is not None:
            return [self.predicates[int(i)] for i in positions]
        table = self.table
        assert table is not None
        if self.kind is FeatureKind.REAL:
            return [
                split_plan.symbolic_predicate(
                    self.feature,
                    float(table.lower_values[int(i)]),
                    float(table.upper_values[int(i)]),
                )
                for i in positions
            ]
        return [
            split_plan.threshold_predicate(self.feature, float(table.thresholds[int(i)]))
            for i in positions
        ]

    def materialize_all(self) -> List[Predicate]:
        return self.materialize(range(int(self.score_lower.shape[0])))


def _side_probability_bounds(
    sizes: np.ndarray,
    class_counts: np.ndarray,
    budget: Union[int, np.ndarray],
    method: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``cprob#`` bounds for one side of every candidate split.

    Parameters are arrays over candidates: ``sizes`` has shape ``(c,)`` and
    ``class_counts`` shape ``(c, k)``; ``budget`` is one removal budget for
    every candidate or a ``(c,)`` array of per-candidate budgets.  Returns
    per-candidate, per-class lower and upper probability bounds of shape
    ``(c, k)``.
    """
    sizes = sizes.astype(np.float64)
    counts = class_counts.astype(np.float64)
    budgets = np.minimum(np.asarray(budget, dtype=np.float64), sizes)
    remaining = sizes - budgets  # m = |T| - n for each candidate side

    lower = np.zeros_like(counts)
    upper = np.ones_like(counts)
    positive = remaining > 0
    if method == "optimal":
        safe_remaining = np.where(positive, remaining, 1.0)[:, None]
        lower_pos = np.maximum(0.0, counts - budgets[:, None]) / safe_remaining
        upper_pos = np.minimum(counts, remaining[:, None]) / safe_remaining
    elif method == "box":
        # Numerator [max(0, c - n), c], denominator [m, |T|] — interval division
        # with a positive divisor.
        numerator_lo = np.maximum(0.0, counts - budgets[:, None])
        numerator_hi = counts
        denominator_lo = np.where(positive, remaining, 1.0)[:, None]
        denominator_hi = np.maximum(sizes, 1.0)[:, None]
        lower_pos = numerator_lo / denominator_hi
        upper_pos = numerator_hi / denominator_lo
    else:
        raise ValueError(f"unknown cprob method {method!r}")
    mask = positive[:, None]
    lower = np.where(mask, lower_pos, lower)
    upper = np.where(mask, upper_pos, upper)
    return lower, upper


def _side_score_bounds(
    sizes: np.ndarray, class_counts: np.ndarray, budget: int, method: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bounds of ``|side| · ent#(side)`` for every candidate."""
    prob_lower, prob_upper = _side_probability_bounds(
        sizes, class_counts, budget, method
    )
    term_lower, term_upper = mul_bounds(
        prob_lower, prob_upper, 1.0 - prob_upper, 1.0 - prob_lower
    )
    gini_lower = term_lower.sum(axis=1)
    gini_upper = term_upper.sum(axis=1)
    sizes = sizes.astype(np.float64)
    budgets = np.minimum(float(budget), sizes)
    size_lower = sizes - budgets
    size_upper = sizes
    return mul_bounds(size_lower, size_upper, gini_lower, gini_upper)


def _side_score_bounds_reference(
    sizes: np.ndarray, class_counts: np.ndarray, budget: int, method: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar per-candidate mirror of :func:`_side_score_bounds`.

    Retained as the property-test oracle for the vectorized kernel: one
    candidate at a time, in plain :class:`Interval` arithmetic.
    """
    lower = np.empty(int(sizes.shape[0]))
    upper = np.empty(int(sizes.shape[0]))
    for i in range(int(sizes.shape[0])):
        size = int(sizes[i])
        n = min(budget, size)
        m = size - n
        if m <= 0:
            probs = [Interval.unit() for _ in range(class_counts.shape[1])]
        elif method == "optimal":
            probs = [
                Interval(max(0, int(c) - n) / m, min(int(c), m) / m)
                for c in class_counts[i]
            ]
        else:
            denominator = Interval(float(m), float(size))
            probs = [
                Interval(float(max(0, int(c) - n)), float(int(c))).divide(denominator)
                for c in class_counts[i]
            ]
        gini = Interval.zero()
        one = Interval.point(1.0)
        for p in probs:
            gini = gini + p * (one - p)
        score = Interval(float(m), float(size)) * gini
        lower[i] = score.lo
        upper[i] = score.hi
    return lower, upper


def _scored_threshold_candidates(
    trainset: AbstractTrainingSet,
    feature: int,
    kind: FeatureKind,
    method: str,
    table: FeatureSplitTable,
) -> Optional[_ScoredCandidates]:
    """Score every threshold candidate of one (real or boolean) feature."""
    if table.n_candidates == 0:
        return None
    budget = trainset.n

    left_lower, left_upper = _side_score_bounds(
        table.left_sizes, table.left_class_counts, budget, method
    )
    right_lower, right_upper = _side_score_bounds(
        table.right_sizes, table.right_class_counts, budget, method
    )
    score_lower = left_lower + right_lower
    score_upper = left_upper + right_upper
    universal = (table.left_sizes > budget) & (table.right_sizes > budget)

    return _ScoredCandidates(
        score_lower=score_lower,
        score_upper=score_upper,
        universal=universal,
        feature=feature,
        kind=kind,
        table=table,
    )


def _scored_pool_candidates(
    trainset: AbstractTrainingSet, pool: Sequence[Predicate], method: str
) -> Optional[_ScoredCandidates]:
    """Score an explicit predicate pool (slow generic path)."""
    predicates: List[Predicate] = []
    lower: List[float] = []
    upper: List[float] = []
    universal: List[bool] = []
    for predicate in pool:
        left = trainset.split_down(predicate, True)
        right = trainset.split_down(predicate, False)
        if left.size == 0 or right.size == 0:
            # Trivial for every concretization: not in Φ∃.
            continue
        score = size_interval(left) * gini_interval(left, method) + size_interval(
            right
        ) * gini_interval(right, method)
        predicates.append(predicate)
        lower.append(score.lo)
        upper.append(score.hi)
        universal.append(not left.can_be_empty() and not right.can_be_empty())
    if not predicates:
        return None
    return _ScoredCandidates(
        predicates=predicates,
        score_lower=np.asarray(lower),
        score_upper=np.asarray(upper),
        universal=np.asarray(universal, dtype=bool),
    )


def _scored_categorical_candidates(
    trainset: AbstractTrainingSet, feature: int, method: str
) -> Optional[_ScoredCandidates]:
    """Score equality predicates for one categorical feature."""
    values = np.unique(trainset.features[:, feature])
    pool = [EqualityPredicate(feature, float(v)) for v in values]
    return _scored_pool_candidates(trainset, pool, method)


def best_split_abstract(
    trainset: AbstractTrainingSet,
    *,
    method: str = "optimal",
    predicate_pool: Optional[Sequence[Predicate]] = None,
) -> AbstractPredicateSet:
    """``bestSplit#(⟨T, n⟩)`` of §4.6 (with the real-valued lifting of App. B).

    Returns the abstract predicate set containing every predicate whose score
    interval overlaps the minimal achievable score, plus ``⋄`` when some
    concretization might admit no non-trivial split at all.
    """
    with profiling.phase("best_split"):
        return _best_split_abstract(
            trainset, method=method, predicate_pool=predicate_pool
        )


def _best_split_abstract(
    trainset: AbstractTrainingSet,
    *,
    method: str,
    predicate_pool: Optional[Sequence[Predicate]],
) -> AbstractPredicateSet:
    flip_split = getattr(trainset, "abstract_best_split", None)
    if flip_split is not None:
        return flip_split(method=method, predicate_pool=predicate_pool)
    if trainset.size == 0:
        return AbstractPredicateSet.of((), includes_null=True)

    plan = None
    cache_key = None
    if predicate_pool is None:
        # bestSplit# is a pure function of (node rows, budget, method); the
        # learners re-pose the same query for same-rows disjuncts and across
        # ladder rungs, so memoize the immutable result on the plan.
        plan = split_plan.plan_for(trainset.dataset)
        cache_key = (trainset.indices.tobytes(), trainset.n, method)
        cached = plan.cached_best_split(cache_key)
        if cached is not None:
            return cached

    groups: List[_ScoredCandidates] = []
    if predicate_pool is not None:
        scored = _scored_pool_candidates(trainset, predicate_pool, method)
        if scored is not None:
            groups.append(scored)
    else:
        tables = plan.node_tables(trainset.indices)
        stacked = tables.stacked
        stacked_scores = None
        if stacked is not None:
            # Bound every threshold candidate of every feature in one batch
            # kernel call; the per-feature groups below are O(1) slices of it.
            budget = trainset.n
            left_lower, left_upper = _side_score_bounds(
                stacked.left_sizes, stacked.left_class_counts, budget, method
            )
            right_lower, right_upper = _side_score_bounds(
                stacked.right_sizes, stacked.right_class_counts, budget, method
            )
            stacked_scores = (
                left_lower + right_lower,
                left_upper + right_upper,
                (stacked.left_sizes > budget) & (stacked.right_sizes > budget),
            )
        for feature, kind in enumerate(trainset.dataset.feature_kinds):
            if kind is FeatureKind.CATEGORICAL:
                scored = _scored_categorical_candidates(trainset, feature, method)
            else:
                part = stacked.feature_slice(feature) if stacked is not None else None
                if (
                    stacked_scores is None
                    or part is None
                    or part.stop == part.start
                ):
                    continue
                scored = _ScoredCandidates(
                    score_lower=stacked_scores[0][part],
                    score_upper=stacked_scores[1][part],
                    universal=stacked_scores[2][part],
                    feature=feature,
                    kind=kind,
                    table=tables[feature],
                )
            if scored is not None:
                groups.append(scored)

    if not groups:
        # Φ∃ is empty: every predicate is trivial on every concretization.
        result = AbstractPredicateSet.of((), includes_null=True)
    elif not any(bool(group.universal.any()) for group in groups):
        # Φ∀ = ∅: return all existentially non-trivial predicates plus ⋄.
        predicates = [p for group in groups for p in group.materialize_all()]
        result = AbstractPredicateSet.of(predicates, includes_null=True)
    else:
        lub = min(
            float(group.score_upper[group.universal].min())
            for group in groups
            if group.universal.any()
        )
        selected: List[Predicate] = []
        for group in groups:
            mask = group.score_lower <= lub + SCORE_TOLERANCE
            selected.extend(group.materialize(np.nonzero(mask)[0]))
        result = AbstractPredicateSet.of(selected, includes_null=False)
    if plan is not None and cache_key is not None:
        plan.store_best_split(cache_key, result)
    return result


# ---------------------------------------------------------------------------
# The disjunctive learner's last level, batched
# ---------------------------------------------------------------------------

#: Statistics of a batch of abstract elements, without the elements:
#: ``(sizes, class_counts, removals, flips)`` of shapes ``(e,)``, ``(e, k)``,
#: ``(e,)`` and ``(e,)``.  Removal elements ``⟨T, n⟩`` have ``flips = 0``.
SplitStatistics = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _budgets(trainset) -> Tuple[int, int]:
    """``(removals, flips)`` of a removal or a flip/composite element."""
    flips = getattr(trainset, "flips", None)
    if flips is None:
        return trainset.n, 0
    return trainset.removals, flips


def _table_positions(
    tables: split_plan.NodeTables, predicates: Sequence[Predicate]
) -> np.ndarray:
    """The node's stacked candidate whose split each predicate makes, or -1.

    A candidate sits between adjacent distinct values ``a < b`` of the node's
    rows, so ``x <= τ`` keeps exactly its left rows for ``a <= τ < b``, and a
    symbolic ``x <= [low, high)`` with ``a <= low < high <= b`` has equal
    tight and loose sides on both branches.  Every predicate ``bestSplit#``
    returns for the node is such a candidate; other predicates get -1.
    """
    positions = np.full(len(predicates), -1, dtype=np.int64)
    by_feature: Dict[int, List[int]] = {}
    for i, predicate in enumerate(predicates):
        if isinstance(predicate, (SymbolicThresholdPredicate, ThresholdPredicate)):
            by_feature.setdefault(predicate.feature, []).append(i)
    stacked = tables.stacked
    for feature, members in by_feature.items():
        table = tables[feature]
        if stacked is None or table.n_candidates == 0:
            continue
        low = np.empty(len(members))
        high = np.empty(len(members))
        symbolic = np.empty(len(members), dtype=bool)
        for j, i in enumerate(members):
            predicate = predicates[i]
            if isinstance(predicate, SymbolicThresholdPredicate):
                low[j], high[j], symbolic[j] = predicate.low, predicate.high, True
            else:
                low[j] = high[j] = predicate.threshold
                symbolic[j] = False
        position = np.searchsorted(table.lower_values, low, side="right") - 1
        gap_end = table.upper_values[np.maximum(position, 0)]
        inside = (position >= 0) & ((high < gap_end) | (symbolic & (high == gap_end)))
        positions[np.asarray(members)[inside]] = (
            position[inside] + stacked.offsets[feature]
        )
    return positions


def split_statistics(
    trainset: AbstractTrainingSet, children: Sequence[Tuple[Predicate, bool]]
) -> SplitStatistics:
    """Statistics of the non-empty children ``trainset↓(φ, branch)``, in order.

    Children whose predicate is a candidate of the node's split table are
    read from that table (``bestSplit#`` built it for the node already); any
    other child is built with ``split_down``.  Either way the statistics are
    those of the element ``split_down`` returns, budgets clamped as its
    constructor clamps them; empty children are dropped.
    """
    removals, flips = _budgets(trainset)
    k = trainset.dataset.n_classes
    # Children come in (predicate, branch) runs: number the distinct
    # predicates once (by identity, cheaper than hashing the dataclass).
    numbers: Dict[int, int] = {}
    predicates: List[Predicate] = []
    predicate_of = np.empty(len(children), dtype=np.int64)
    left = np.empty(len(children), dtype=bool)
    for row, (predicate, branch) in enumerate(children):
        number = numbers.get(id(predicate))
        if number is None:
            number = numbers[id(predicate)] = len(predicates)
            predicates.append(predicate)
        predicate_of[row] = number
        left[row] = branch
    tables = split_plan.plan_for(trainset.dataset).node_tables(trainset.indices)
    candidates = _table_positions(tables, predicates)[predicate_of]

    sizes = np.zeros(len(children), dtype=np.int64)
    counts = np.zeros((len(children), k), dtype=np.int64)
    child_removals = np.full(len(children), removals, dtype=np.int64)
    child_flips = np.full(len(children), flips, dtype=np.int64)
    read = candidates >= 0
    if read.any():
        stacked = tables.stacked
        assert stacked is not None
        positions = candidates[read]
        left_sizes = stacked.left_sizes[positions]
        left_counts = stacked.left_class_counts[positions]
        sides = left[read]
        sizes[read] = np.where(sides, left_sizes, stacked.total_size - left_sizes)
        counts[read] = np.where(
            sides[:, np.newaxis],
            left_counts,
            stacked.total_class_counts[np.newaxis, :] - left_counts,
        )
    for row in np.flatnonzero(~read).tolist():
        predicate, branch = children[row]
        child = trainset.split_down(predicate, branch)
        sizes[row] = child.size
        counts[row] = child.class_counts()
        child_removals[row], child_flips[row] = _budgets(child)
    keep = sizes > 0
    return sizes[keep], counts[keep], child_removals[keep], child_flips[keep]


def leaf_exit_bounds(
    trainset: AbstractTrainingSet, statistics: SplitStatistics, method: str = "optimal"
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched ``cprob#`` of the elements that ``statistics`` describes.

    Row ``i`` of the ``(e, k)`` lower and upper bound arrays equals
    ``cprob_intervals`` of the ``i``-th element, bit for bit; ``trainset``
    only selects the domain (removal or flip/composite) of the batch.
    """
    sizes, counts, removals, flips = statistics
    flip_bounds = getattr(trainset, "probability_bounds", None)
    if flip_bounds is not None:
        return flip_bounds(sizes, counts, removals, flips, method)
    return _side_probability_bounds(sizes, counts, removals, method)


def leaf_exit_bounds_reference(
    trainset: AbstractTrainingSet,
    children: Sequence[Tuple[Predicate, bool]],
    method: str = "optimal",
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar mirror of :func:`split_statistics` + :func:`leaf_exit_bounds`.

    The property-test oracle: ``split_down`` and ``cprob_intervals`` one
    child at a time, dropping empty children.
    """
    vectors = []
    for predicate, branch in children:
        child = trainset.split_down(predicate, branch)
        if child.size > 0:
            vectors.append(cprob_intervals(child, method))
    return vector_bounds(vectors, trainset.dataset.n_classes)
