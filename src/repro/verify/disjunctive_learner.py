"""The abstract learner ``DTrace#`` on the disjunctive domain (§5.2).

Instead of joining the abstract training sets produced by different predicate
choices (the precision bottleneck identified in Example 5.3), the disjunctive
learner keeps one disjunct per surviving control-flow path: each predicate
returned by ``bestSplit#`` spawns its own disjunct, and a symbolic predicate
whose evaluation on the test point is *maybe* spawns a disjunct for each
branch.  Exits accumulate across iterations; the point is certified robust
only if the **same** class dominates in every exit disjunct.

Precision is higher than the Box domain by construction, but the number of
disjuncts can grow exponentially with the tree depth, so the learner enforces
a configurable disjunct budget and a cooperative time budget, mirroring the
timeouts and out-of-memory failures reported in the paper's evaluation.

The disjuncts of the last depth are exits the moment they exist, so they are
never built: each parent contributes the statistics of its children
(:func:`~repro.verify.transformers.split_statistics`), and one batched
``cprob#`` (:func:`~repro.verify.transformers.leaf_exit_bounds`) bounds every
leaf of the run.  The join and the per-exit dominating classes are array
reductions over all exits.

The learner is domain-generic: through the dispatching transformers of
:mod:`repro.verify.transformers` it interprets removal elements ``⟨T, n⟩``
and flip/composite elements ``⟨T, r, f⟩`` alike, so label-flip and combined
removal+flip certificates get the same disjunctive precision boost
(``domain="disjuncts"/"either"`` on the engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.predicates import point_satisfies
from repro.domains.interval import (
    Interval,
    dominating_components,
    join_bounds,
    vector_bounds,
)
from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling
from repro.utils.timing import TimeBudget
from repro.verify.abstract_learner import AbstractRunResult
from repro.verify.transformers import (
    SplitStatistics,
    best_split_abstract,
    cprob_intervals,
    entropy_is_definitely_zero,
    leaf_exit_bounds,
    pure_exit_vector,
    split_statistics,
)


class DisjunctBudgetExceeded(RuntimeError):
    """Raised when the number of live disjuncts exceeds the configured budget."""


@dataclass(frozen=True)
class DisjunctiveRunResult(AbstractRunResult):
    """Result of a disjunctive run; adds the per-exit dominating classes."""

    exit_robust_classes: Tuple[Optional[int], ...] = ()

    @property
    def robust_class(self) -> Optional[int]:
        """The class dominating *every* exit disjunct, if any (Cor. 4.12)."""
        if not self.exit_robust_classes:
            return None
        first = self.exit_robust_classes[0]
        if first is None:
            return None
        if all(label == first for label in self.exit_robust_classes):
            return first
        return None


@dataclass
class DisjunctiveAbstractLearner:
    """``DTrace#`` over the disjunctive domain of §5.2.

    Parameters mirror :class:`repro.verify.abstract_learner.BoxAbstractLearner`
    plus ``max_disjuncts``, the resource limit on simultaneously live
    disjuncts (live + exited).  Exceeding it raises
    :class:`DisjunctBudgetExceeded`, which the robustness driver reports as a
    resource-exhausted (inconclusive) outcome.
    """

    max_depth: int = 2
    cprob_method: str = "optimal"
    predicate_pool: Optional[Sequence] = None
    max_disjuncts: int = 4096

    def run(
        self,
        trainset: AbstractTrainingSet,
        x: Sequence[float],
        *,
        time_budget: Optional[TimeBudget] = None,
    ) -> DisjunctiveRunResult:
        budget = time_budget or TimeBudget.unlimited()
        live: List[AbstractTrainingSet] = [trainset]
        # point_satisfies(predicate, x) is a pure function of the (interned)
        # predicate for this run's fixed x — memoize it across the thousands
        # of disjuncts that re-test the same candidates.
        verdict_cache: dict = {}
        # Exits are kept as classification vectors, not states: that is all
        # the join needs, and the flip domain's pure exits have no state form
        # (see transformers.pure_exit_vector).
        exit_vectors: List[Tuple[Interval, ...]] = []
        # The children of the last level are exits too, but they are never
        # built: each parent contributes the statistics of its non-empty
        # children, and one batched cprob# scores them all after the loop.
        leaf_statistics: List[SplitStatistics] = []
        leaf_count = 0
        iterations = 0
        peak_disjuncts = 1

        for depth in range(self.max_depth):
            if not live:
                break
            iterations += 1
            last_level = depth == self.max_depth - 1
            next_live: List[AbstractTrainingSet] = []
            for state in live:
                budget.check()

                pure = pure_exit_vector(state, self.cprob_method)
                if pure is not None:
                    exit_vectors.append(pure)
                if entropy_is_definitely_zero(state, self.cprob_method):
                    continue

                predicates = best_split_abstract(
                    state, method=self.cprob_method, predicate_pool=self.predicate_pool
                )
                if predicates.includes_null:
                    with profiling.phase("cprob_exit"):
                        exit_vectors.append(
                            cprob_intervals(state, self.cprob_method)
                        )
                with profiling.phase("disjunct_split"):
                    children = []
                    for predicate in predicates.without_null():
                        branches = verdict_cache.get(predicate)
                        if branches is None:
                            verdict = point_satisfies(predicate, x)
                            branches = []
                            if verdict.possibly_true:
                                branches.append(True)
                            if verdict.possibly_false:
                                branches.append(False)
                            verdict_cache[predicate] = branches
                        children.extend((predicate, branch) for branch in branches)
                    if last_level:
                        statistics = split_statistics(state, children)
                        leaf_statistics.append(statistics)
                        leaf_count += int(statistics[0].shape[0])
                    else:
                        for predicate, branch in children:
                            child = state.split_down(predicate, branch)
                            if child.size == 0:
                                # The branch is infeasible for every
                                # concretization (only possible for the
                                # uncertain side of a symbolic predicate);
                                # drop it.
                                continue
                            next_live.append(child)
                self._check_budget(len(next_live) + leaf_count + len(exit_vectors))
            live = next_live
            peak_disjuncts = max(
                peak_disjuncts, len(live) + leaf_count + len(exit_vectors)
            )

        with profiling.phase("cprob_exit"):
            exit_vectors.extend(
                cprob_intervals(state, self.cprob_method) for state in live
            )
            lower, upper = vector_bounds(exit_vectors, trainset.dataset.n_classes)
            if leaf_statistics:
                leaf_lower, leaf_upper = leaf_exit_bounds(
                    trainset,
                    tuple(np.concatenate(part) for part in zip(*leaf_statistics)),
                    self.cprob_method,
                )
                lower = np.concatenate([lower, leaf_lower])
                upper = np.concatenate([upper, leaf_upper])
        exit_count = int(lower.shape[0])
        self._check_budget(exit_count)

        if exit_count == 0:
            joined: Tuple[Interval, ...] = tuple(
                Interval.unit() for _ in range(trainset.dataset.n_classes)
            )
            per_exit: Tuple[Optional[int], ...] = ()
        else:
            joined = join_bounds(lower, upper)
            per_exit = tuple(
                None if index < 0 else index
                for index in dominating_components(lower, upper).tolist()
            )

        return DisjunctiveRunResult(
            class_intervals=joined,
            exit_count=exit_count,
            iterations=iterations,
            max_disjuncts=peak_disjuncts,
            exit_robust_classes=per_exit,
        )

    def _check_budget(self, count: int) -> None:
        if count > self.max_disjuncts:
            raise DisjunctBudgetExceeded(
                f"disjunct budget of {self.max_disjuncts} exceeded ({count} disjuncts)"
            )
