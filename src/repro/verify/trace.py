"""``filter#`` as one closed-form join, and warm-starting it across budget probes.

The paper's ``filter#`` (§4.5, Appendix B) joins, under Definition 4.1, the
split pieces ``⟨T_j, n_j⟩`` of every predicate in Ψ that the test point can
take.  That join has a closed form: for non-empty pieces with
``n_j ≤ |T_j|``, folded left to right,

``⊔_j ⟨T_j, n_j⟩ = ⟨∪_j T_j, |∪_j T_j| − min_j (|T_j| − n_j)⟩``.

Proof: with ``U_k`` the size of the first ``k`` pieces' union and ``b_k`` the
fold's budget, Definition 4.1 gives
``b_k = max((U_k − |T_k|) + n_k, (U_k − U_{k−1}) + b_{k−1})``, i.e.
``b_k − U_k = max(n_k − |T_k|, b_{k−1} − U_{k−1})``; both terms are ``≤ 0``,
so the clamp to the union size never binds.  For ``⟨T, r, f⟩`` elements ``r``
follows the same formula and ``f = max_j f_j``.  The join is therefore
order-independent and needs no intermediate unions:
:func:`filter_abstract_traced` computes every piece's loose row mask and its
tight/loose sizes in one vector pass, ORs the masks, and applies the formula.
:func:`repro.verify.transformers.filter_abstract` (the pairwise fold) is its
scalar oracle.

The row set of a filter depends only on the node's rows and on Ψ, never on
the budget.  A budget search (the §6.1 doubling/binary search, or one
staircase step of a Pareto frontier) re-certifies the same point at nearby
budgets, so each filter is recorded as a :class:`TraceStep`: the entry row
set, Ψ, the filtered row set, and the piece sizes (:class:`FilterReplay`).
A later probe whose state matches the step (:meth:`TraceStep.matches`)
skips the array work and rebuilds the filtered element with
:meth:`TraceStep.apply` — the one budget formula the cold filter uses too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.predicates import Predicate
from repro.telemetry import profiling


def joined_budget(union_size: int, sizes: np.ndarray, budgets: np.ndarray) -> int:
    """Budget of ``⊔_j ⟨T_j, n_j⟩`` whose union has ``union_size`` rows (see above)."""
    return union_size - int((sizes - budgets).min())


@dataclass(frozen=True)
class FilterReplay:
    """Sizes of one ``filter#``'s non-empty pieces and of their union.

    ``loose[j]`` is piece ``j``'s row count ``l`` and ``tight[j]`` the tight
    count ``t`` of a symbolic split (``t = l`` for a concrete predicate, for
    which the symbolic budget rule reduces to ``min(n, l)``).
    """

    loose: np.ndarray
    tight: np.ndarray
    union_size: int

    def removals(self, n: int) -> int:
        """The filtered element's removal budget for an incoming budget ``n``."""
        loose, tight = self.loose, self.tight
        pieces = np.maximum(np.minimum(n, loose), (loose - tight) + np.minimum(n, tight))
        return joined_budget(self.union_size, loose, pieces)

    def flips(self, f: int) -> int:
        """The filtered element's flip budget: ``max_j min(f, l_j)``."""
        return min(f, int(self.loose.max()))


@dataclass(frozen=True)
class TraceStep:
    """One learner iteration's filter, keyed by its abstract decisions.

    A step from a prior probe warm-starts the current one iff the entry row
    set and the chosen predicate set are identical (:meth:`matches`) — then
    the filtered row set is ``next_indices`` verbatim and only the budget is
    replayed.  ``next_indices is None`` records a bottom filter result.
    """

    indices_key: bytes
    predicates: Tuple[Predicate, ...]
    next_indices: Optional[np.ndarray]
    replay: Optional[FilterReplay]

    def matches(self, state, predicates: Tuple[Predicate, ...]) -> bool:
        return (
            state.indices.tobytes() == self.indices_key
            and self.predicates == predicates
        )

    def apply(self, state):
        """The filtered element at ``state``'s budget(s); ``None`` = bottom."""
        if self.next_indices is None:
            return None
        assert self.replay is not None
        flips = getattr(state, "flips", None)
        if flips is None:
            n = self.replay.removals(state.n)
            return type(state)._trusted(state.dataset, self.next_indices, n)
        r = self.replay.removals(state.removals)
        f = self.replay.flips(flips)
        return type(state)._trusted(state.dataset, self.next_indices, r, f)


@dataclass(frozen=True)
class LadderTrace:
    """The per-(point, family) filter trace of one Box-domain learner run."""

    steps: Tuple[TraceStep, ...]

    def step_at(self, depth: int) -> Optional[TraceStep]:
        if depth < len(self.steps):
            return self.steps[depth]
        return None


def filter_abstract_traced(trainset, predicates, x: Sequence[float]):
    """``filter#(trainset, Ψ, x)``, equal to
    :func:`repro.verify.transformers.filter_abstract`, plus the
    :class:`TraceStep` that lets a later probe replay it at another budget.

    Every (predicate, branch) piece that ``x`` can take is split at once over
    the node's rows: the positive branch of ``x_i <= [a, b)`` keeps
    ``x_i < b`` (loose) of which ``x_i <= a`` is tight, the negative branch
    keeps ``x_i > a`` of which ``x_i >= b`` is tight, and a concrete
    predicate's piece is its satisfying (resp. falsifying) rows.  Empty
    pieces are identities of the join (Example 4.8) and are dropped.

    Returns ``(filtered_state_or_None, TraceStep)``.
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
        indices_key = indices.tobytes()
        if not nonempty.any():
            return None, TraceStep(indices_key, predicates.predicates, None, None)
        next_indices = indices[loose.any(axis=0)]
        next_indices.setflags(write=False)
        replay = FilterReplay(
            loose_counts[nonempty], tight_counts[nonempty], int(next_indices.size)
        )
        step = TraceStep(indices_key, predicates.predicates, next_indices, replay)
        return step.apply(trainset), step
