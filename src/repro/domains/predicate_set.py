"""Abstract sets of split predicates (§4.2 and Appendix B).

The abstract learner must represent *all* the predicates a concrete run could
have chosen at a node — the set ``Ψ`` in the learner state — including the
special null predicate ``⋄`` ("no non-trivial split exists").  For
real-valued features the member predicates are symbolic
(:class:`~repro.core.predicates.SymbolicThresholdPredicate`), each standing
for an interval of concrete thresholds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Tuple, cast

import numpy as np

from repro.core.predicates import (
    EqualityPredicate,
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)


@dataclass(frozen=True)
class AbstractPredicateSet:
    """A finite set of (possibly symbolic) predicates, optionally with ``⋄``."""

    predicates: Tuple[Predicate, ...] = field(default_factory=tuple)
    includes_null: bool = False

    # ------------------------------------------------------------- builders
    @classmethod
    def initial(cls) -> "AbstractPredicateSet":
        """The initial ``Ψ = {⋄}`` of the abstract learner state."""
        return cls(predicates=(), includes_null=True)

    @classmethod
    def of(
        cls, predicates: Iterable[Predicate], includes_null: bool = False
    ) -> "AbstractPredicateSet":
        return cls(predicates=tuple(predicates), includes_null=includes_null)

    # ----------------------------------------------------------- collection
    def __len__(self) -> int:
        return len(self.predicates) + (1 if self.includes_null else 0)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    def __contains__(self, predicate: Predicate) -> bool:
        return predicate in self.predicates

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def has_concrete_choices(self) -> bool:
        return bool(self.predicates)

    # -------------------------------------------------------------- lattice
    def join(self, other: "AbstractPredicateSet") -> "AbstractPredicateSet":
        """Set union (the domain's join, §4.2)."""
        merged = list(self.predicates)
        seen = set(self.predicates)
        for predicate in other.predicates:
            if predicate not in seen:
                merged.append(predicate)
                seen.add(predicate)
        return AbstractPredicateSet(
            predicates=tuple(merged),
            includes_null=self.includes_null or other.includes_null,
        )

    def without_null(self) -> "AbstractPredicateSet":
        """Restrict to the ``φ ≠ ⋄`` branch of the learner's conditional."""
        return AbstractPredicateSet(predicates=self.predicates, includes_null=False)

    def with_null(self) -> "AbstractPredicateSet":
        return AbstractPredicateSet(predicates=self.predicates, includes_null=True)

    # -------------------------------------------------------- point filtering
    @cached_property
    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The predicates as arrays ``(feature, low, high, symbolic, equality)``.

        A symbolic ``x_i <= [a, b)`` has ``low = a`` and ``high = b``; a
        threshold ``x_i <= τ`` or an equality ``x_i == v`` has
        ``low = high = τ`` (resp. ``v``).
        """
        predicates = self.predicates
        low = [
            p.low if isinstance(p, SymbolicThresholdPredicate)
            else p.threshold if isinstance(p, ThresholdPredicate)
            else cast(EqualityPredicate, p).value
            for p in predicates
        ]
        high = [getattr(p, "high", bound) for p, bound in zip(predicates, low)]
        return (
            np.array([p.feature for p in predicates], dtype=np.int64),
            np.array(low, dtype=np.float64),
            np.array(high, dtype=np.float64),
            np.array(
                [isinstance(p, SymbolicThresholdPredicate) for p in predicates], dtype=bool
            ),
            np.array([isinstance(p, EqualityPredicate) for p in predicates], dtype=bool),
        )

    def point_sides(self, x: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Whether ``x`` possibly satisfies / possibly falsifies each predicate.

        The three-valued semantics of ``filter#_R`` (Appendix B) as two
        boolean arrays over :attr:`predicates`: a symbolic predicate that
        evaluates to *maybe* is possibly both; a concrete one is exactly one.
        """
        features, low, high, symbolic, equality = self.arrays
        values = np.asarray(x, dtype=np.float64)[features]
        satisfied = values <= low
        if equality.any():
            satisfied[equality] = values[equality] == low[equality]
        return np.where(symbolic, ~(values >= high), satisfied), ~satisfied

    def partition_for_point(
        self, x: Sequence[float]
    ) -> Tuple[Tuple[Predicate, ...], Tuple[Predicate, ...]]:
        """Split predicates by how the test point evaluates them.

        Returns ``(Ψ_x, Ψ_¬x)``: the predicates that ``x`` possibly satisfies
        and the ones it possibly falsifies (see :meth:`point_sides`).
        """
        possibly_true, possibly_false = self.point_sides(x)
        return (
            tuple(itertools.compress(self.predicates, possibly_true.tolist())),
            tuple(itertools.compress(self.predicates, possibly_false.tolist())),
        )

    def maybe_predicates(self, x: Sequence[float]) -> Tuple[Predicate, ...]:
        """The predicates whose evaluation on ``x`` is three-valued *maybe*."""
        possibly_true, possibly_false = self.point_sides(x)
        return tuple(
            itertools.compress(self.predicates, (possibly_true & possibly_false).tolist())
        )

    # -------------------------------------------------------------- printing
    def describe(self, feature_names: Sequence[str] = ()) -> str:
        parts = [predicate.describe(feature_names) for predicate in self.predicates]
        if self.includes_null:
            parts.append("<>")
        return "{" + ", ".join(parts) + "}"
