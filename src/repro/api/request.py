"""Certification requests: *what* to certify, decoupled from *how*.

A :class:`CertificationRequest` bundles the three ingredients of a
certification problem — the (trusted-as-observed) training set, the test
point(s) whose predictions should be proven stable, and a first-class
:class:`~repro.poisoning.models.PerturbationModel` describing what the
attacker may have done to the training data.  The request is purely
declarative; :class:`repro.api.engine.CertificationEngine` decides which
abstract domain, budgets, and parallelism to use when solving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.core.dataset import Dataset
from repro.poisoning.models import (
    PerturbationModel,
    RemovalPoisoningModel,
    resolve_model_classes,
)
from repro.utils.validation import ValidationError, check_finite_points

#: Anything accepted where a threat model is expected: a model instance, or a
#: bare integer which is interpreted as the paper's ``Δn`` removal model.
ModelLike = Union[PerturbationModel, int]


def as_perturbation_model(model: ModelLike) -> PerturbationModel:
    """Coerce a threat-model argument into a :class:`PerturbationModel`.

    Bare integers keep the paper's (and the legacy API's) shorthand working:
    ``n`` means "up to ``n`` training elements were contributed by the
    attacker", i.e. :class:`RemovalPoisoningModel`.
    """
    if isinstance(model, PerturbationModel):
        return model
    if isinstance(model, bool):
        raise ValidationError(f"threat model must be a PerturbationModel or int, got {model!r}")
    if isinstance(model, (int, np.integer)):
        return RemovalPoisoningModel(int(model))
    raise ValidationError(
        f"threat model must be a PerturbationModel or int, got {type(model).__name__}"
    )


@dataclass(frozen=True, eq=False)
class CertificationRequest:
    """One certification problem: dataset × test point(s) × threat model.

    Attributes
    ----------
    dataset:
        The observed training set ``T``.
    points:
        Test points as a ``(k, n_features)`` matrix.  A single 1-D point is
        accepted and normalized to a one-row matrix.
    model:
        The perturbation family ``Δ(T)`` to certify against
        (:class:`RemovalPoisoningModel`, :class:`FractionalRemovalModel`,
        :class:`LabelFlipModel`, or :class:`CompositePoisoningModel`).
        Class-count-dependent models (label flips, composite) are resolved
        against ``dataset.n_classes`` here; a model declaring a contradictory
        ``n_classes`` is rejected at construction.
    """

    dataset: Dataset
    points: np.ndarray
    model: PerturbationModel

    def __post_init__(self) -> None:
        # Copy (never alias) the caller's array: the request freezes its
        # points, and freezing a borrowed array would mutate caller state.
        points = np.array(self.points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.ndim != 2:
            raise ValidationError(f"points must be 1-D or 2-D, got shape {points.shape}")
        if points.size and points.shape[1] != self.dataset.n_features:
            raise ValidationError(
                f"points have {points.shape[1]} features but the dataset has "
                f"{self.dataset.n_features}"
            )
        check_finite_points(points)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(
            self,
            "model",
            resolve_model_classes(
                as_perturbation_model(self.model), self.dataset.n_classes
            ),
        )

    @classmethod
    def single(
        cls, dataset: Dataset, x: Sequence[float], model: ModelLike
    ) -> "CertificationRequest":
        """A request for one test point."""
        return cls(dataset, np.asarray(x, dtype=float), as_perturbation_model(model))

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def budget(self) -> int:
        """The model's integer budget resolved against this training set."""
        return self.model.resolve_budget(len(self.dataset))

    def describe(self) -> str:
        return (
            f"certify {self.n_points} point(s) of {self.dataset.name!r} "
            f"(|T|={len(self.dataset)}) against {self.model.describe()}"
        )
