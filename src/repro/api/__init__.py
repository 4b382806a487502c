"""The unified certification API.

This subsystem decouples *what* to certify from *how* to certify it:

* :class:`~repro.api.request.CertificationRequest` — a declarative problem
  statement: dataset × test point(s) × a first-class
  :class:`~repro.poisoning.models.PerturbationModel` threat model;
* :class:`~repro.api.engine.CertificationEngine` — the solver: constructed
  once, reused across points, dispatching every threat model through a single
  ``verify(request)`` entry point, with process-pool batching
  (``n_jobs=N``) and order-preserving streaming;
* :class:`~repro.api.report.CertificationReport` — the aggregate result:
  per-status counts, timing percentiles, JSON/CSV export.

The CLI, the experiment harness, the examples, and the benchmarks all run on
this API; it is the one certification path.
"""

from repro.api.engine import (
    FLIP_DISJUNCTS_DOMAIN,
    FLIP_DOMAIN,
    CertificationEngine,
)
from repro.api.report import SCHEMA_VERSION, CertificationReport
from repro.api.request import CertificationRequest, ModelLike, as_perturbation_model
from repro.api.scheduler import (
    BatchSubmission,
    CertificationScheduler,
    SchedulerStats,
)

__all__ = [
    "BatchSubmission",
    "CertificationEngine",
    "CertificationReport",
    "CertificationRequest",
    "CertificationScheduler",
    "FLIP_DISJUNCTS_DOMAIN",
    "FLIP_DOMAIN",
    "ModelLike",
    "SCHEMA_VERSION",
    "SchedulerStats",
    "as_perturbation_model",
]
