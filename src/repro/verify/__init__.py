"""The Antidote-style verifier: abstract learners and robustness certification.

* :mod:`repro.verify.transformers` — the abstract transformers of §4.4–4.6
  (``cprob#``, ``ent#``, ``score#``, ``filter#``, ``bestSplit#``, ``pure``).
* :mod:`repro.verify.abstract_learner` — ``DTrace#`` on the base (Box) domain.
* :mod:`repro.verify.disjunctive_learner` — ``DTrace#`` on the disjunctive
  domain of §5.2.
* :mod:`repro.verify.result` — the per-point verdict types (Corollary 4.12's
  outcome, plus timeouts and resource limits); certification itself runs
  through :class:`repro.api.CertificationEngine`.
* :mod:`repro.verify.enumeration` — the naïve enumeration baseline of §2.
* :mod:`repro.verify.search` — the poisoning-amount search protocol of §6.1.
"""

from repro.verify.abstract_learner import AbstractRunResult, BoxAbstractLearner
from repro.verify.disjunctive_learner import DisjunctiveAbstractLearner
from repro.verify.enumeration import EnumerationResult, verify_by_enumeration
from repro.verify.result import VerificationResult, VerificationStatus
from repro.verify.search import (
    ParetoFrontierResult,
    PoisoningSearchResult,
    max_certified_poisoning,
    pareto_frontier,
    pareto_sweep,
    robustness_sweep,
)

__all__ = [
    "AbstractRunResult",
    "BoxAbstractLearner",
    "DisjunctiveAbstractLearner",
    "EnumerationResult",
    "verify_by_enumeration",
    "ParetoFrontierResult",
    "PoisoningSearchResult",
    "VerificationResult",
    "VerificationStatus",
    "max_certified_poisoning",
    "pareto_frontier",
    "pareto_sweep",
    "robustness_sweep",
]
