"""Benchmark comparing Antidote against the naïve enumeration baseline (§2).

On the 13-element overview dataset both approaches decide 2-poisoning
robustness exactly/soundly, but enumeration already needs 92 retrainings; the
benchmark records how the enumeration count explodes with ``n`` while the
abstract verifier's cost stays flat — the scaling argument at the heart of
the paper.
"""

from repro.api import CertificationEngine
from repro.datasets.toy import figure2_dataset
from repro.experiments.reporting import save_artifact
from repro.utils.tables import TextTable
from repro.utils.timing import Stopwatch
from repro.verify.enumeration import count_poisoned_datasets, verify_by_enumeration


def bench_abstract_vs_enumeration_figure2(benchmark):
    dataset = figure2_dataset()
    x = [5.0]
    amounts = (1, 2, 3, 4)
    engine = CertificationEngine(max_depth=1, domain="either")

    def run_abstract():
        return [engine.certify_point(dataset, x, n) for n in amounts]

    abstract_results = benchmark.pedantic(run_abstract, rounds=3, iterations=1)

    table = TextTable(
        [
            "poisoning n",
            "datasets to enumerate",
            "enumeration time (s)",
            "enumeration robust",
            "abstract time (s)",
            "abstract status",
        ]
    )
    for n, abstract in zip(amounts, abstract_results):
        watch = Stopwatch().start()
        enumeration = verify_by_enumeration(
            dataset, x, n, max_depth=1, stop_at_first_counterexample=False
        )
        enumeration_seconds = watch.stop()
        table.add_row(
            [
                n,
                count_poisoned_datasets(len(dataset), n),
                enumeration_seconds,
                enumeration.robust,
                abstract.elapsed_seconds,
                abstract.status.value,
            ]
        )
        # Soundness cross-check: the abstract verifier never certifies a
        # configuration enumeration refutes.
        if abstract.is_certified:
            assert enumeration.robust

    save_artifact("enumeration_baseline", table.render())
    assert count_poisoned_datasets(len(dataset), 2) == 92
