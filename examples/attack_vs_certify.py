"""Scenario: measuring the gap between certification and concrete attacks.

Antidote is sound but incomplete: "not certified" does not mean "attackable".
This example quantifies that gap on the Mammographic-Masses-like benchmark by
classifying each test point at a given poisoning budget into three buckets:

* **certified** — the abstract verifier proves the prediction cannot change;
* **attacked** — a concrete removal attack flips the prediction (a proof of
  non-robustness);
* **undetermined** — neither succeeds (the interesting middle ground; the
  paper's precision/efficiency trade-off lives here).

It also reports how the buckets shift between the Box and disjunctive
domains, mirroring the §6.3 discussion.

Run with:  python examples/attack_vs_certify.py
"""

from __future__ import annotations

import argparse

from repro import (
    CertificationEngine,
    greedy_removal_attack,
    load_dataset,
    random_removal_attack,
)
from repro.utils.tables import TextTable


def classify_points(split, domain: str, budget: int, depth: int, count: int, seed: int):
    engine = CertificationEngine(max_depth=depth, domain=domain, timeout_seconds=30.0)
    buckets = {"certified": 0, "attacked": 0, "undetermined": 0}
    for index in range(count):
        x = split.test.X[index]
        result = engine.certify_point(split.train, x, budget)
        if result.is_certified:
            buckets["certified"] += 1
            continue
        attack = greedy_removal_attack(split.train, x, budget, max_depth=depth, rng=seed)
        if not attack.success:
            attack = random_removal_attack(
                split.train, x, budget, trials=50, max_depth=depth, rng=seed
            )
        buckets["attacked" if attack.success else "undetermined"] += 1
    return buckets


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--budget", type=int, default=2, help="poisoning budget n")
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    split = load_dataset("mammography", scale=args.scale, seed=args.seed)
    print(split.describe())
    count = min(args.points, len(split.test))
    print(f"Auditing {count} test points at poisoning budget n={args.budget}\n")

    table = TextTable(["domain", "certified", "attacked", "undetermined"])
    for domain in ("box", "disjuncts"):
        buckets = classify_points(
            split, domain, args.budget, args.depth, count, args.seed
        )
        table.add_row([domain, buckets["certified"], buckets["attacked"], buckets["undetermined"]])
    print(table.render())
    print(
        "\nPoints in the 'undetermined' column are where a more precise domain "
        "(or a better attack) would settle the question — the same trade-off "
        "the paper explores with its disjunctive abstraction."
    )


if __name__ == "__main__":
    main()
