#!/usr/bin/env python3
"""Many independent runs, one solution, zero coordination.

The LCA model's headline feature (Section 1, Definitions 2.3/2.4):
independent runs of the algorithm — sharing nothing but the input and a
read-only seed — answer queries by one solution.  This example runs
that audit as ``fleet`` cells of the scenario-matrix suite:

* 32 runs, each under its own nonce, ask the same 60 probe items, each
  run in its own random order;
* the runs are graded against Lemma 4.9 (mean pairwise agreement
  >= 1 - epsilon) and their unanimity is reported next to it;
* the same runs are repeated over 2 process shards while a third of the
  shards' first attempts are killed: a restarted stateless shard has
  nothing to restore, so its answers must come back bit-identical.

Run:  python examples/distributed_consistency.py
"""

from repro.suite import ScenarioCell, SuiteConfig, run_suite

E16 = {
    "kind": "fleet",
    "family": "efficiency_tiers",
    "n": 1500,
    "instance_seed": 5,
    "lca_seed": 31337,  # the ONLY thing the runs share besides the input
    "cap": 8000,
    "queries": 60,
    "runs": 32,
}


def main() -> None:
    config = SuiteConfig(
        name="fleet-example",
        cells=(
            ScenarioCell(id="serial-runs", **E16),
            ScenarioCell(
                id="process-shards-kill-0.33",
                executor="process",
                workers=2,
                rates=(0.0, 0.33),
                **E16,
            ),
        ),
    )
    result = run_suite(config)
    for r in result.results:
        m = r.metrics
        print(f"{r.cell.id}: {r.outcome}")
        print(f"  runs x probes:       {m['runs']} x {m['probes']}")
        print(
            f"  pairwise agreement:  {m['pairwise_agreement']:.4f} "
            f"(Lemma 4.9 floor {1 - r.cell.epsilon:.2f})"
        )
        print(
            f"  unanimity:           {m['unanimity']:.4f} "
            f"(split items: {m['split_items'] or 'none'})"
        )
        if max(m["rates"]) > 0:
            print(
                f"  kill ladder {m['rates']}: {m['kills']} first-attempt shard "
                f"kills, answers identical to rate 0: {m['crash_transparent']}"
            )
    print("suite ok" if result.ok else "suite FAILED")


if __name__ == "__main__":
    main()
