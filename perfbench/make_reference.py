#!/usr/bin/env python3
"""Write the reference CSVs the benchmark compares its default-seed outputs to.

    python3 perfbench/make_reference.py

Run it only when a change to specified behaviour alters the sweep outputs
on purpose, and say so in the change.
"""

from run import DEFAULT_SEED, WORKLOADS, load_program, sweep_configs
from checks import REFERENCE_DIR, reference_path


def main() -> None:
    harness, _ = load_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    sweeps = {w.sweep: w for w in WORKLOADS.values() if not w.pooled}
    for sweep, workload in sorted(sweeps.items()):
        run_fn = harness.run_gmi_sweep if sweep == "gmi" else harness.run_ber_sweep
        for cfg in sweep_configs(harness, workload, DEFAULT_SEED, pooled=False):
            path = reference_path(sweep, cfg.seed)
            harness.emit_results(run_fn(cfg), str(path))
            print(path)


if __name__ == "__main__":
    main()
