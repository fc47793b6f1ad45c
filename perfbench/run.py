#!/usr/bin/env python3
"""Benchmark of the sp8d Monte Carlo sweeps: GMI and post-FEC BER, serial
and pooled, with an optional traced run for per-layer figures.

    python3 perfbench/run.py --workload ber-serial --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; the program is imported
from ``src/`` beside this directory). The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The lines before it are a readable report. The
full result, with the run manifest, quartiles, check failures and (traced
runs) every span, goes to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from checks import OutputCheck, reference_path
from tracing import SWEEP, Tracer, batch_side, harness_totals, layer_totals, span_records

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 16     # tiny sweeps per setup_s figure; the first warms up
MIN_CYCLES = 3         # timed cycles per run, whatever --seconds says
MIN_TRACED_CYCLES = 2  # enough to see whether the traced counts repeat

GMI_SWEEP = dict(format="pb6b8d", demapper="mlm", snr_start=2.6, snr_stop=5.4,
                 snr_step=0.1, frames=4 * 8192)
BER_SWEEP = dict(format="pb6b8d", demapper="posd", p=4, snr_start=4.0, snr_stop=5.0,
                 snr_step=0.1, target_errors=100, max_frames=128,
                 ldpc="builtin:n=1800,rate=0.8333,seed=1")


@dataclass(frozen=True)
class Workload:
    sweep: str      # "gmi" or "ber"
    pooled: bool    # workers = usable cores instead of 1
    subseeds: int   # sweeps per cycle, each with its own seed derived from --seed
    params: dict    # SimConfig fields other than seed and workers


# A cycle of four sweeps with different seeds steadies two things: a BER
# sweep's amount of work, which varies with the seed through where each point
# stops, and a pooled sweep's speed, which varies with how its freshly forked
# workers get scheduled (two clusters about 20 % apart on 2 cores).
WORKLOADS = {
    "gmi-serial": Workload("gmi", False, 4, GMI_SWEEP),
    "gmi-pool": Workload("gmi", True, 4, GMI_SWEEP),
    "ber-serial": Workload("ber", False, 4, BER_SWEEP),
    "ber-pool": Workload("ber", True, 4, BER_SWEEP),
}

END_TO_END = {
    "sym_per_s": "1/s", "coded_bits_per_s": "1/s", "wall_s": "s", "cpu_s": "s",
    "setup_s": "s", "peak_rss_mib": "MiB",
}

# Per-layer figures reported by a traced run, by layer function.
LAYER_FIGURES = {
    "demap.demap_mlm_batch": ("busy_s", "symbols", "sym_per_s"),
    "demap.demap_posd_batch": ("busy_s", "symbols", "sym_per_s"),
    "demap.count_ops": ("calls", "busy_s"),
    "fec.ldpc_decode_ms_batch": ("busy_s", "frames", "frames_per_s", "iterations",
                                 "mean_iters", "nonconverged_frames"),
    "fec.ldpc_encode_batch": ("busy_s", "frames"),
    "fec.make_regular_code": ("calls", "busy_s"),
    "channel.substream": ("calls", "busy_s"),
    "channel.observations": ("busy_s", "samples"),
    "modem.build_codebook": ("calls", "busy_s"),
    "beq.load_format": ("calls", "busy_s"),
}
FIGURE_UNITS = {
    "busy_s": "s", "calls": "count", "symbols": "count", "sym_per_s": "1/s",
    "frames": "count", "frames_per_s": "1/s", "iterations": "count",
    "mean_iters": "iter/frame", "nonconverged_frames": "count", "samples": "count",
}
HARNESS_UNITS = {
    "harness.self_s": "s", "harness.batches_dispatched": "count",
    "harness.batches_used": "count", "harness.useful_batch_ratio": "ratio",
    "harness.pool_wait_s": "s",
}
TRACE_UNITS = {"trace.other_layers_s": "s", "trace.wall_s": "s",
               "trace.untraced_wall_s": "s", "trace.overhead_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {f"{fn}.{fig}": FIGURE_UNITS[fig]
             for fn, figs in LAYER_FIGURES.items() for fig in figs}
    return {**units, **HARNESS_UNITS, **TRACE_UNITS}


class ProgramMissing(RuntimeError):
    """The sp8d sources are not where the benchmark expects them."""


def load_program():
    """Import sp8d from ``src/`` beside the benchmark; returns (harness, beq)."""
    if not (SRC / "sp8d" / "harness.py").is_file():
        raise ProgramMissing(f"no sp8d sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sp8d
    from sp8d import beq, harness
    if not Path(sp8d.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"imported sp8d from {sp8d.__file__}, not from {SRC}")
    return harness, beq


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def subseeds(workload: Workload, seed: int) -> list[int]:
    return [seed * workload.subseeds + i for i in range(workload.subseeds)]


def sweep_configs(harness, workload: Workload, seed: int, pooled: bool) -> list:
    workers = usable_cores() if pooled else 1
    return [harness.SimConfig(**workload.params, seed=s, workers=workers)
            for s in subseeds(workload, seed)]


def setup_config(cfg):
    """The same sweep shrunk to one SNR point and one frame."""
    return replace(cfg, snr_stop=cfg.snr_start, frames=1, max_frames=1)


def _cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Bench:
    """One workload at one seed: runs sweeps, checks them, keeps the figures."""

    def __init__(self, harness, beq, name: str, seed: int, check: OutputCheck):
        self.harness = harness
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.check = check
        params = self.workload.params
        spec = beq.load_format(params["format"])
        self.m = spec.m
        if self.workload.sweep == "gmi":
            self.run_fn = harness.run_gmi_sweep
            self.symbols_per_frame, self.bits_per_frame = 1, spec.n
        else:
            self.run_fn = harness.run_ber_sweep
            code_n = harness.parse_ldpc_source(params["ldpc"])["n"]
            self.symbols_per_frame, self.bits_per_frame = -(-code_n // spec.m), code_n
        self.csv_dir = OUT / "csv"
        self.csv_dir.mkdir(parents=True, exist_ok=True)

    def configs(self, pooled: bool | None = None) -> list:
        pooled = self.workload.pooled if pooled is None else pooled
        return sweep_configs(self.harness, self.workload, self.seed, pooled)

    def sweep(self, cfg, label: str, tracer: Tracer | None = None) -> dict:
        """Run, time and check one sweep."""
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        span = tracer.open(SWEEP) if tracer else None
        try:
            rows = self.run_fn(cfg)
        finally:
            if tracer:
                tracer.close(span)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        path = self.csv_dir / f"{label}-seed{cfg.seed}.csv"
        self.harness.emit_results(rows, str(path))
        self.check(label, cfg, self.workload.sweep, self.m, path.read_text(encoding="utf-8"))
        frames = sum(r.frames for r in rows)
        return {"wall": wall, "cpu": cpu, "symbols": frames * self.symbols_per_frame,
                "bits": frames * self.bits_per_frame}

    def cycle(self, configs, label: str, traced: bool = False) -> dict:
        """One sweep per derived seed; totals over the cycle."""
        tracer = Tracer(self.harness) if traced else None
        with tracer or contextlib.nullcontext():
            sweeps = [self.sweep(cfg, label, tracer) for cfg in configs]
        totals = {key: sum(s[key] for s in sweeps) for key in sweeps[0]}
        totals["tracer"] = tracer
        return totals

    def cycles(self, configs, label: str, seconds: float, min_cycles: int,
               traced: bool = False) -> list[dict]:
        """Repeat cycles until the next would end past ``seconds``."""
        done = []
        deadline = time.perf_counter() + seconds
        while True:
            done.append(self.cycle(configs, label, traced))
            typical = statistics.median(c["wall"] for c in done)
            if len(done) >= min_cycles and time.perf_counter() + typical > deadline:
                return done

    def setup_seconds(self) -> list[float]:
        cfg = setup_config(self.configs()[0])
        walls = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.run_fn(cfg)
            walls.append(time.perf_counter() - t0)
        return walls[1:]


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup = bench.setup_seconds()
    k = bench.workload.subseeds
    timed = bench.cycles(bench.configs(), bench.name, seconds, MIN_CYCLES)
    if bench.workload.pooled:
        bench.cycle(bench.configs(pooled=False), f"{bench.name}-twin")
    rss_kib = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    samples = {
        "sym_per_s": [c["symbols"] / c["wall"] for c in timed],
        "coded_bits_per_s": [c["bits"] / c["wall"] for c in timed],
        "wall_s": [c["wall"] / k for c in timed],
        "cpu_s": [c["cpu"] / k for c in timed],
        "setup_s": setup,
        "peak_rss_mib": [rss_kib / 1024.0],
    }
    return {name: {**summarize(samples[name]), "unit": END_TO_END[name]} for name in END_TO_END}


def _median_cycle(cycles: list[dict]) -> dict:
    return sorted(cycles, key=lambda c: c["wall"])[(len(cycles) - 1) // 2]


def _cycle_counts(cycle: dict) -> dict:
    spans = cycle["tracer"].spans
    counts = {}
    for fn, entry in layer_totals(spans).items():
        counts.update({f"{fn}.{key}": v for key, v in entry.items() if key != "busy_s"})
    totals = harness_totals(spans, cycle["wall"])
    counts["harness.batches_dispatched"] = totals["batches_dispatched"]
    counts["harness.batches_used"] = totals["batches_used"]
    return counts


def nonrepeating_counts(cycles: list[dict]) -> list[str]:
    """Names of traced counts that differ between cycles of the same sweeps."""
    per_cycle = [_cycle_counts(c) for c in cycles]
    names = set().union(*per_cycle)
    return sorted(n for n in names if len({c.get(n) for c in per_cycle}) > 1)


def layer_figures(spans_layers: list, harness_spans: list, wall: float,
                  untraced_wall: float) -> dict:
    totals = layer_totals(spans_layers)
    figures = {}
    for fn, figs in LAYER_FIGURES.items():
        entry = totals.get(fn, {})
        entry.setdefault("busy_s", 0.0)
        busy = entry["busy_s"]
        derived = {
            "sym_per_s": entry.get("symbols", 0) / busy if busy else 0.0,
            "frames_per_s": entry.get("frames", 0) / busy if busy else 0.0,
            "mean_iters": (entry.get("iterations", 0) / entry["frames"]
                           if entry.get("frames") else 0.0),
        }
        for fig in figs:
            figures[f"{fn}.{fig}"] = derived[fig] if fig in derived else entry.get(fig, 0)
    reported = {fn for fn, figs in LAYER_FIGURES.items() if "busy_s" in figs}
    figures["trace.other_layers_s"] = sum(
        entry["busy_s"] for fn, entry in totals.items() if fn not in reported)
    harness = harness_totals(harness_spans, wall)
    figures.update({f"harness.{key}": value for key, value in harness.items()})
    figures["trace.wall_s"] = wall
    figures["trace.untraced_wall_s"] = untraced_wall
    figures["trace.overhead_s"] = wall - untraced_wall
    units = per_layer_units()
    return {name: {"value": figures[name], "unit": units[name]} for name in units}


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Traced run; returns (per-layer metrics, details for the result file)."""
    configs = bench.configs()
    untraced = bench.cycles(configs, bench.name, seconds / 2, 1)
    traced = bench.cycles(configs, bench.name, seconds / 2, MIN_TRACED_CYCLES, traced=True)
    untraced_wall = statistics.median(c["wall"] for c in untraced)
    main = _median_cycle(traced)
    spans = main["tracer"].spans
    phases = {bench.name: traced}
    if bench.workload.pooled:
        # Pool workers' spans are lost; their batches equal the serial twin's.
        twin = bench.cycles(bench.configs(pooled=False), f"{bench.name}-twin", 0,
                            MIN_TRACED_CYCLES, traced=True)
        phases[f"{bench.name}-twin"] = twin
        layers = spans + batch_side(_median_cycle(twin)["tracer"].spans)
    else:
        layers = spans
    metrics = layer_figures(layers, spans, main["wall"], untraced_wall)
    details = {
        "nonrepeating_counts": {p: nonrepeating_counts(c) for p, c in phases.items()},
        "missing_hooks": main["tracer"].missing,
        "cycle_walls": {p: [c["wall"] for c in cs] for p, cs in phases.items()},
        "untraced_cycle_walls": [c["wall"] for c in untraced],
        "spans": {p: [span_records(c["tracer"].spans, c["tracer"].spans[0].start)
                      for c in cs] for p, cs in phases.items()},
    }
    return metrics, details


# ---------------------------------------------------------------------------
# Manifest and report
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".fmt"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def manifest(seed: int, workload: Workload) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    blas_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": usable_cores(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_env": {k: os.environ.get(k) for k in blas_env},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "subseeds": subseeds(workload, seed),
    }


def report_lines(name: str, seed: int, summary: dict, check: OutputCheck) -> list[str]:
    lines = [f"workload {name}  seed {seed}  sub-seeds {subseeds(WORKLOADS[name], seed)}"]
    for metric, s in summary.items():
        spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['samples']}" if "q1" in s else ""
        lines.append(f"  {metric:40s} {s['value']:.6g} {s['unit']}{spread}")
    lines.append(f"  {'error_rate':40s} {check.error_rate:.6g} ratio "
                 f"({check.failed} of {check.attempted} result rows failed)")
    lines += [f"  check failed: {p}" for p in check.problems[:20]]
    return lines


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full result (see the module docstring)."""
    harness, beq = load_program()
    workload = WORKLOADS[name]
    references = {}
    if seed == DEFAULT_SEED:
        for s in subseeds(workload, seed):
            references[s] = reference_path(workload.sweep, s).read_text(encoding="utf-8")
    check = OutputCheck(harness.CSV_COLUMNS, references)
    bench = Bench(harness, beq, name, seed, check)
    details = {}
    if trace:
        summary, details = per_layer(bench, seconds)
    else:
        summary = end_to_end(bench, seconds)
    result = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "configs": [asdict(c) for c in bench.configs()],
        "manifest": manifest(seed, workload),
        "summary": summary,
        "error_rate": check.error_rate,
        "attempted": check.attempted, "failed": check.failed,
        "problems": check.problems,
        **details,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    result["report"] = report_lines(name, seed, summary, check)
    result["report"].append(f"result file: {os.path.relpath(result_path)}")
    for phase, names in details.get("nonrepeating_counts", {}).items():
        if names:
            result["report"].append(f"  counts that did not repeat in {phase}: {names}")
    return result


def contract_line(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["summary"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(result["report"]))
    print(json.dumps(contract_line(result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
