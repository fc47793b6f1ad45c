"""Output checks for the benchmark's sweeps.

Every sweep's CSV (as ``harness.emit_results`` writes it) is checked row by
row. A row fails when it breaks an invariant, or differs from the bytes
expected for its configuration: the stored reference at the default seed,
otherwise the first output seen for that configuration in the run. That
second rule makes a pooled sweep's output match its serial twin's, and every
repeat of a sweep match its first run.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

MAX_ITERS = 20  # the decoder's specified iteration cap

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(sweep: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{sweep}-seed{seed}.csv"


def snr_grid(cfg) -> list[float]:
    count = int(math.floor((cfg.snr_stop - cfg.snr_start) / cfg.snr_step + 1e-9)) + 1
    return [cfg.snr_start + i * cfg.snr_step for i in range(count)]


def _float(text: str) -> float | None:
    return None if text == "" else float(text)


def row_problems(rec: dict, cfg, sweep: str, m: int, snr: float) -> list[str]:
    """Invariant violations of one parsed CSV row."""
    problems = []
    try:
        values = {key: _float(text) for key, text in rec.items()}
    except (TypeError, ValueError):
        return [f"unparsable row {rec}"]
    if values["snr_db"] is None or abs(values["snr_db"] - snr) > 1e-9:
        problems.append(f"snr_db {values['snr_db']} != {snr}")
    frames = values["frames"]
    limit = cfg.frames if sweep == "gmi" else cfg.max_frames
    if frames is None or not 1 <= frames <= limit or (sweep == "gmi" and frames != limit):
        problems.append(f"frames {frames} outside [1, {limit}]")
    gmi = values["gmi_bits"]
    if gmi is None or not 0.0 <= gmi <= m:
        problems.append(f"gmi_bits {gmi} outside [0, {m}]")
    bers = ["prefec_ber"] + (["postfec_ber"] if sweep == "ber" else [])
    for key in bers:
        if values[key] is None or not 0.0 <= values[key] <= 1.0:
            problems.append(f"{key} {values[key]} outside [0, 1]")
    iters = values["mean_iters"]
    if sweep == "ber" and (iters is None or not 0.0 <= iters <= MAX_ITERS):
        problems.append(f"mean_iters {iters} outside [0, {MAX_ITERS}]")
    if sweep == "gmi" and (values["postfec_ber"] is not None or iters is not None):
        problems.append("GMI row carries post-FEC fields")
    return problems


class OutputCheck:
    """Counts attempted and failed result rows over a run."""

    def __init__(self, columns: list[str], references: dict[int, str] | None = None):
        self.columns = columns
        self.expected: dict[int, str] = dict(references or {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def __call__(self, label: str, cfg, sweep: str, m: int, text: str) -> int:
        """Check one sweep's CSV text; returns the number of failed rows."""
        expected = self.expected.setdefault(cfg.seed, text)
        grid = snr_grid(cfg)
        lines = text.splitlines()
        want_lines = expected.splitlines()
        header_ok = lines[:1] == [",".join(self.columns)]
        body = lines[1:]
        failed = 0
        rows = max(len(body), len(grid))
        for i in range(rows):
            problems = []
            if i >= len(grid):
                problems.append("row beyond the SNR grid")
            elif i >= len(body):
                problems.append("row missing")
            else:
                rec = next(csv.DictReader(io.StringIO(lines[0] + "\n" + body[i] + "\n")))
                if not header_ok or None in rec:
                    problems.append("row does not match the CSV columns")
                else:
                    problems += row_problems(rec, cfg, sweep, m, grid[i])
            if i + 1 < len(want_lines) and (i >= len(body) or body[i] != want_lines[i + 1]):
                problems.append("bytes differ from the expected output")
            if problems:
                failed += 1
                self.problems.append(f"{label} seed {cfg.seed} row {i}: " + "; ".join(problems))
        self.attempted += rows
        self.failed += failed
        return failed
