"""Machine-readable run outputs.

Norm series go out as NDJSON (one report object per line, keys fixed by
NormReport plus the budget residual and the state checksum) with a CSV
mirror written next to the NDJSON file for plotting.  The energy-budget residual column is filled in
after the run from the centered-difference budget, which needs both
neighbors of a sample; samples without a defined value carry null (empty in
CSV).
"""

from __future__ import annotations

import csv
import json
import os

from .errors import SamplingError
from .monitors import energy_budget, uniform_prefix


def budget_residual_by_time(samples) -> dict:
    """t -> max over variables of |budget residual| at that sample, when defined.

    The centered difference needs uniform spacing, so only the leading
    samples spaced like the first two (monitors.uniform_prefix) enter, and
    none when they are fewer than energy_budget needs.  A run always
    records its final step, so when output.norms_every does not divide the
    step count the last sample is off that grid and is left out.
    """
    have = [s for s in samples if s.budget is not None]
    n = uniform_prefix([s.t for s in have])
    out: dict[float, float] = {}
    try:
        for row in energy_budget(have[:n]):
            out[row.t] = max(out.get(row.t, 0.0), abs(row.residual))
    except SamplingError:  # a uniform prefix too short to reach past the startup
        pass
    return out


def norm_rows(samples) -> list[dict]:
    """NormReport dicts with the back-filled budget residual and the
    checksum after their fields, in that order."""
    residuals = budget_residual_by_time(samples)
    rows = []
    for s in samples:
        row = s.report.to_dict()
        row["budget_residual"] = residuals.get(s.t)
        row["checksum"] = s.checksum
        rows.append(row)
    return rows


def write_norms(path: str, samples) -> None:
    """NDJSON at path plus a CSV mirror with swapped extension."""
    rows = norm_rows(samples)
    write_rows(path, rows)
    write_norms_csv(csv_mirror_path(path), rows)


def csv_mirror_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    if ext.lower() == ".csv":
        return root + "_mirror.csv"
    return root + ".csv"


def write_norms_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        return
    names = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow(["" if row[n] is None else row[n] for n in names])


def read_norms(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_rows(path: str, rows: list[dict]) -> None:
    """Generic NDJSON writer for probe and verification reports."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
