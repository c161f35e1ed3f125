"""Convergence harnesses: spatial spectral decay and temporal order.

Spatial: integrate a forced exact solution on a ladder of grids at a small
fixed dt, so the measured error is dominated by spatial truncation on the
coarse grid and collapses to the temporal floor once the grid resolves every
mode the dynamics produces.  Temporal: fix the finest grid and halve dt; the
error ratio estimates the scheme order (4 for the two-step second-order
scheme, 16 for the four-stage fourth-order one).

A deliberately non-smooth contrast profile (|sin|, kinked) is reported
alongside: its spectral tail decays only algebraically, so its truncation
error shrinks slowly compared to the machine-floor collapse of the smooth
case.  The contrast rows are informational, never asserted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fields import Field3D, rfftn_norm
from .grid import Grid
from .manufactured import ManufacturedSolution, get_case
from .norms import parseval_sum
from .params import PhysParams
from .stepper import StepConfig, run

SPATIAL_RESOLUTIONS = (16, 24, 32)
TEMPORAL_DTS = (2e-4, 1e-4, 5e-5)

# dt pair used for each scheme's order estimate: the second-order scheme is
# measured on the two smallest steps; the fourth-order one on the two largest,
# where its error is still far above the accumulation floor of ~1000 steps of
# roundoff.
ORDER_PAIRS = {
    "imex_cnab2": (1e-4, 5e-5),
    "erk4_fully_explicit": (2e-4, 1e-4),
}
ORDER_WINDOWS = {
    "imex_cnab2": (3.2, 4.8),
    "erk4_fully_explicit": (12.0, 20.0),
}


@dataclass(frozen=True)
class SuiteRow:
    suite: str
    name: str
    value: float
    target: str
    passed: bool | None   # None = informational row

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "value": self.value,
            "target": self.target,
            "passed": self.passed,
        }


@dataclass
class ConvergenceReport:
    rows: list = field(default_factory=list)
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)


def _solve_error(case_name: str, n: int, dt: float, t_end: float, scheme: str) -> float:
    params = PhysParams()
    grid = Grid(n, n, n, params.p0, params.p1)
    ms = ManufacturedSolution(get_case(case_name), grid, params)
    cfg = StepConfig(dt=dt, t_end=t_end, scheme=scheme)
    traj = run(ms.initial_state(), params, cfg, forcing=ms.forcing, record_every=10 ** 9)
    return ms.error(traj.final_state)


def spatial_study(case_name: str = "gentle",
                  resolutions=SPATIAL_RESOLUTIONS,
                  dt: float = 2e-5,
                  t_end: float = 0.02) -> dict:
    errors = {n: _solve_error(case_name, n, dt, t_end, "imex_cnab2")
              for n in resolutions}
    return {"case": case_name, "dt": dt, "t_end": t_end, "errors": errors}


def temporal_study(case_name: str = "brisk",
                   n: int = 32,
                   dts=TEMPORAL_DTS,
                   t_end: float = 0.05,
                   schemes=("imex_cnab2", "erk4_fully_explicit")) -> dict:
    out = {}
    for scheme in schemes:
        out[scheme] = {dt: _solve_error(case_name, n, dt, t_end, scheme)
                       for dt in dts}
    return {"case": case_name, "n": n, "t_end": t_end, "errors": out}


def contrast_profile_decay(resolutions=SPATIAL_RESOLUTIONS) -> dict:
    """Relative spectral-tail energy of a kinked |sin| profile per resolution.

    The dealiased ball of an n-point axis keeps |j| <= (n - 1)//3
    (grid.ball); a profile with a derivative kink has coefficient decay
    ~ j^-2, so the discarded tail shrinks like n^-3 instead of collapsing
    spectrally.
    """
    out = {}
    p_ref = PhysParams()
    for n in resolutions:
        grid = Grid(n, n, n, p_ref.p0, p_ref.p1)
        f = Field3D.from_function(grid, lambda x, y, p: np.abs(np.sin(2.0 * np.pi * x)) + 0.0 * y + 0.0 * p)
        C = rfftn_norm(grid, f.data)
        total = float(parseval_sum(grid, C))
        kept = float(parseval_sum(grid, C, grid.dealias_mask))
        out[n] = (total - kept) / total
    return out


def suite(spatial: dict | None = None,
          temporal: dict | None = None) -> ConvergenceReport:
    """Run the full convergence battery and grade it.

    Precomputed study results can be injected through spatial/temporal (each
    in the shape the matching study function returns, with the 16 and 32
    resolutions present) so the grading can be driven without redoing the
    integrations.
    """
    t_start = time.perf_counter()
    rows: list[SuiteRow] = []

    if spatial is None:
        spatial = spatial_study()
    errs = spatial["errors"]
    for n in sorted(errs):
        rows.append(SuiteRow("spatial", f"error_n{n}", errs[n], "", None))
    drop = errs[16] / errs[32] if errs[32] > 0 else np.inf
    rows.append(SuiteRow("spatial", "error_drop_16_to_32", drop, ">= 100", drop >= 100.0))

    if temporal is None:
        temporal = temporal_study()
    for scheme, errors in temporal["errors"].items():
        for dt, err in errors.items():
            rows.append(SuiteRow("temporal", f"{scheme}_dt{dt:g}", err, "", None))
        coarse, fine = ORDER_PAIRS[scheme]
        lo, hi = ORDER_WINDOWS[scheme]
        ratio = errors[coarse] / errors[fine] if errors[fine] > 0 else np.inf
        rows.append(SuiteRow(
            "temporal", f"{scheme}_halving_ratio", ratio,
            f"[{lo}, {hi}]", bool(lo <= ratio <= hi)))

    for n, tail in contrast_profile_decay().items():
        rows.append(SuiteRow("contrast", f"kinked_profile_tail_n{n}", tail,
                             "informational", None))

    report = ConvergenceReport(rows=rows)
    report.runtime = time.perf_counter() - t_start
    return report
