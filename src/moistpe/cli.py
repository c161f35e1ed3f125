"""Command-line entry point: run, verify, probe.

Exit codes: 0 success, 1 configuration or usage error, 2 blowup during a
run, 3 verification or probe failure.  The only environment variable
honored is MOISTPE_THREADS (transform worker count); everything else comes
from the config file and flags.
"""

from __future__ import annotations

import argparse
import os
import sys
import zipfile

import numpy as np

from . import checkpoint as checkpoint_mod
from . import config as config_mod
from . import convergence, output, probes
from .errors import BlowupError, ConfigError, DataError, ParameterError, SimulationError
from .initial import random_smooth, rest
from .manufactured import ManufacturedSolution, get_case
from .model import FAITHFUL
from .stepper import run as run_trajectory

CONFIG_ERRORS = (ConfigError, ParameterError, DataError)

MUTATIONS = {
    "none": FAITHFUL,
    "coriolis": FAITHFUL.with_(coriolis_bug=True),
    "no-dealias": FAITHFUL.with_(dealias=False),
}

PROBE_KINDS = ("trilinear", "minkowski", "gronwall")


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _seed_kwargs(args) -> dict:
    """Forward --seed only when given, so each probe keeps its own default."""
    return {} if args.seed is None else {"seed": args.seed}


# --- run --------------------------------------------------------------------


def _load_numpy(key: str, path: str):
    """np.load of the file a config key names; unreadable content is a ConfigError."""
    try:
        return np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{key}: cannot read {path!r} as a NumPy file: {exc}") from exc


def _real_array(key: str, what: str, arr: np.ndarray) -> np.ndarray:
    """arr as float64; an array of strings, complex numbers or objects, or
    one with non-finite values, is a ConfigError."""
    if arr.dtype.kind not in "biuf":
        raise ConfigError(f"{key}: {what} has dtype {arr.dtype}, expected real numbers")
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key}: {what} holds non-finite values")
    return arr


def _load_phi_s(cfg, grid):
    if cfg.phi_s == "zero":
        return None
    path = cfg.phi_s.partition(":")[2]
    arr = _load_numpy("physics.phi_s", path)
    if not isinstance(arr, np.ndarray):
        raise ConfigError(f"physics.phi_s: {path!r} is an archive, expected one .npy array")
    if arr.shape != (grid.nx, grid.ny):
        raise ConfigError(
            f"physics.phi_s: array at {path!r} has shape {arr.shape}, "
            f"expected {(grid.nx, grid.ny)}")
    return _real_array("physics.phi_s", f"array at {path!r}", arr)


def _build_initial(cfg, grid, seed_override):
    kind, args = config_mod.parse_initial_kind(cfg.initial_kind)
    if kind == "rest":
        state = rest(grid)
    elif kind == "random_smooth":
        seed = seed_override if seed_override is not None else args["seed"]
        symmetry = "mirror" if cfg.initial_symmetry == "paper_parity" else "none"
        state = random_smooth(grid, seed, amplitude=args["amplitude"],
                              band=args["band"], symmetry=symmetry)
    else:
        _, state = checkpoint_mod.read_checkpoint(args["path"])
        ck = state.grid
        if ck != grid:
            raise ConfigError(
                f"initial.kind: checkpoint grid ({ck.nx}, {ck.ny}, {ck.np}) and pressure "
                f"bounds ({ck.p0}, {ck.p1}) disagree with the grid and domain sections "
                f"({grid.nx}, {grid.ny}, {grid.np}) and ({grid.p0}, {grid.p1})")
    if state.t == 0.0 and cfg.t0 != 0.0:
        state = state.with_time(cfg.t0)
    return state


def _build_forcing(cfg, grid, params):
    kind, arg = config_mod.parse_forcing_kind(cfg.forcing_kind)
    if kind == "zero":
        return None
    if kind == "manufactured":
        ms = ManufacturedSolution(get_case(arg), grid, params)
        return ms.forcing
    data = _load_numpy("forcing.kind", arg)
    needed = ("fv1", "fv2", "ftheta", "fq")
    missing = [k for k in needed if k not in data]
    if missing:
        raise ConfigError(f"forcing.kind: file {arg!r} lacks arrays {missing}")
    from .fields import rfftn_norm
    arrays = []
    for k in needed:
        arr = data[k]
        if arr.shape != grid.shape:
            raise ConfigError(
                f"forcing.kind: array {k} has shape {arr.shape}, expected {grid.shape}")
        arrays.append(_real_array("forcing.kind", f"array {k} of {arg!r}", arr))
    static = rfftn_norm(grid, np.stack(arrays))
    static.flags.writeable = False

    def forcing(t):
        return static

    return forcing


def _check_output_dir(key: str, path: str) -> None:
    """The directory an output file goes into must exist before the run
    starts, not be found missing when the run is over."""
    if path == "none":
        return
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigError(f"{key}: directory {folder!r} of {path!r} does not exist")


def cmd_run(args) -> int:
    if args.config is None:
        print("run: --config is required", file=sys.stderr)
        return 1
    try:
        cfg = config_mod.load(args.config)
        if args.out is not None:
            cfg = cfg.with_(norms_path=args.out)
        _check_output_dir("output.norms_path", cfg.norms_path)
        _check_output_dir("output.checkpoint_path", cfg.checkpoint_path)
        grid = config_mod.build_grid(cfg)
        params = config_mod.build_params(cfg, phi_s=_load_phi_s(cfg, grid))
        step_cfg = config_mod.build_step_config(cfg)
        state = _build_initial(cfg, grid, args.seed)
        forcing = _build_forcing(cfg, grid, params)
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    ck_counter = {"n": 0}

    def on_sample(s, sample):
        if cfg.checkpoint_path != "none" and cfg.checkpoint_every > 0:
            ck_counter["n"] += 1
            if ck_counter["n"] % cfg.checkpoint_every == 0:
                checkpoint_mod.write_checkpoint(cfg.checkpoint_path, s, cfg)

    want_norms = cfg.norms_path != "none"
    traj = run_trajectory(
        state, params, step_cfg, forcing=forcing,
        record_every=cfg.norms_every,
        on_sample=on_sample,
        collect_budget=want_norms,
    )

    if want_norms:
        output.write_norms(cfg.norms_path, traj.samples)
        _say(args.quiet, f"norms: {cfg.norms_path} "
             f"(+ {output.csv_mirror_path(cfg.norms_path)})")
    # a diverged state is never written: the last rolling checkpoint stays
    if cfg.checkpoint_path != "none" and traj.completed:
        checkpoint_mod.write_checkpoint(cfg.checkpoint_path, traj.final_state, cfg)
        _say(args.quiet, f"checkpoint: {cfg.checkpoint_path}")

    if not traj.completed:
        print(f"blowup at t = {traj.blowup_time:.6g} {traj.blowup_detail}", file=sys.stderr)
        return 2
    last = traj.samples[-1].report
    _say(args.quiet,
         f"completed t = {last.t:g}  ||v||_H1 = {last.h1_v:.6g}  "
         f"||theta|| = {last.l2_theta:.6g}  ||q|| = {last.l2_q:.6g}")
    return 0


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not suites:
        print("verify: empty suite selection", file=sys.stderr)
        return 1
    known = {"convergence", "invariants"}
    unknown = [s for s in suites if s not in known]
    if unknown:
        print(f"verify: unknown suite(s) {unknown}; choose from {sorted(known)}",
              file=sys.stderr)
        return 1
    if args.mutate not in MUTATIONS:
        print(f"verify: unknown mutation {args.mutate!r}; choose from "
              f"{sorted(MUTATIONS)}", file=sys.stderr)
        return 1
    variant = MUTATIONS[args.mutate]

    rows = []
    failed = False

    if "invariants" in suites:
        checks = probes.invariants_run(variant=variant, **_seed_kwargs(args))
        for c in checks:
            rows.append({"suite": "invariants", "name": c.name, "value": c.value,
                         "bound": c.bound, "passed": c.ok, "detail": c.detail})
            mark = "ok  " if c.ok else "FAIL"
            _say(args.quiet, f"{mark} invariants/{c.name}: {c.value:.3e} "
                 f"(bound {c.bound:.3e})")
            failed = failed or not c.ok

    if "convergence" in suites:
        report = convergence.suite()
        for r in report.rows:
            rows.append(r.to_dict())
            if r.passed is None:
                _say(args.quiet, f"     convergence/{r.name}: {r.value:.3e}")
            else:
                mark = "ok  " if r.passed else "FAIL"
                _say(args.quiet, f"{mark} convergence/{r.name}: {r.value:.4g} "
                     f"(target {r.target})")
                failed = failed or not r.passed
        _say(args.quiet, f"     convergence suite runtime: {report.runtime:.1f}s")

    if args.out is not None:
        output.write_rows(args.out, rows)
    if failed:
        print("verification FAILED", file=sys.stderr)
        return 3
    _say(args.quiet, "verification passed")
    return 0


# --- probe ------------------------------------------------------------------


def cmd_probe(args) -> int:
    if args.kind not in PROBE_KINDS:
        print(f"probe: unknown kind {args.kind!r}; choose from {PROBE_KINDS}",
              file=sys.stderr)
        return 1
    try:
        if args.config is not None:
            cfg = config_mod.load(args.config)
        else:
            cfg = config_mod.RunConfig()
        grid = config_mod.build_grid(cfg)
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    seed0 = args.seed if args.seed is not None else 0
    rows = []
    status = 0

    if args.kind == "trilinear":
        from .fields import Field3D
        from .monitors import trilinear_form
        ones = Field3D.from_function(grid, lambda x, y, p: np.ones_like(x + y + p))
        analytic = grid.Lp ** 2
        measured = trilinear_form(ones, ones, ones)
        rows.append({"check": "constant_fields", "value": measured,
                     "expected": analytic})
        _say(args.quiet,
             f"constant-field integral: {measured:.12g} (analytic {analytic:.12g})")
        samples = probes.trilinear_suite(grid, n=100, seed0=seed0)
        for s in samples:
            rows.append({"seed": s.seed, "form": s.form, "bound": s.bound,
                         "ratio": s.ratio})
        max_ratio = max(s.ratio for s in samples)
        _say(args.quiet, f"100 triples: max form/bound ratio {max_ratio:.4f}")
        if not np.isfinite(max_ratio):
            status = 3

    elif args.kind == "minkowski":
        samples = probes.minkowski_suite(grid, n=100, seed0=seed0)
        for s in samples:
            rows.append({"seed": s.seed, "lhs": s.lhs, "rhs": s.rhs,
                         "slack": s.slack, "violated": s.violated})
        n_viol = sum(1 for s in samples if s.violated)
        _say(args.quiet, f"100 projected fields: {n_viol} violations")
        if n_viol:
            status = 3

    else:  # gronwall
        result = probes.gronwall_probe(**_seed_kwargs(args))
        for name, data in result["series"].items():
            for t, lhs, rhs in zip(data["t"], data["lhs"], data["rhs"]):
                rows.append({"form": name, "t": t, "lhs": lhs, "rhs": rhs})
        for name, cstar in result["fitted"].items():
            rows.append({"form": name, "fitted_constant": cstar})
            _say(args.quiet, f"{name}: fitted constant {cstar:.4g}")

    if args.out is not None:
        output.write_rows(args.out, rows)
    return status


# --- argument parsing -------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="path to a run config file")
    p.add_argument("--out", default=None, help="output path (NDJSON)")
    p.add_argument("--seed", type=int, default=None, help="override the random seed")
    p.add_argument("--quiet", action="store_true", help="suppress progress text")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moistpe",
        description="Pseudo-spectral moist primitive-equation simulator and "
                    "verification harness.")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="integrate a configured trajectory")
    _add_common(p_run)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_common(p_verify)
    p_verify.add_argument("--suite", default="convergence,invariants",
                          help="comma list: convergence,invariants")
    p_verify.add_argument("--mutate", default="none",
                          help="run the dynamics with a known defect "
                               "(testing aid): none, coriolis, no-dealias")

    p_probe = sub.add_parser("probe", help="emit inequality probe series")
    p_probe.add_argument("kind", help="trilinear | minkowski | gronwall")
    _add_common(p_probe)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_probe(args)
    except BlowupError as exc:
        print(f"blowup at t = {exc.t_last:.6g} {exc.detail}".rstrip(), file=sys.stderr)
        return 2
    except ConfigError as exc:
        # e.g. an end time that is not a whole number of steps from a
        # resumed checkpoint's time, which only run() can see
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
