"""Command-line entry point: run, verify, probe.

Exit codes: 0 success, 1 configuration or usage error, 2 blowup during a
run, 3 verification or probe failure.  The commands return 0 or 3 and raise
everything else; main alone turns an error into its message and exit code,
argparse's own errors included.  The only environment variable honored is
MOISTPE_THREADS (transform worker count); everything else comes from the
config file and flags.
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
from .model import FAITHFUL, Forcing
from .stepper import run as run_trajectory

CONFIG_ERRORS = (ConfigError, ParameterError, DataError)

MUTATIONS = {
    "none": FAITHFUL,
    "coriolis": FAITHFUL.with_(coriolis_bug=True),
    "no-dealias": FAITHFUL.with_(dealias=False),
}

PROBE_KINDS = ("trilinear", "minkowski", "gronwall")


class UsageError(Exception):
    """A command line that names no valid command, option or value (exit 1).
    Carries the usage text of the command it was given to."""

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError instead of exiting 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}", self.format_usage())


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _seed(text: str) -> int:
    """The value of --seed: an integer >= 0, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _seed_kwargs(args) -> dict:
    """Forward --seed only when given, so each probe keeps its own default."""
    return {} if args.seed is None else {"seed": args.seed}


# --- run --------------------------------------------------------------------


def _load_numpy(key: str, path: str):
    """np.load of the file a config key names; a file that cannot be opened,
    or whose content is not a NumPy file, is a ConfigError."""
    try:
        return np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
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


def _build_params(cfg, grid):
    return config_mod.build_params(cfg, phi_s=_load_phi_s(cfg, grid))


def _build_initial(cfg, grid, args):
    kind, init = config_mod.parse_initial_kind(cfg.initial_kind)
    if args.seed is not None and kind != "random_smooth":
        raise UsageError(f"run: --seed applies to initial.kind random_smooth, not {kind!r}",
                         args.usage)
    if kind == "rest":
        state = rest(grid)
    elif kind == "random_smooth":
        seed = args.seed if args.seed is not None else init["seed"]
        state = random_smooth(grid, seed, amplitude=init["amplitude"],
                              band=init["band"], symmetry=cfg.initial_symmetry)
    else:
        try:
            _, state = checkpoint_mod.read_checkpoint(init["path"])
        except OSError as exc:
            raise ConfigError(f"initial.kind: cannot read checkpoint: {exc}") from exc
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
    return Forcing.static(grid, rfftn_norm(grid, np.stack(arrays)))


def _check_output_dir(key: str, path: str) -> None:
    """The directory an output file goes into must exist, and the path must
    not be a directory itself, before the run starts, not be found wrong
    when the run is over."""
    if os.path.isdir(path):
        raise ConfigError(f"{key}: {path!r} is a directory, not a file")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigError(f"{key}: directory {folder!r} of {path!r} does not exist")


def _check_run_outputs(cfg, norms_key: str) -> None:
    """The norms path (named norms_key), its CSV mirror and the checkpoint
    path, those that are not none, each pass _check_output_dir and name
    three different files.  The checkpoint may be the file the run starts
    from: that resumes in place."""
    outputs = []
    if cfg.norms_path != "none":
        outputs += [(norms_key, cfg.norms_path),
                    (f"the CSV mirror of {norms_key}", output.csv_mirror_path(cfg.norms_path))]
    if cfg.checkpoint_path != "none":
        outputs.append(("output.checkpoint_path", cfg.checkpoint_path))
    seen = {}
    for key, path in outputs:
        _check_output_dir(key, path)
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{seen[real]} and {key} name the same file {path!r}")
        seen[real] = key


def cmd_run(args) -> int:
    if args.config is None:
        raise UsageError("run: --config is required", args.usage)
    cfg = config_mod.load(args.config)
    norms_key = "output.norms_path"
    if args.out is not None:
        cfg = cfg.with_(norms_path=args.out)
        norms_key = "--out (output.norms_path)"
    _check_run_outputs(cfg, norms_key)
    grid = config_mod.build_grid(cfg)
    params = _build_params(cfg, grid)
    step_cfg = config_mod.build_step_config(cfg)
    forcing = _build_forcing(cfg, grid, params)

    samples = []
    rolling = cfg.checkpoint_path != "none" and cfg.checkpoint_every > 0

    def on_sample(s, sample):
        samples.append(sample)
        if rolling and len(samples) % cfg.checkpoint_every == 0:
            checkpoint_mod.write_checkpoint(cfg.checkpoint_path, s, cfg)

    want_norms = cfg.norms_path != "none"
    try:
        # the run makes its own copy of the initial state; nothing here
        # keeps the one it was made from
        traj = run_trajectory(
            _build_initial(cfg, grid, args), params, step_cfg, forcing=forcing,
            record_every=cfg.norms_every,
            on_sample=on_sample,
            collect_budget=want_norms,
        )
    finally:
        # a run that blows up keeps the rows recorded before the blowup; one
        # that stops before its first sample writes no file
        if want_norms and samples:
            output.write_norms(cfg.norms_path, samples)
            _say(args.quiet, f"norms: {cfg.norms_path} "
                 f"(+ {output.csv_mirror_path(cfg.norms_path)})")
    # only a completed run gets here: a diverged state is never written, so
    # the last rolling checkpoint survives a blowup
    if cfg.checkpoint_path != "none":
        checkpoint_mod.write_checkpoint(cfg.checkpoint_path, traj.final_state, cfg)
        _say(args.quiet, f"checkpoint: {cfg.checkpoint_path}")

    last = samples[-1].report
    _say(args.quiet,
         f"completed t = {last.t:g}  ||v||_H1 = {last.h1_v:.6g}  "
         f"||theta|| = {last.l2_theta:.6g}  ||q|| = {last.l2_q:.6g}")
    return 0


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not suites:
        raise UsageError("verify: empty suite selection", args.usage)
    known = {"convergence", "invariants"}
    unknown = [s for s in suites if s not in known]
    if unknown:
        raise UsageError(f"verify: unknown suite(s) {unknown}; choose from {sorted(known)}",
                         args.usage)
    if "invariants" not in suites:
        given = [flag for flag, value in (("--mutate", args.mutate), ("--seed", args.seed))
                 if value is not None]
        if given:
            raise UsageError(f"verify: the invariants suite alone takes {' and '.join(given)}, "
                             f"and --suite {args.suite!r} does not select it", args.usage)
    variant = MUTATIONS[args.mutate or "none"]

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
    cfg = config_mod.load(args.config) if args.config is not None else config_mod.RunConfig()
    grid = config_mod.build_grid(cfg)
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
        result = probes.gronwall_probe(grid=grid, params=_build_params(cfg, grid),
                                       **_seed_kwargs(args))
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


def _add_common(p: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        p.add_argument("--config", default=None, help="path to a run config file")
    p.add_argument("--out", default=None, help="output path (NDJSON)")
    p.add_argument("--seed", type=_seed, default=None, help="override the random seed (>= 0)")
    p.add_argument("--quiet", action="store_true", help="suppress progress text")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moistpe",
        description="Pseudo-spectral moist primitive-equation simulator and "
                    "verification harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured trajectory")
    _add_common(p_run)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_common(p_verify, config=False)
    p_verify.add_argument("--suite", default="convergence,invariants",
                          help="comma list: convergence,invariants")
    p_verify.add_argument("--mutate", default=None, choices=list(MUTATIONS),
                          help="run the invariants with a known defect (testing aid)")

    p_probe = sub.add_parser("probe", help="emit inequality probe series")
    p_probe.add_argument("kind", choices=PROBE_KINDS)
    _add_common(p_probe)

    for p, cmd in ((p_run, cmd_run), (p_verify, cmd_verify), (p_probe, cmd_probe)):
        p.set_defaults(cmd=cmd, usage=p.format_usage())
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        # written when the work is done, so checked first (run checks its
        # own outputs together)
        if args.out is not None and args.command != "run":
            _check_output_dir("--out", args.out)
        return args.cmd(args)
    except UsageError as exc:
        print(f"{exc.usage}{exc}", file=sys.stderr)
        return 1
    except BlowupError as exc:
        print(f"blowup at t = {exc.t_last:.6g} {exc.detail}".rstrip(), file=sys.stderr)
        return 2
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
