"""Plain-text run configuration with dotted section keys.

Format: one `section.key = value` per line; blank lines and lines starting
with `#` are ignored.  Unknown or duplicated keys are hard errors (silent
typos corrupt experiments).  Omitted keys take the documented defaults, and
serialization always writes every key, so parse -> serialize -> parse is the
identity.

Sections and keys:

  grid.nx, grid.ny, grid.np          even integers >= 8
  domain.p0, domain.p1               pressure bounds, 0 < p0 < p1 < inf
  physics.R, physics.g               positive and finite
  physics.cp                         positive; inf is the kappa = 0 case
  physics.f_cor                      finite
  physics.mu_v,  physics.nu_v       }
  physics.mu_theta, physics.nu_theta }  viscosities, positive and finite
  physics.mu_q,  physics.nu_q       }
  physics.theta_bar, physics.theta_h   profile tokens: constant:a |
                                       linear:a,b | proportional:a;
                                       on the pressure grid theta_bar is
                                       positive and finite, theta_h finite
  physics.phi_s                      zero | file:<path to .npy, shape nx x ny>
  time.dt, time.t_end, time.t0       floats (t0 is the resume time);
                                     t_end - t0 a whole number of dt
  time.scheme                        imex_cnab2 | erk4_fully_explicit
  forcing.kind                       zero | manufactured:<case> | file:<path>
  initial.kind                       rest | random_smooth:<seed[,amplitude[,band]]>
                                     | file:<path>; 0 < amplitude < inf
  initial.symmetry                   none | paper_parity
  output.norms_path                  none | <path> (NDJSON; a .csv mirror is
                                     written next to it)
  output.norms_every                 record every k-th step (k >= 1)
  output.checkpoint_path             none | <path>
  output.checkpoint_every            0 = final state only; k > 0 also every
                                     k-th recorded sample (file is rolling)

Retired keys (time.adapt, time.cfl_target) are accepted and ignored so that
older checkpoints still load, but time.adapt = true is an error.

The pressure bounds live in the domain section only; the physics parameter
set reuses them, so there is exactly one place to mistype them.

validate builds what the config describes (the Grid, the PhysParams without
phi_s, the model.Coefficients of its profiles, the StepConfig and its
step_count), so each grid, physics and step rule is written once, in its
constructor; a constructor's ParameterError becomes a ConfigError.  Every
error names its dotted key.  Only the tokens no constructor reads (phi_s,
the forcing and initial kinds, the symmetry and the output cadences) are
checked in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, ParameterError
from .grid import Grid
from .model import Coefficients
from .params import PhysParams, Profile
from .stepper import StepConfig, step_count

SYMMETRY_TOKENS = ("none", "paper_parity")


@dataclass(frozen=True)
class RunConfig:
    nx: int = 32
    ny: int = 32
    np: int = 32
    p0: float = 0.2
    p1: float = 1.0
    R: float = 1.0
    cp: float = 3.5
    g: float = 1.0
    f_cor: float = 1.0
    mu_v: float = 1e-2
    nu_v: float = 1e-2
    mu_theta: float = 1e-2
    nu_theta: float = 1e-2
    mu_q: float = 1e-2
    nu_q: float = 1e-2
    theta_bar: str = "constant:1.0"
    theta_h: str = "constant:0.0"
    phi_s: str = "zero"
    dt: float = 1e-3
    t_end: float = 1.0
    t0: float = 0.0
    scheme: str = "imex_cnab2"
    forcing_kind: str = "zero"
    initial_kind: str = "rest"
    initial_symmetry: str = "none"
    norms_path: str = "none"
    norms_every: int = 1
    checkpoint_path: str = "none"
    checkpoint_every: int = 0

    def with_(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _retired_adapt(text: str) -> None:
    if _parse_bool(text):
        raise ConfigError("time.adapt: adaptive stepping was removed; "
                          "runs take fixed steps of time.dt")


# dotted key -> (attribute, parse, format)
KEYMAP = {
    "grid.nx": ("nx", int, str),
    "grid.ny": ("ny", int, str),
    "grid.np": ("np", int, str),
    "domain.p0": ("p0", float, repr),
    "domain.p1": ("p1", float, repr),
    "physics.R": ("R", float, repr),
    "physics.cp": ("cp", float, repr),
    "physics.g": ("g", float, repr),
    "physics.f_cor": ("f_cor", float, repr),
    "physics.mu_v": ("mu_v", float, repr),
    "physics.nu_v": ("nu_v", float, repr),
    "physics.mu_theta": ("mu_theta", float, repr),
    "physics.nu_theta": ("nu_theta", float, repr),
    "physics.mu_q": ("mu_q", float, repr),
    "physics.nu_q": ("nu_q", float, repr),
    "physics.theta_bar": ("theta_bar", str, str),
    "physics.theta_h": ("theta_h", str, str),
    "physics.phi_s": ("phi_s", str, str),
    "time.dt": ("dt", float, repr),
    "time.t_end": ("t_end", float, repr),
    "time.t0": ("t0", float, repr),
    "time.scheme": ("scheme", str, str),
    "forcing.kind": ("forcing_kind", str, str),
    "initial.kind": ("initial_kind", str, str),
    "initial.symmetry": ("initial_symmetry", str, str),
    "output.norms_path": ("norms_path", str, str),
    "output.norms_every": ("norms_every", int, str),
    "output.checkpoint_path": ("checkpoint_path", str, str),
    "output.checkpoint_every": ("checkpoint_every", int, str),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _, _) in KEYMAP.items()}

# keys of the removed adaptive stepping -> value check; checkpoints written
# before the removal embed them
RETIRED_KEYS = {
    "time.adapt": _retired_adapt,
    "time.cfl_target": float,
}


def parse(text: str) -> RunConfig:
    """Parse config text; unknown or repeated keys raise ConfigError."""
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYMAP and key not in RETIRED_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        seen.add(key)
        try:
            if key in RETIRED_KEYS:
                RETIRED_KEYS[key](value)
                continue
            attr, parse_fn, _ = KEYMAP[key]
            values[attr] = parse_fn(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    cfg = RunConfig(**values)
    validate(cfg)
    return cfg


def serialize(cfg: RunConfig) -> str:
    """Canonical text form writing every key (sections in declaration order)."""
    lines = []
    section = None
    for key, (attr, _, fmt) in KEYMAP.items():
        sec = key.split(".")[0]
        if sec != section:
            if section is not None:
                lines.append("")
            section = sec
        lines.append(f"{key} = {fmt(getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"


def load(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


# --- validation and materialization ----------------------------------------


def _key_error(attr: str, message: str) -> ConfigError:
    return ConfigError(f"{_ATTR_TO_KEY[attr]}: {message}")


def validate(cfg: RunConfig) -> None:
    """Raise ConfigError, naming the key, for the first rule cfg breaks."""
    try:
        Coefficients(build_grid(cfg), build_params(cfg))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    build_step_config(cfg)
    step_count(cfg.t0, cfg.t_end, cfg.dt)
    if cfg.phi_s != "zero" and not cfg.phi_s.startswith("file:"):
        raise _key_error("phi_s", f"expected 'zero' or 'file:<path>', got {cfg.phi_s!r}")
    parse_forcing_kind(cfg.forcing_kind)
    parse_initial_kind(cfg.initial_kind)
    if cfg.initial_symmetry not in SYMMETRY_TOKENS:
        raise _key_error("initial_symmetry",
                         f"expected one of {SYMMETRY_TOKENS}, got {cfg.initial_symmetry!r}")
    if cfg.norms_every < 1:
        raise _key_error("norms_every", f"must be >= 1, got {cfg.norms_every}")
    if cfg.checkpoint_every < 0:
        raise _key_error("checkpoint_every", f"must be >= 0, got {cfg.checkpoint_every}")


def parse_forcing_kind(token: str) -> tuple[str, str]:
    """-> ('zero'|'manufactured'|'file', argument)"""
    if token == "zero":
        return ("zero", "")
    head, sep, rest = token.partition(":")
    if head == "manufactured" and sep and rest:
        return ("manufactured", rest)
    if head == "file" and sep and rest:
        return ("file", rest)
    raise ConfigError(
        f"forcing.kind: expected 'zero', 'manufactured:<case>' or 'file:<path>', got {token!r}")


def parse_initial_kind(token: str) -> tuple[str, dict]:
    """-> ('rest'|'random_smooth'|'file', arguments)"""
    if token == "rest":
        return ("rest", {})
    head, sep, rest = token.partition(":")
    if head == "file" and sep and rest:
        return ("file", {"path": rest})
    if head == "random_smooth" and sep and rest:
        args = {"seed": None, "amplitude": 1.0, "band": None}
        order = ("seed", "amplitude", "band")
        try:
            for i, part in enumerate(p.strip() for p in rest.split(",")):
                if "=" in part:
                    name, _, val = part.partition("=")
                    name = name.strip()
                    if name not in args:
                        raise ValueError(f"unknown argument {name!r}")
                else:
                    if i >= len(order):
                        raise ValueError("too many positional arguments")
                    name, val = order[i], part
                if name == "amplitude":
                    args[name] = float(val)
                else:
                    args[name] = int(val)
        except ValueError as exc:
            raise ConfigError(f"initial.kind: bad random_smooth arguments {rest!r}: {exc}") from exc
        if args["seed"] is None:
            raise ConfigError("initial.kind: random_smooth needs a seed")
        if not 0.0 < args["amplitude"] < math.inf:
            raise ConfigError("initial.kind: random_smooth amplitude must be positive and finite")
        if args["band"] is not None and args["band"] < 1:
            raise ConfigError(f"initial.kind: random_smooth band must be >= 1, got {args['band']}")
        return ("random_smooth", args)
    raise ConfigError(
        "initial.kind: expected 'rest', 'random_smooth:<seed[,amplitude[,band]]>' "
        f"or 'file:<path>', got {token!r}")


def build_grid(cfg: RunConfig) -> Grid:
    return Grid(cfg.nx, cfg.ny, cfg.np, cfg.p0, cfg.p1)


def _profile(cfg: RunConfig, attr: str) -> Profile:
    try:
        return Profile.parse(getattr(cfg, attr))
    except ConfigError as exc:
        raise _key_error(attr, str(exc)) from exc


def build_params(cfg: RunConfig, phi_s=None) -> PhysParams:
    return PhysParams(
        R=cfg.R, cp=cfg.cp, g=cfg.g, f_cor=cfg.f_cor,
        p0=cfg.p0, p1=cfg.p1,
        mu_v=cfg.mu_v, nu_v=cfg.nu_v,
        mu_theta=cfg.mu_theta, nu_theta=cfg.nu_theta,
        mu_q=cfg.mu_q, nu_q=cfg.nu_q,
        theta_bar=_profile(cfg, "theta_bar"),
        theta_h=_profile(cfg, "theta_h"),
        phi_s=phi_s,
    )


def build_step_config(cfg: RunConfig) -> StepConfig:
    return StepConfig(dt=cfg.dt, t_end=cfg.t_end, scheme=cfg.scheme)
