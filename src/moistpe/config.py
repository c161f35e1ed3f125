"""Plain-text run configuration with dotted section keys.

Format: one `section.key = value` per line; blank lines and lines starting
with `#` are ignored.  Unknown or duplicated keys are hard errors (silent
typos corrupt experiments).  Omitted keys take the documented defaults, and
serialization always writes every key, so parse -> serialize -> parse is the
identity.

RunConfig declares the format: each of its fields carries its dotted key, its
type (int, float or str, which parses the value; floats are written with
repr) and its default, and KEYMAP is derived from the fields.  PhysParams
holds the physics and domain defaults and StepConfig the scheme's, and
RunConfig reads them from there.  README's "Config format" table lists the
keys with their rules; a test checks that it names exactly KEYMAP's keys.

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
checked in this module; the symmetry against initial.SYMMETRY_CHOICES.
"""

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, ParameterError
from .grid import Grid
from .initial import SYMMETRY_CHOICES
from .model import Coefficients
from .params import PhysParams, Profile
from .stepper import StepConfig, step_count


def _key(key: str, default=None, of: type | None = None):
    """A RunConfig field read from and written to the dotted key; with of
    (PhysParams or StepConfig), the default is that of of's field named by
    the key's last part."""
    if of is not None:
        default = getattr(of, key.rpartition(".")[2])
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """One field per config key (see _key), in the order serialize writes
    them; each field's type parses its value."""

    nx: int = _key("grid.nx", 32)
    ny: int = _key("grid.ny", 32)
    np: int = _key("grid.np", 32)
    p0: float = _key("domain.p0", of=PhysParams)
    p1: float = _key("domain.p1", of=PhysParams)
    R: float = _key("physics.R", of=PhysParams)
    cp: float = _key("physics.cp", of=PhysParams)
    g: float = _key("physics.g", of=PhysParams)
    f_cor: float = _key("physics.f_cor", of=PhysParams)
    mu_v: float = _key("physics.mu_v", of=PhysParams)
    nu_v: float = _key("physics.nu_v", of=PhysParams)
    mu_theta: float = _key("physics.mu_theta", of=PhysParams)
    nu_theta: float = _key("physics.nu_theta", of=PhysParams)
    mu_q: float = _key("physics.mu_q", of=PhysParams)
    nu_q: float = _key("physics.nu_q", of=PhysParams)
    theta_bar: str = _key("physics.theta_bar", "constant:1.0")
    theta_h: str = _key("physics.theta_h", "constant:0.0")
    phi_s: str = _key("physics.phi_s", "zero")
    dt: float = _key("time.dt", 1e-3)
    t_end: float = _key("time.t_end", 1.0)
    t0: float = _key("time.t0", 0.0)
    scheme: str = _key("time.scheme", of=StepConfig)
    forcing_kind: str = _key("forcing.kind", "zero")
    initial_kind: str = _key("initial.kind", "rest")
    initial_symmetry: str = _key("initial.symmetry", "none")
    norms_path: str = _key("output.norms_path", "none")
    norms_every: int = _key("output.norms_every", 1)
    checkpoint_path: str = _key("output.checkpoint_path", "none")
    checkpoint_every: int = _key("output.checkpoint_every", 0)

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


# dotted key -> (attribute, parse, format), in RunConfig's order
KEYMAP = {f.metadata["key"]: (f.name, f.type, repr if f.type is float else str)
          for f in fields(RunConfig)}

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
    if cfg.initial_symmetry not in SYMMETRY_CHOICES:
        raise _key_error("initial_symmetry",
                         f"expected one of {SYMMETRY_CHOICES}, got {cfg.initial_symmetry!r}")
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
        if args["seed"] < 0:
            raise ConfigError(f"initial.kind: random_smooth seed must be >= 0, got {args['seed']}")
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
    """The PhysParams of cfg: each of its fields from RunConfig's field of
    that name, the profiles parsed, and phi_s as given."""
    values = {f.name: getattr(cfg, f.name) for f in fields(PhysParams)}
    values.update(theta_bar=_profile(cfg, "theta_bar"), theta_h=_profile(cfg, "theta_h"),
                  phi_s=phi_s)
    return PhysParams(**values)


def build_step_config(cfg: RunConfig) -> StepConfig:
    return StepConfig(dt=cfg.dt, t_end=cfg.t_end, scheme=cfg.scheme)
