"""Physical parameters and reference profiles.

Defaults are the nondimensional configuration used throughout the test
suite: unit gas constant, unit gravity, unit rotation rate, cp chosen so the
adiabatic exponent R/cp equals 2/7, pressure shell (0.2, 1.0), and all six
viscosities equal to 1e-2.  They are written here only: config.RunConfig
reads its physics and domain defaults from PhysParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ParameterError
from .grid import check_pressure_bounds


@dataclass(frozen=True)
class Profile:
    """A reference profile of pressure: theta_bar, theta_h and friends.

    Built-in kinds:
      constant:a          -> a
      linear:a,b          -> a + b*p
      proportional:a      -> a*p
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def constant(cls, a: float) -> "Profile":
        return cls("constant", a=float(a))

    @classmethod
    def linear(cls, a: float, b: float) -> "Profile":
        return cls("linear", a=float(a), b=float(b))

    @classmethod
    def proportional(cls, a: float) -> "Profile":
        return cls("proportional", a=float(a))

    def evaluate(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if self.kind == "constant":
            return np.full_like(p, self.a)
        if self.kind == "linear":
            return self.a + self.b * p
        if self.kind == "proportional":
            return self.a * p
        raise ParameterError(f"unknown profile kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "Profile":
        kind, _, rest = text.partition(":")
        try:
            if kind == "constant":
                return cls.constant(float(rest))
            if kind == "linear":
                a_str, b_str = rest.split(",")
                return cls.linear(float(a_str), float(b_str))
            if kind == "proportional":
                return cls.proportional(float(rest))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"malformed profile value {text!r}") from exc
        raise ConfigError(f"unknown profile kind in {text!r}")


@dataclass(frozen=True)
class PhysParams:
    """Constants and profiles of the moist primitive-equation system."""

    R: float = 1.0
    cp: float = 3.5
    g: float = 1.0
    f_cor: float = 1.0
    p0: float = 0.2
    p1: float = 1.0
    mu_v: float = 1e-2
    nu_v: float = 1e-2
    mu_theta: float = 1e-2
    nu_theta: float = 1e-2
    mu_q: float = 1e-2
    nu_q: float = 1e-2
    theta_bar: Profile = field(default_factory=lambda: Profile.constant(1.0))
    theta_h: Profile = field(default_factory=lambda: Profile.constant(0.0))
    # surface geopotential: 2D array (nx, ny) or None for zero
    phi_s: np.ndarray | None = None

    def __post_init__(self):
        for name in ("R", "g", "mu_v", "nu_v", "mu_theta", "nu_theta", "mu_q", "nu_q"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ParameterError(f"physics.{name}: must be positive and finite, got {value!r}")
        # +inf is the kappa = 0 limit
        if not self.cp > 0.0:
            raise ParameterError(f"physics.cp: must be positive (inf allowed), got {self.cp!r}")
        if not math.isfinite(self.f_cor):
            raise ParameterError(f"physics.f_cor: must be finite, got {self.f_cor!r}")
        check_pressure_bounds(self.p0, self.p1)

    @property
    def kappa(self) -> float:
        """Adiabatic exponent R/cp (0 when cp is infinite)."""
        if math.isinf(self.cp):
            return 0.0
        return self.R / self.cp

    def with_(self, **kwargs) -> "PhysParams":
        return replace(self, **kwargs)

    def check_grid(self, grid) -> None:
        """The grid and the parameter set must agree on the pressure shell."""
        if grid.p0 != self.p0 or grid.p1 != self.p1:
            raise ParameterError(
                f"grid pressure bounds ({grid.p0}, {grid.p1}) disagree with params ({self.p0}, {self.p1})"
            )
