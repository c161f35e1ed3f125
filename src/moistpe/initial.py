"""Initial-condition constructors."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .fields import SPECTRAL, Field3D, ParityClass, parity_project, rfftn_norm
from .grid import Grid
from .model import project_state
from .state import State

SYMMETRY_CHOICES = ("none", "mirror")

# field -> reflection class about the mid-pressure level under the "mirror"
# option (velocity and humidity even, potential temperature odd), in the
# order the fields are drawn
_MIRROR = {
    "v1": ParityClass.EVEN,
    "v2": ParityClass.EVEN,
    "theta": ParityClass.ODD,
    "q": ParityClass.EVEN,
}


def rest(grid: Grid) -> State:
    return State.zeros(grid, rep="spectral")


def random_smooth(
    grid: Grid,
    seed: int,
    amplitude: float = 1.0,
    band: int | None = None,
    symmetry: str = "none",
) -> State:
    """Reproducible smooth random data with prescribed total H2 size.

    Gaussian noise is band-limited (to |j| <= band on every axis, by default
    to the 2/3 ball, grid.ball), the velocity pair is projected to kill
    the vertically-averaged divergence, the optional mirror symmetry is
    imposed, and finally all four fields are rescaled together so the
    combined H2 norm (square root of the sum of squares) equals amplitude.
    """
    if symmetry not in SYMMETRY_CHOICES:
        raise ConfigError(f"unknown symmetry {symmetry!r}; choose from {SYMMETRY_CHOICES}")
    if band is not None and band < 1:
        raise ConfigError(f"band must be at least 1, got {band}")
    if not 0.0 < amplitude < np.inf:
        raise ConfigError(f"amplitude must be positive and finite, got {amplitude}")
    rng = np.random.default_rng(seed)
    mask = grid.dealias_mask if band is None else grid.band_mask(band)

    def draw(name: str) -> Field3D:
        noise = rng.standard_normal(grid.shape)
        F = Field3D.spectral(grid, rfftn_norm(grid, noise) * mask)
        if symmetry == "mirror":
            F = parity_project(F.as_physical(), _MIRROR[name]).as_spectral()
        return F

    st = project_state(State(*(draw(name) for name in _MIRROR)))

    from .norms import sobolev_norm
    total = np.sqrt(sum(sobolev_norm(f, 2) ** 2 for f in st.fields))
    if total == 0.0:
        raise ConfigError("degenerate random draw; change the seed")
    return State.of(grid, st.data * (amplitude / total), SPECTRAL)
