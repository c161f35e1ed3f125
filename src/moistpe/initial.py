"""Initial-condition constructors."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .fields import SPECTRAL, irfftn_norm, parity_part, rfftn_norm
from .grid import Grid
from .model import project_state
from .norms import sobolev_norm
from .state import State

# the initial.symmetry tokens of the config
SYMMETRY_CHOICES = ("none", "paper_parity")

# the reflection classes about the mid-pressure level of v1, v2, theta and q
# under paper_parity (1 even, -1 odd): velocity and humidity even, potential
# temperature odd; monitors.norm_report measures the deviation from them
PARITY_SIGNS = np.array([1.0, 1.0, -1.0, 1.0])[:, None, None, None]


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

    Gaussian noise for v1, v2, theta and q (one draw of the stack) is
    band-limited (to |j| <= band on every axis, by default to the 2/3 ball,
    grid.ball), projected onto the PARITY_SIGNS classes under paper_parity,
    the velocity pair is projected to kill the vertically-averaged
    divergence, and finally all four fields are rescaled together so the
    combined H2 norm (square root of the sum of squares) equals amplitude.
    """
    if symmetry not in SYMMETRY_CHOICES:
        raise ConfigError(f"unknown symmetry {symmetry!r}; choose from {SYMMETRY_CHOICES}")
    if band is not None and band < 1:
        raise ConfigError(f"band must be at least 1, got {band}")
    if not 0.0 < amplitude < np.inf:
        raise ConfigError(f"amplitude must be positive and finite, got {amplitude}")
    rng = np.random.default_rng(seed)
    spec = rfftn_norm(grid, rng.standard_normal((4, *grid.shape)))
    spec *= grid.dealias_mask if band is None else grid.band_mask(band)
    if symmetry == "paper_parity":
        spec = rfftn_norm(grid, parity_part(irfftn_norm(grid, spec), PARITY_SIGNS))
    st = project_state(State.of(grid, spec, SPECTRAL))

    total = np.sqrt(sum(sobolev_norm(f, 2) ** 2 for f in st.fields))
    if total == 0.0:
        raise ConfigError("degenerate random draw; change the seed")
    return State.of(grid, st.data * (amplitude / total), SPECTRAL)
