"""Independent finite-difference oracle for the spectral operators.

Everything here deliberately avoids the production code paths: derivatives
are fourth-order centered stencils, vertical integrals are trapezoid sums
with an endpoint-derivative correction, and pressure-profile coefficients
are evaluated analytically rather than sampled from the coarse grid.  Inputs
are trigonometrically interpolated onto a grid refined by an integer factor
first, so the oracle's own truncation error scales like (h / factor)^4 and
halving/doubling the factor gives a clean order check against the spectral
results.

Interfaces take plain physical-layout numpy arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.signal import resample

from moistpe.errors import ParameterError
from moistpe.grid import Grid
from moistpe.params import PhysParams

OP_NAMES = ("derivative", "viscosity_v", "viscosity_theta", "viscosity_q",
            "omega", "phi")


def reference_apply(op_name: str, grid: Grid, params: PhysParams,
                    *fields: np.ndarray, factor: int = 4,
                    axis: str = "p") -> np.ndarray:
    """Apply one reference operator selected by name.

    "derivative" takes one array plus the axis keyword, "omega" takes the two
    velocity components, every other operator takes a single array.  Unknown
    names raise ParameterError.
    """
    if op_name not in OP_NAMES:
        raise ParameterError(
            f"unknown operator {op_name!r}; expected one of {OP_NAMES}")
    oracle = FdOracle(grid, params, factor)
    if op_name == "derivative":
        return oracle.derivative(fields[0], axis)
    if op_name == "omega":
        return oracle.omega(fields[0], fields[1])
    return getattr(oracle, op_name)(fields[0])


def _refine(data: np.ndarray, factor: int) -> np.ndarray:
    out = data
    for axis in (0, 1, 2):
        out = resample(out, out.shape[axis] * factor, axis=axis)
    return out


def _d1(data: np.ndarray, h: float, axis: int) -> np.ndarray:
    def sh(k):
        return np.roll(data, -k, axis=axis)
    return (-sh(2) + 8.0 * sh(1) - 8.0 * sh(-1) + sh(-2)) / (12.0 * h)


def _d2(data: np.ndarray, h: float, axis: int) -> np.ndarray:
    def sh(k):
        return np.roll(data, -k, axis=axis)
    return (-sh(2) + 16.0 * sh(1) - 30.0 * data + 16.0 * sh(-1) - sh(-2)) / (12.0 * h * h)


class FdOracle:
    """Finite-difference reference implementations on a refined grid."""

    def __init__(self, grid: Grid, params: PhysParams, factor: int = 4):
        if factor < 1:
            raise ParameterError("refinement factor must be a positive integer")
        self.grid = grid
        self.params = params
        self.factor = factor
        self.hx = grid.Lx / (grid.nx * factor)
        self.hy = grid.Ly / (grid.ny * factor)
        self.hp = grid.Lp / (grid.np * factor)
        self.p_fine = grid.p0 + self.hp * np.arange(grid.np * factor)

    def _coarsen(self, fine: np.ndarray) -> np.ndarray:
        r = self.factor
        return np.ascontiguousarray(fine[::r, ::r, ::r])

    def derivative(self, data: np.ndarray, axis: str) -> np.ndarray:
        fine = _refine(data, self.factor)
        ax = {"x": 0, "y": 1, "p": 2}[axis]
        h = {"x": self.hx, "y": self.hy, "p": self.hp}[axis]
        return self._coarsen(_d1(fine, h, ax))

    # -- viscosity operators ------------------------------------------------

    def _c_fine(self) -> np.ndarray:
        pr = self.params
        theta_bar = pr.theta_bar.evaluate(self.p_fine)
        return (pr.g * self.p_fine / (pr.R * theta_bar)) ** 2

    def _plain_viscosity(self, data: np.ndarray, mu: float, nu: float) -> np.ndarray:
        fine = _refine(data, self.factor)
        lap = _d2(fine, self.hx, 0) + _d2(fine, self.hy, 1)
        dp = _d1(fine, self.hp, 2)
        w = self._c_fine()[None, None, :] * dp
        vert = _d1(w, self.hp, 2)
        return self._coarsen(-mu * lap - nu * vert)

    def viscosity_v(self, data: np.ndarray) -> np.ndarray:
        return self._plain_viscosity(data, self.params.mu_v, self.params.nu_v)

    def viscosity_q(self, data: np.ndarray) -> np.ndarray:
        return self._plain_viscosity(data, self.params.mu_q, self.params.nu_q)

    def viscosity_theta(self, data: np.ndarray) -> np.ndarray:
        pr = self.params
        fine = _refine(data, self.factor)
        lap = _d2(fine, self.hx, 0) + _d2(fine, self.hy, 1)
        pk = (pr.p0 / self.p_fine) ** pr.kappa
        s = pk[None, None, :] * fine
        w = self._c_fine()[None, None, :] * _d1(s, self.hp, 2)
        vert = pk[None, None, :] * _d1(w, self.hp, 2)
        return self._coarsen(-pr.mu_theta * lap - pr.nu_theta * vert)

    # -- vertical integrals -------------------------------------------------

    def _cumulative(self, f_closed: np.ndarray) -> np.ndarray:
        """Trapezoid antiderivative from p0 with the h^2/12 endpoint correction.

        f_closed includes the p1 node (shape [..., n+1]); the returned array
        has the same closed shape, value zero at p0.
        """
        h = self.hp
        C = cumulative_trapezoid(f_closed, dx=h, axis=-1, initial=0.0)
        fp = np.gradient(f_closed, h, axis=-1, edge_order=2)
        return C - (h * h / 12.0) * (fp - fp[..., :1])

    def omega(self, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        """omega = -integral from p0 to p of (dv1/dx + dv2/dy) dp'."""
        f1 = _refine(v1, self.factor)
        f2 = _refine(v2, self.factor)
        div = _d1(f1, self.hx, 0) + _d1(f2, self.hy, 1)
        closed = np.concatenate([div, div[:, :, :1]], axis=2)
        C = self._cumulative(closed)
        return self._coarsen(-C[:, :, :-1])

    def phi(self, theta: np.ndarray) -> np.ndarray:
        """Phi = Phi_s + integral from p to p1 of R T / p' dp'.

        The field part of the integrand extends periodically to the p1 node;
        the coefficient part is evaluated analytically there.
        """
        pr = self.params
        fine = _refine(theta, self.factor)
        closed_theta = np.concatenate([fine, fine[:, :, :1]], axis=2)
        p_closed = np.concatenate([self.p_fine, [pr.p1]])
        theta_h = pr.theta_h.evaluate(p_closed)
        coeff = (p_closed / pr.p0) ** pr.kappa / p_closed
        gfield = pr.R * (closed_theta + theta_h[None, None, :]) * coeff[None, None, :]
        C = self._cumulative(gfield)
        integral = C[:, :, -1:] - C
        phi = self._coarsen(integral[:, :, :-1])
        if pr.phi_s is not None:
            phi = phi + np.asarray(pr.phi_s, dtype=np.float64)[:, :, None]
        return phi
