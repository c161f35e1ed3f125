"""Prognostic state of the system: horizontal velocity (v1, v2), potential
temperature theta, specific humidity q, and the current time.

The four fields are the rows v1, v2, theta, q of one stacked array, data, of
shape (4, *grid.shape) (physical) or (4, *grid.spectral_shape) (spectral);
the fields a State hands out are views of its rows.  A State is a value:
nothing in the package writes into the array of a State it did not just make.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import DataError
from .fields import PHYSICAL, SPECTRAL, Field3D, checked_backward, checked_forward
from .grid import Grid


class State:
    """State(v1, v2, theta, q, t=) stacks four fields into a new array;
    fields not all in one representation are brought to spectral."""

    __slots__ = ("grid", "data", "rep", "t")

    def __init__(self, v1: Field3D, v2: Field3D, theta: Field3D, q: Field3D,
                 t: float = 0.0):
        fields = (v1, v2, theta, q)
        if any(f.grid != v1.grid for f in fields):
            raise DataError("state fields must share one grid")
        rep = v1.rep if all(f.rep == v1.rep for f in fields) else SPECTRAL
        self.grid, self.rep, self.t = v1.grid, rep, t
        self.data = np.stack([f.as_spectral().data if rep == SPECTRAL else f.data
                              for f in fields])

    @classmethod
    def of(cls, grid: Grid, data: np.ndarray, rep: str, t: float = 0.0) -> "State":
        """The state whose stacked array is data itself (no copy)."""
        Field3D(grid, data[0], rep)  # checks the representation of the rows
        if data.shape[0] != 4:
            raise DataError(f"a state stacks 4 fields, got {data.shape[0]}")
        self = cls.__new__(cls)
        self.grid, self.data, self.rep, self.t = grid, data, rep, t
        return self

    v1 = property(lambda self: Field3D(self.grid, self.data[0], self.rep))
    v2 = property(lambda self: Field3D(self.grid, self.data[1], self.rep))
    theta = property(lambda self: Field3D(self.grid, self.data[2], self.rep))
    q = property(lambda self: Field3D(self.grid, self.data[3], self.rep))

    @property
    def fields(self) -> tuple[Field3D, Field3D, Field3D, Field3D]:
        return (self.v1, self.v2, self.theta, self.q)

    @classmethod
    def zeros(cls, grid: Grid, rep: str = SPECTRAL, t: float = 0.0) -> "State":
        return cls(*(Field3D.zeros(grid, rep) for _ in range(4)), t=t)

    def as_spectral(self) -> "State":
        if self.rep == SPECTRAL:
            return self
        return State.of(self.grid, checked_forward(self.grid, self.data), SPECTRAL, self.t)

    def as_physical(self) -> "State":
        if self.rep == PHYSICAL:
            return self
        return State.of(self.grid, checked_backward(self.grid, self.data), PHYSICAL, self.t)

    def with_time(self, t: float) -> "State":
        return State.of(self.grid, self.data, self.rep, t)

    def checksum(self, ctx=None) -> str:
        """Short content hash of the physical samples and the time.  ctx, a
        monitors.SampleContext of this state, supplies the samples without
        transforming again."""
        if ctx is None:
            phys = self.as_physical().data
        elif ctx.state is self:
            phys = ctx.phys
        else:
            raise DataError("checksum: the sample context belongs to another state")
        h = hashlib.sha256()
        h.update(struct.pack("<d", self.t))
        h.update(np.ascontiguousarray(phys))
        return h.hexdigest()[:16]
