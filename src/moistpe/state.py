"""Prognostic state of the system: horizontal velocity (v1, v2), potential
temperature theta, specific humidity q, and the current time."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .fields import PHYSICAL, SPECTRAL, Field3D
from .grid import Grid


@dataclass(frozen=True)
class State:
    v1: Field3D
    v2: Field3D
    theta: Field3D
    q: Field3D
    t: float = 0.0

    def __post_init__(self):
        g = self.v1.grid
        for f in (self.v2, self.theta, self.q):
            if f.grid != g:
                raise DataError("state fields must share one grid")

    @property
    def grid(self) -> Grid:
        return self.v1.grid

    @property
    def fields(self) -> tuple[Field3D, Field3D, Field3D, Field3D]:
        return (self.v1, self.v2, self.theta, self.q)

    @classmethod
    def zeros(cls, grid: Grid, rep: str = SPECTRAL, t: float = 0.0) -> "State":
        return cls(*(Field3D.zeros(grid, rep) for _ in range(4)), t=t)

    def as_spectral(self) -> "State":
        if all(f.rep == SPECTRAL for f in self.fields):
            return self
        return State(*(f.as_spectral() for f in self.fields), t=self.t)

    def as_physical(self) -> "State":
        if all(f.rep == PHYSICAL for f in self.fields):
            return self
        return State(*(f.as_physical() for f in self.fields), t=self.t)

    def with_time(self, t: float) -> "State":
        return replace(self, t=t)

    def checksum(self) -> str:
        """Short content hash of the physical samples and the time."""
        phys = self.as_physical()
        h = hashlib.sha256()
        h.update(struct.pack("<d", self.t))
        for f in phys.fields:
            h.update(np.ascontiguousarray(f.data).tobytes())
        return h.hexdigest()[:16]
