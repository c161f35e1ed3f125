"""Binary state checkpoints.

Layout (all integers little-endian):

    bytes 0..3    magic "MPES"
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..19   grid dims nx, ny, np as three uint32
    next 4        config byte length L, uint32
    next L        serialized run configuration, UTF-8
    rest          four float64 arrays v1, v2, theta, q in physical space,
                  C order (ix, iy, ip) with ip fastest

The embedded configuration carries the resume time in time.t0, so a restart
rebuilds the exact state: the float64 payload round-trips bit-exactly.  A
checkpoint is written to PATH.tmp, synced and moved over PATH, so a failed
or interrupted write leaves the previous checkpoint as it was.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DataError
from .fields import PHYSICAL
from .state import State

MAGIC = b"MPES"
VERSION = 1
HEADER_BYTES = 24  # magic, version, three grid dims, config length


def write_checkpoint(path: str, state: State, cfg) -> None:
    """Write state plus its run configuration (resume time patched in)."""
    from . import config as config_mod

    payload = np.ascontiguousarray(state.as_physical().data, dtype="<f8")
    cfg_text = config_mod.serialize(cfg.with_(t0=float(state.t)))
    blob = cfg_text.encode("utf-8")
    g = state.grid
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<III", g.nx, g.ny, g.np))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_checkpoint(path: str):
    """-> (RunConfig, State); the state's time is the stored time.t0.

    The payload is read straight into the state's array, so a resume holds
    the state once.
    """
    from . import config as config_mod

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(HEADER_BYTES)
        if head[:4] != MAGIC:
            raise DataError(f"{path!r} is not a checkpoint file (bad magic)")
        if len(head) < HEADER_BYTES:
            raise DataError(f"checkpoint header truncated: {len(head)} bytes, "
                            f"expected at least {HEADER_BYTES}")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        nx, ny, npp = struct.unpack_from("<III", head, 8)
        (blob_len,) = struct.unpack_from("<I", head, 20)
        blob_end = HEADER_BYTES + blob_len
        if size < blob_end:
            raise DataError("checkpoint truncated inside the config block")
        try:
            cfg_text = fh.read(blob_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path!r}: checkpoint config block is not UTF-8: {exc}") from exc
        cfg = config_mod.parse(cfg_text)
        if (cfg.nx, cfg.ny, cfg.np) != (nx, ny, npp):
            raise DataError(
                f"checkpoint header dims {(nx, ny, npp)} disagree with its config "
                f"({cfg.nx}, {cfg.ny}, {cfg.np})")
        grid = config_mod.build_grid(cfg)
        data = np.empty((4, nx, ny, npp), dtype="<f8")
        if size != blob_end + data.nbytes or fh.readinto(data) != data.nbytes:
            raise DataError(f"checkpoint payload is {size - blob_end} bytes, "
                            f"expected {data.nbytes}")
    return cfg, State.of(grid, data.astype(np.float64, copy=False), PHYSICAL, cfg.t0)
