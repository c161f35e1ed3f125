"""Memory held by a forced step, by a record of the monitors, by a workspace,
by the manufactured forcing and by a checkpoint read.

tracemalloc sees every NumPy data buffer and Python object, and nothing of
pocketfft's internal scratch, so these counts are the same on every run.
The bounds are in units of the arrays involved: a spectral state stack, the
box the manufactured arrays are stored on, a checkpoint payload.
"""

import gc
import tracemalloc

import numpy as np

from moistpe import checkpoint, config, monitors
from moistpe.grid import Grid
from moistpe.manufactured import ManufacturedSolution, get_case
from moistpe.model import Workspace
from moistpe.stepper import erk4_step


def _grid32(params):
    return Grid(32, 32, 32, params.p0, params.p1)


def _stack_bytes(shape) -> int:
    return 4 * int(np.prod(shape)) * np.dtype(np.complex128).itemsize


def test_forced_erk4_step_holds_few_stacks_at_once(params):
    # at its peak a step holds the running sum of its stage tendencies, the
    # tendency being built, the forcing of a new time and a few fields of
    # samples: under 4.5 spectral stacks above what it starts with (nine
    # when all four stage tendencies and the 14 samples were held at once)
    g = _grid32(params)
    ms = ManufacturedSolution(get_case("gentle"), g, params)
    ws = Workspace(g, params)
    gc.collect()
    tracemalloc.start()
    try:
        state = ms.initial_state()
        for _ in range(2):
            state = erk4_step(state, 1e-4, ws, ms.forcing)
        gc.collect()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        erk4_step(state, 1e-4, ws, ms.forcing)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * _stack_bytes(g.spectral_shape)


def test_a_forced_erk4_step_on_a_streamed_grid_holds_its_two_tendencies_and_slabs(params):
    # past Workspace.STREAM_BYTES a step's peak is the running sum, the
    # tendency being built, omega, v1 and v2 on the whole grid, and one
    # group's samples and product on an x slab: under 3.4 spectral stacks
    # above what it starts with (3.52 when each group's samples, the four
    # products and the forcing of each new time were whole)
    g = Grid(48, 48, 48, params.p0, params.p1)
    ms = ManufacturedSolution(get_case("gentle"), g, params)
    ws = Workspace(g, params)
    assert ws.streamed and len(ws.slabs) == 3
    gc.collect()
    tracemalloc.start()
    try:
        state = ms.initial_state()
        for _ in range(2):
            state = erk4_step(state, 1e-4, ws, ms.forcing)
        gc.collect()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        erk4_step(state, 1e-4, ws, ms.forcing)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 3.4 * _stack_bytes(g.spectral_shape)


def test_a_forced_record_holds_few_stacks_at_once(params):
    # one record point of a forced run at 48^3: the sample converted once,
    # the budget and the norm panel.  The weighted sums take their fields
    # in chunks, the forcing is paired field by field, and the budget drops
    # each whole-grid temporary once its number exists: under 4.3 spectral
    # stacks, set by a chunk of the weighted sums (4.4 when the budget held
    # its temporaries to its end, 6.0 with the five vertical fields, their
    # horizontal spectra and the forcing's full stack at once)
    g = Grid(48, 48, 48, params.p0, params.p1)
    ms = ManufacturedSolution(get_case("gentle"), g, params)
    constants = monitors.MonitorConstants(g, params)
    state = ms.exact_state(0.01)
    ms.forcing(0.0)  # the latest forcing is of another time
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ctx = monitors.sample_context(state, constants)
        monitors.budget_terms(ctx, ms.forcing)
        monitors.norm_report(ctx)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert ctx.in_ball
    assert peak <= 4.3 * _stack_bytes(g.spectral_shape)


def test_a_streamed_workspace_holds_a_3_field_inverse_scratch(params):
    # past Workspace.STREAM_BYTES the tendency's inverse runs one group at a
    # time through 3 spectral fields, not all 15 of the whole stack, and the
    # scratch of the operators on the rows and of the tail shares that
    # buffer.  The IMEX multipliers wait for an IMEX step, the multipliers
    # constant along p are one plane thick and the gathered rows and the
    # terms on the box are made per call: the workspace then holds 1.79
    # spectral stacks (4.05 with those held, 4.95 with a buffer of its own
    # for each phase, 8.0 with the whole stack)
    g = Grid(32, 48, 48, params.p0, params.p1)
    Workspace(g, params)  # the grid's cached arrays
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ws = Workspace(g, params)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept <= 2.3 * _stack_bytes(g.spectral_shape)
    assert ws.streamed
    assert ws.scratch.size == ws.spec.size > max(ws.rows_work.size, ws.box_tmp.size)


def test_manufactured_arrays_take_the_bytes_of_their_box(params):
    # L on the forcing's box (28% of the grid at 32^3), U on |j| <= band and
    # Q on |j| <= 2 band, and S, zero without phi_s, not at all
    g = _grid32(params)
    ManufacturedSolution(get_case("gentle"), g, params)  # the grid's cached arrays
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ms = ManufacturedSolution(get_case("gentle"), g, params)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    def box(reach):  # the bytes of a stack on the modes |j| <= reach per axis
        return _stack_bytes([np.count_nonzero(j.ravel() <= r) for j, r in zip(g.mode_index, reach)])

    # the forcing's box: per axis |j| <= max(K, 2 band - 1), K the radius
    # of the ball
    band = ms.case.band
    forcing_box = box([max(k, 2 * band - 1) for k in g.ball])
    assert ms._S is None
    assert 4 * forcing_box < 2 * _stack_bytes(g.spectral_shape)
    assert kept <= forcing_box + box([band] * 3) + box([2 * band] * 3) + 16 * 1024


def test_checkpoint_read_holds_about_one_payload(tmp_path, params):
    g = _grid32(params)
    cfg = config.parse("grid.nx = 32\ngrid.ny = 32\ngrid.np = 32\n"
                       "time.dt = 1e-4\ntime.t_end = 1e-3\n")
    state = ManufacturedSolution(get_case("gentle"), g, params).initial_state()
    path = str(tmp_path / "state.ckpt")
    checkpoint.write_checkpoint(path, state, cfg)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, back = checkpoint.read_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    payload = 4 * 32**3 * 8
    assert back.data.nbytes == payload
    assert peak <= payload + 64 * 1024
