"""Config text format, norm output files, and binary checkpoints."""

import json
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from moistpe import config as config_mod
from moistpe.checkpoint import MAGIC, read_checkpoint, write_checkpoint
from moistpe.config import (
    KEYMAP,
    RETIRED_KEYS,
    RunConfig,
    build_grid,
    build_params,
    build_step_config,
    parse,
    parse_forcing_kind,
    parse_initial_kind,
    serialize,
)
from moistpe.errors import ConfigError, DataError
from moistpe.initial import random_smooth
from moistpe.monitors import NormReport, energy_budget
from moistpe.output import (
    budget_residual_by_time,
    csv_mirror_path,
    norm_rows,
    read_norms,
    write_norms,
)
from moistpe.params import PhysParams
from moistpe.stepper import StepConfig, TrajectorySample, run


# --- config text ----------------------------------------------------------


def test_defaults_roundtrip():
    cfg = RunConfig()
    assert parse(serialize(cfg)) == cfg


def test_custom_values_roundtrip():
    cfg = RunConfig(nx=48, p0=0.17, dt=2.5e-4, theta_bar="linear:1.0,0.5",
                    initial_kind="random_smooth:9,0.5,2",
                    norms_path="/tmp/x.ndjson", checkpoint_every=7)
    assert parse(serialize(cfg)) == cfg


# every checkpoint embeds this text, so its bytes are pinned
DEFAULT_TEXT = """\
grid.nx = 32
grid.ny = 32
grid.np = 32

domain.p0 = 0.2
domain.p1 = 1.0

physics.R = 1.0
physics.cp = 3.5
physics.g = 1.0
physics.f_cor = 1.0
physics.mu_v = 0.01
physics.nu_v = 0.01
physics.mu_theta = 0.01
physics.nu_theta = 0.01
physics.mu_q = 0.01
physics.nu_q = 0.01
physics.theta_bar = constant:1.0
physics.theta_h = constant:0.0
physics.phi_s = zero

time.dt = 0.001
time.t_end = 1.0
time.t0 = 0.0
time.scheme = imex_cnab2

forcing.kind = zero

initial.kind = rest
initial.symmetry = none

output.norms_path = none
output.norms_every = 1
output.checkpoint_path = none
output.checkpoint_every = 0
"""

# every key off its default
OFF_DEFAULT = RunConfig(
    nx=48, ny=40, np=24, p0=0.17, p1=1.3, R=1.5, cp=float("inf"), g=9.81, f_cor=-2.5,
    mu_v=2e-3, nu_v=3e-3, mu_theta=4e-3, nu_theta=5e-3, mu_q=6e-3, nu_q=7e-3,
    theta_bar="linear:1.0,0.5", theta_h="proportional:0.25", phi_s="file:phi.npy",
    dt=2.5e-4, t_end=0.5, t0=0.25, scheme="erk4_fully_explicit",
    forcing_kind="manufactured:gentle", initial_kind="random_smooth:9,0.5,2",
    initial_symmetry="paper_parity", norms_path="/tmp/x.ndjson", norms_every=3,
    checkpoint_path="ck.mpes", checkpoint_every=7)

OFF_DEFAULT_TEXT = """\
grid.nx = 48
grid.ny = 40
grid.np = 24

domain.p0 = 0.17
domain.p1 = 1.3

physics.R = 1.5
physics.cp = inf
physics.g = 9.81
physics.f_cor = -2.5
physics.mu_v = 0.002
physics.nu_v = 0.003
physics.mu_theta = 0.004
physics.nu_theta = 0.005
physics.mu_q = 0.006
physics.nu_q = 0.007
physics.theta_bar = linear:1.0,0.5
physics.theta_h = proportional:0.25
physics.phi_s = file:phi.npy

time.dt = 0.00025
time.t_end = 0.5
time.t0 = 0.25
time.scheme = erk4_fully_explicit

forcing.kind = manufactured:gentle

initial.kind = random_smooth:9,0.5,2
initial.symmetry = paper_parity

output.norms_path = /tmp/x.ndjson
output.norms_every = 3
output.checkpoint_path = ck.mpes
output.checkpoint_every = 7
"""


def test_serialized_default_text_is_pinned():
    assert serialize(RunConfig()) == DEFAULT_TEXT


def test_serialized_off_default_text_is_pinned():
    assert all(getattr(OFF_DEFAULT, f.name) != f.default for f in fields(RunConfig))
    assert serialize(OFF_DEFAULT) == OFF_DEFAULT_TEXT
    assert parse(OFF_DEFAULT_TEXT) == OFF_DEFAULT


def test_readme_config_table_names_exactly_the_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    named = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            named.update(re.findall(r"`([a-z]+\.[A-Za-z0-9_*]+)`", row.split("|")[1]))
    # physics.mu_* and physics.nu_* stand for the six viscosities
    for pattern in ("physics.mu_*", "physics.nu_*"):
        named.discard(pattern)
        named.update(pattern.replace("*", f) for f in ("v", "theta", "q"))
    assert named == set(KEYMAP) | set(RETIRED_KEYS)


def test_comments_and_blank_lines_ignored():
    cfg = parse("# header\n\ngrid.nx = 16\n  # indented comment\ntime.dt = 1e-2\n")
    assert cfg.nx == 16
    assert cfg.dt == 1e-2
    assert cfg.ny == RunConfig().ny


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match=r"line 3.*grid\.nz"):
        parse("grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n")


def test_duplicate_key_names_line():
    with pytest.raises(ConfigError, match=r"line 2.*duplicate.*grid\.nx"):
        parse("grid.nx = 16\ngrid.nx = 32\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1"):
        parse("grid.nx 16\n")


def test_unparseable_value_names_key():
    with pytest.raises(ConfigError, match=r"line 1.*grid\.nx"):
        parse("grid.nx = banana\n")


@pytest.mark.parametrize("text, fragment", [
    ("grid.nx = 7\n", "grid.nx"),
    ("domain.p0 = 1.0\ndomain.p1 = 0.5\n", "domain.p0"),
    ("physics.mu_v = -1e-3\n", "physics.mu_v"),
    ("time.scheme = leapfrog\n", "time.scheme"),
    ("initial.symmetry = mirror\n", "initial.symmetry"),
    ("output.norms_every = 0\n", "output.norms_every"),
    ("physics.theta_bar = wavy:1.0\n", "physics.theta_bar"),
    # non-finite values used to pass and stop the run as a blowup or run on
    ("physics.mu_v = nan\n", "physics.mu_v"),
    ("physics.f_cor = nan\n", "physics.f_cor"),
    ("physics.cp = nan\n", "physics.cp"),
    ("physics.R = inf\n", "physics.R"),
    ("physics.nu_q = inf\n", "physics.nu_q"),
    ("physics.theta_bar = linear:1,nan\n", "physics.theta_bar"),
    ("domain.p1 = inf\n", "domain.p1"),
    ("physics.theta_h = linear:0,inf\n", "physics.theta_h"),
    ("physics.theta_bar = constant:-1\n", "physics.theta_bar"),
    ("initial.kind = random_smooth:1,nan\n", "initial.kind"),
    ("initial.kind = random_smooth:1,inf\n", "initial.kind"),
    # a negative seed used to end in numpy's ValueError when the run drew it
    ("initial.kind = random_smooth:-4,0.5\n", "initial.kind: random_smooth seed"),
])
def test_validation_errors_name_dotted_keys(text, fragment):
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        parse(text)


def test_infinite_cp_is_the_kappa_zero_case():
    cfg = parse("physics.cp = inf\n")
    assert cfg.cp == float("inf")
    assert build_params(cfg).kappa == 0.0


@pytest.mark.parametrize("t_end", ["0.0104", "0.0006"])
def test_end_time_must_be_a_whole_number_of_steps(t_end):
    with pytest.raises(ConfigError, match=r"time\.t_end.*time\.dt"):
        parse(f"time.dt = 1e-3\ntime.t_end = {t_end}\n")


def test_retired_keys_are_ignored_and_never_written():
    cfg = parse("time.adapt = false\ntime.cfl_target = 0.5\n")
    assert cfg == RunConfig()
    text = serialize(cfg)
    assert "time.adapt" not in text and "time.cfl_target" not in text


def test_retired_adapt_true_is_rejected():
    with pytest.raises(ConfigError, match=r"time\.adapt.*removed"):
        parse("time.adapt = true\n")


def test_parse_initial_kind_variants():
    assert parse_initial_kind("rest") == ("rest", {})
    kind, args = parse_initial_kind("random_smooth:42")
    assert kind == "random_smooth"
    assert args == {"seed": 42, "amplitude": 1.0, "band": None}
    _, args = parse_initial_kind("random_smooth:42,0.5,3")
    assert args == {"seed": 42, "amplitude": 0.5, "band": 3}
    _, args = parse_initial_kind("random_smooth:seed=1,band=2")
    assert args == {"seed": 1, "amplitude": 1.0, "band": 2}
    kind, args = parse_initial_kind("file:/tmp/state.mpes")
    assert kind == "file" and args == {"path": "/tmp/state.mpes"}

    for bad in ("random_smooth:", "random_smooth:1,2,3,4", "random_smooth:a",
                "random_smooth:amplitude=2", "random_smooth:1,-0.5", "random_smooth:1,nan",
                "random_smooth:1,inf", "random_smooth:1,1,0", "random_smooth:1,1,-2",
                "random_smooth:-4,0.5", "random_smooth:seed=-1", "warmpool"):
        with pytest.raises(ConfigError, match="initial.kind"):
            parse_initial_kind(bad)


def test_parse_forcing_kind_variants():
    assert parse_forcing_kind("zero") == ("zero", "")
    assert parse_forcing_kind("manufactured:gentle") == ("manufactured", "gentle")
    assert parse_forcing_kind("file:f.npz") == ("file", "f.npz")
    for bad in ("manufactured:", "file:", "windstress"):
        with pytest.raises(ConfigError):
            parse_forcing_kind(bad)


def test_builders_materialize_config():
    cfg = RunConfig(nx=16, ny=16, np=16, p0=0.25, p1=0.75,
                    theta_bar="linear:1.0,0.5", dt=5e-4, t_end=0.1,
                    scheme="erk4_fully_explicit")
    grid = build_grid(cfg)
    assert grid.shape == (16, 16, 16)
    assert grid.Lp == pytest.approx(0.5)
    params = build_params(cfg)
    assert params.theta_bar.kind == "linear"
    assert params.theta_bar.b == 0.5
    step = build_step_config(cfg)
    assert step == StepConfig(dt=5e-4, t_end=0.1, scheme="erk4_fully_explicit")
    # RunConfig reads its physics and domain defaults from PhysParams and its
    # scheme default from StepConfig
    defaults = build_params(RunConfig())
    assert defaults == PhysParams()
    assert build_step_config(RunConfig()).scheme == StepConfig(dt=1.0, t_end=1.0).scheme
    default_grid = build_grid(RunConfig())
    assert (default_grid.p0, default_grid.p1) == (defaults.p0, defaults.p1)


# --- norm output files ----------------------------------------------------


@pytest.fixture()
def short_trajectory(params):
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    st = random_smooth(g, 2, amplitude=0.5, band=2)
    return run(st, params, StepConfig(dt=1e-3, t_end=5e-3), collect_budget=True)


def test_norms_roundtrip_and_mirror(tmp_path, short_trajectory):
    path = tmp_path / "norms.ndjson"
    write_norms(str(path), short_trajectory.samples)
    rows = read_norms(str(path))
    assert len(rows) == len(short_trajectory.samples)
    assert list(rows[0]) == NormReport.field_names() + ["budget_residual", "checksum"]

    # endpoints have no centered difference, so their residual is null
    assert rows[0]["budget_residual"] is None
    assert rows[-1]["budget_residual"] is None
    assert any(r["budget_residual"] is not None for r in rows)

    # JSON round-trips float64 exactly
    for row, sample in zip(rows, short_trajectory.samples):
        assert row["t"] == sample.t
        assert row["l2_v"] == sample.report.l2_v
        assert row["checksum"] == sample.checksum

    csv_path = tmp_path / "norms.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == len(rows) + 1
    assert lines[0].split(",")[0] == "t"


def test_csv_mirror_path_rules():
    assert csv_mirror_path("/a/b/run.ndjson") == "/a/b/run.csv"
    assert csv_mirror_path("/a/b/run.csv") == "/a/b/run_mirror.csv"


def test_budget_residuals_need_uniform_triples():
    assert budget_residual_by_time([]) == {}
    stubs = [TrajectorySample(t, "", None, {}) for t in (0.0, 0.1)]
    assert budget_residual_by_time(stubs) == {}
    ragged = [TrajectorySample(t, "", None, {}) for t in (0.0, 0.1, 0.4, 0.5)]
    assert budget_residual_by_time(ragged) == {}


def test_budget_residuals_of_a_run_too_short_for_the_startup(tmp_path, params):
    # 4 uniform samples reach no centered difference past the startup:
    # every row carries a null residual
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    st = random_smooth(g, 2, amplitude=0.5, band=2)
    traj = run(st, params, StepConfig(dt=1e-3, t_end=3e-3), collect_budget=True)
    assert len(traj.samples) == 4 and budget_residual_by_time(traj.samples) == {}
    path = tmp_path / "norms.ndjson"
    write_norms(str(path), traj.samples)
    assert [r["budget_residual"] for r in read_norms(str(path))] == [None] * 4


def test_budget_residuals_when_the_interval_does_not_divide_the_steps(tmp_path, params):
    # 20 steps sampled every 3: t = 0, 0.003, ..., 0.018 and the final 0.02;
    # the uniform samples still carry residuals, the off-grid final one not
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    st = random_smooth(g, 2, amplitude=0.5, band=2)
    traj = run(st, params, StepConfig(dt=1e-3, t_end=0.02), record_every=3,
               collect_budget=True)
    path = tmp_path / "norms.ndjson"
    write_norms(str(path), traj.samples)
    rows = read_norms(str(path))
    assert len(rows) == 8
    residuals = [r["budget_residual"] for r in rows]
    assert all(r is not None for r in residuals[3:6])
    assert residuals[:3] == [None] * 3 and residuals[6:] == [None] * 2


def test_budget_residuals_of_a_run_far_from_t0_zero(params):
    # at t = 1e4 the spacings of t0 + k dt differ in the last bits of t;
    # energy_budget accepts them, and so does the column (a relative
    # spacing rule of its own left every row null)
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    st = random_smooth(g, 2, amplitude=0.5, band=2).with_time(1e4)
    traj = run(st, params, StepConfig(dt=1e-4, t_end=1e4 + 8e-4), collect_budget=True)
    residuals = [r["budget_residual"] for r in norm_rows(traj.samples)]
    assert residuals[:3] == [None] * 3 and residuals[8] is None
    assert all(r is not None for r in residuals[3:8])
    assert len(energy_budget(traj.samples)) == 3 * 5


# --- checkpoints ----------------------------------------------------------


def test_checkpoint_roundtrip_is_bit_exact(tmp_path, params):
    from moistpe.grid import Grid
    from moistpe.state import State
    g = Grid(16, 16, 16, params.p0, params.p1)
    phys = random_smooth(g, 12, amplitude=1.0).as_physical()
    state = State(phys.v1, phys.v2, phys.theta, phys.q, t=0.625)
    cfg = RunConfig(nx=16, ny=16, np=16, dt=1e-3, t_end=2.0)
    path = tmp_path / "state.mpes"
    write_checkpoint(str(path), state, cfg)

    cfg2, state2 = read_checkpoint(str(path))
    assert cfg2.t0 == state.t
    assert cfg2.with_(t0=cfg.t0) == cfg
    for a, b in zip(state.as_physical().fields, state2.as_physical().fields):
        assert np.array_equal(a.data, b.data)
    assert state2.t == state.t


def test_checkpoint_binary_layout(tmp_path, params):
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    state = random_smooth(g, 1, amplitude=1.0)
    cfg = RunConfig(nx=8, ny=8, np=8)
    path = tmp_path / "s.mpes"
    write_checkpoint(str(path), state, cfg)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == 1
    assert struct.unpack_from("<III", raw, 8) == (8, 8, 8)
    (blob_len,) = struct.unpack_from("<I", raw, 20)
    assert len(raw) == 24 + blob_len + 4 * 8 * 8 * 8 * 8
    text = raw[24:24 + blob_len].decode("utf-8")
    assert "grid.nx = 8" in text


def test_checkpoint_rejects_corruption(tmp_path, params):
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    state = random_smooth(g, 1, amplitude=1.0)
    cfg = RunConfig(nx=8, ny=8, np=8)
    path = tmp_path / "s.mpes"
    write_checkpoint(str(path), state, cfg)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.mpes"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(DataError, match="magic"):
        read_checkpoint(str(bad_magic))

    bad_version = tmp_path / "bad_version.mpes"
    patched = bytearray(raw)
    struct.pack_into("<I", patched, 4, 99)
    bad_version.write_bytes(bytes(patched))
    with pytest.raises(DataError, match="version"):
        read_checkpoint(str(bad_version))

    bad_dims = tmp_path / "bad_dims.mpes"
    patched = bytearray(raw)
    struct.pack_into("<III", patched, 8, 16, 8, 8)
    bad_dims.write_bytes(bytes(patched))
    with pytest.raises(DataError, match="disagree"):
        read_checkpoint(str(bad_dims))

    truncated = tmp_path / "truncated.mpes"
    truncated.write_bytes(bytes(raw[:-100]))
    with pytest.raises(DataError):
        read_checkpoint(str(truncated))


class _FailingFile:
    """A binary file whose writes fail once `allowed` bytes are written."""

    def __init__(self, fh, allowed):
        self.fh, self.allowed = fh, allowed

    def write(self, data):
        self.allowed -= memoryview(data).nbytes
        if self.allowed < 0:
            raise OSError("no space left on device")
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_checkpoint_write_failure_keeps_the_previous_file(tmp_path, params, monkeypatch):
    from moistpe import checkpoint
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    cfg = RunConfig(nx=8, ny=8, np=8)
    path = tmp_path / "ck.mpes"
    write_checkpoint(str(path), random_smooth(g, 1, amplitude=1.0), cfg)
    before = path.read_bytes()

    def failing_open(name, mode):
        return _FailingFile(open(name, mode), allowed=100)

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        write_checkpoint(str(path), random_smooth(g, 2, amplitude=1.0), cfg)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.mpes"]
    monkeypatch.undo()
    write_checkpoint(str(path), random_smooth(g, 2, amplitude=1.0), cfg)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.mpes"]


@pytest.mark.parametrize("size", [20, 22, 23])
def test_checkpoint_rejects_truncated_header(tmp_path, params, size):
    # the header is 24 bytes; a file cut inside the config-length field must
    # raise DataError, not a raw struct.error
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    path = tmp_path / "s.mpes"
    write_checkpoint(str(path), random_smooth(g, 1, amplitude=1.0), RunConfig(nx=8, ny=8, np=8))
    short = tmp_path / "short.mpes"
    short.write_bytes(path.read_bytes()[:size])
    with pytest.raises(DataError, match="header"):
        read_checkpoint(str(short))


def _splice_config(raw: bytes, old: bytes, new: bytes) -> bytes:
    """Replace bytes inside a checkpoint's config block and fix its length field."""
    (blob_len,) = struct.unpack_from("<I", raw, 20)
    blob = raw[24:24 + blob_len].replace(old, new)
    return raw[:20] + struct.pack("<I", len(blob)) + blob + raw[24 + blob_len:]


def test_checkpoint_with_retired_keys_loads(tmp_path, params):
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    cfg = RunConfig(nx=8, ny=8, np=8)
    path = tmp_path / "s.mpes"
    write_checkpoint(str(path), random_smooth(g, 1, amplitude=1.0), cfg)
    legacy = tmp_path / "legacy.mpes"
    legacy.write_bytes(_splice_config(
        path.read_bytes(), b"time.scheme = imex_cnab2\n",
        b"time.scheme = imex_cnab2\ntime.cfl_target = 0.5\ntime.adapt = false\n"))
    assert b"time.adapt = false" in legacy.read_bytes()
    cfg2, state2 = read_checkpoint(str(legacy))
    assert cfg2 == cfg
    _, state = read_checkpoint(str(path))
    for a, b in zip(state.fields, state2.fields):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_rejects_undecodable_config(tmp_path, params):
    from moistpe.grid import Grid
    g = Grid(8, 8, 8, params.p0, params.p1)
    path = tmp_path / "s.mpes"
    write_checkpoint(str(path), random_smooth(g, 1, amplitude=1.0), RunConfig(nx=8, ny=8, np=8))
    raw = bytearray(path.read_bytes())
    raw[30] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="UTF-8"):
        read_checkpoint(str(path))
