"""Exit codes and file outputs of the command-line front end."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import moistpe
from moistpe import config as config_mod
from moistpe import convergence
from moistpe import fields
from moistpe import probes
from moistpe.checkpoint import read_checkpoint, write_checkpoint
from moistpe.cli import MUTATIONS, PROBE_KINDS, _build_forcing, main
from moistpe.config import RunConfig, build_params
from moistpe.errors import ConfigError
from moistpe.grid import Grid
from moistpe.initial import random_smooth
from moistpe.output import read_norms
from moistpe.stepper import StepConfig, run


def _write_config(tmp_path, name="run.cfg", **overrides):
    base = {
        "grid.nx": 8, "grid.ny": 8, "grid.np": 8,
        "time.dt": "1e-3", "time.t_end": "5e-3",
        "initial.kind": "random_smooth:3,0.5,2",
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


# --- usage and configuration errors ---------------------------------------


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_run_requires_config(capsys):
    assert main(["run"]) == 1
    assert "--config is required" in capsys.readouterr().err


def test_run_missing_config_file(capsys):
    assert main(["run", "--config", "/no/such/file.cfg"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_run_invalid_config_value(tmp_path, capsys):
    cfg = _write_config(tmp_path, **{"grid.nx": 7})
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "grid.nx" in err


def test_run_non_finite_viscosity(tmp_path, capsys):
    # used to start and stop as a blowup (exit 2)
    cfg = _write_config(tmp_path, **{"physics.mu_v": "nan"})
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    assert "configuration error: physics.mu_v" in capsys.readouterr().err


def test_run_infinite_cp(tmp_path):
    cfg = _write_config(tmp_path, **{"physics.cp": "inf"})
    assert main(["run", "--config", cfg, "--quiet"]) == 0


def test_verify_suite_selection_errors(capsys):
    assert main(["verify", "--suite", " , "]) == 1
    assert main(["verify", "--suite", "spectra"]) == 1
    assert main(["verify", "--suite", "invariants", "--mutate", "gravity"]) == 1


@pytest.mark.parametrize("argv", [
    ["run", "--bogus"],
    ["run", "--config"],
    ["run", "--seed", "abc"],
    [],
    ["probe", "telescope"],
    ["verify", "--suite", "invariants", "--mutate", "gravity"],
    ["verify", "--suite", " , "],
], ids=["unknown-option", "option-without-argument", "bad-int", "no-command",
        "unknown-probe", "unknown-mutation", "empty-suite"])
def test_usage_errors_exit_1_with_the_usage(capsys, argv):
    # argparse's own errors exit 1 like the hand-checked ones, not 2, the
    # blowup code
    assert main(argv) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_verify_takes_no_config(capsys):
    # verify never read --config, so passing one is a usage error rather
    # than a silently ignored file
    assert main(["verify", "--suite", "invariants", "--config", "/nonexistent/x.cfg"]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["rest", "file"])
def test_run_seed_needs_random_smooth(tmp_path, capsys, kind):
    token = "rest"
    if kind == "file":
        ck = tmp_path / "start.bin"
        write_checkpoint(str(ck), random_smooth(Grid(8, 8, 8, 0.2, 1.0), 1, band=2),
                         RunConfig(nx=8, ny=8, np=8))
        token = f"file:{ck}"
    cfg = _write_config(tmp_path, **{"initial.kind": token})
    assert main(["run", "--config", cfg, "--quiet", "--seed", "4"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--seed" in err and repr(kind) in err


def test_probe_unknown_kind(capsys):
    assert main(["probe", "telescope"]) == 1
    assert "telescope" in capsys.readouterr().err


def test_probe_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.nx = banana\n")
    assert main(["probe", "trilinear", "--config", str(bad)]) == 1


def test_registry_contents():
    assert set(MUTATIONS) == {"none", "coriolis", "no-dealias"}
    assert PROBE_KINDS == ("trilinear", "minkowski", "gronwall")


def test_public_names_resolve():
    missing = [name for name in moistpe.__all__ if not hasattr(moistpe, name)]
    assert not missing
    # the standalone viscosity operators left the package: the viscous
    # operator is the one inside tendency
    for gone in ("apply_viscosity_v", "apply_viscosity_q", "apply_viscosity_theta"):
        assert gone not in moistpe.__all__
        assert not hasattr(moistpe, gone) and not hasattr(moistpe.model, gone)


# --- run --------------------------------------------------------------------


def test_run_writes_norms_and_checkpoint(tmp_path, capsys):
    norms = tmp_path / "norms.ndjson"
    ck = tmp_path / "final.mpes"
    cfg = _write_config(
        tmp_path,
        **{"output.norms_path": norms, "output.checkpoint_path": ck})
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "completed t = 0.005" in out

    rows = read_norms(str(norms))
    assert len(rows) == 6
    assert rows[0]["t"] == 0.0
    assert rows[-1]["t"] == pytest.approx(5e-3)
    assert (tmp_path / "norms.csv").exists()

    ck_cfg, state = read_checkpoint(str(ck))
    assert state.t == pytest.approx(5e-3)
    assert ck_cfg.t0 == pytest.approx(5e-3)


def test_run_seed_override(tmp_path):
    norms = tmp_path / "n.ndjson"
    cfg = _write_config(tmp_path, **{"output.norms_path": norms})
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    base = read_norms(str(norms))[-1]["checksum"]
    assert main(["run", "--config", cfg, "--quiet", "--seed", "4"]) == 0
    other = read_norms(str(norms))[-1]["checksum"]
    assert base != other


def test_run_paper_parity_draw_starts_in_its_classes(tmp_path):
    # initial.symmetry reaches random_smooth as written: the first row's
    # parity deviations are roundoff of each field's L2 norm
    norms = tmp_path / "parity.ndjson"
    cfg = _write_config(
        tmp_path,
        **{"grid.nx": 16, "grid.ny": 16, "grid.np": 16,
           "initial.kind": "random_smooth:5,0.7", "initial.symmetry": "paper_parity",
           "output.norms_path": norms})
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    first = read_norms(str(norms))[0]
    for name in ("v", "theta", "q"):
        assert first[f"parity_dev_{name}"] <= 1e-13 * first[f"l2_{name}"]


def test_run_norms_path_flag_override(tmp_path):
    cfg = _write_config(tmp_path)
    target = tmp_path / "flagged.ndjson"
    assert main(["run", "--config", cfg, "--quiet", "--out", str(target)]) == 0
    assert target.exists() and len(read_norms(str(target))) == 6


def test_run_manufactured_forcing(tmp_path):
    cfg = _write_config(
        tmp_path,
        **{"grid.nx": 16, "grid.ny": 16, "grid.np": 16,
           "initial.kind": "rest", "forcing.kind": "manufactured:gentle"})
    assert main(["run", "--config", cfg, "--quiet"]) == 0


def test_run_resumes_from_checkpoint(tmp_path):
    ck = tmp_path / "resume.mpes"
    cfg_a = _write_config(tmp_path, "a.cfg", **{"output.checkpoint_path": ck})
    assert main(["run", "--config", cfg_a, "--quiet"]) == 0

    cfg_b = _write_config(
        tmp_path, "b.cfg",
        **{"initial.kind": f"file:{ck}", "time.t_end": "1e-2"})
    assert main(["run", "--config", cfg_b, "--quiet"]) == 0

    cfg_c = _write_config(
        tmp_path, "c.cfg",
        **{"grid.nx": 16, "grid.ny": 16, "grid.np": 16,
           "initial.kind": f"file:{ck}"})
    assert main(["run", "--config", cfg_c, "--quiet"]) == 1


def test_run_resumes_from_a_checkpoint_an_ulp_past_its_end_time(tmp_path):
    # the last time, 6 * 1e-4, is an ulp above t_end = 6e-4; the checkpoint
    # records both
    ck = tmp_path / "resume.mpes"
    cfg_a = _write_config(tmp_path, "a.cfg", **{"time.dt": "1e-4", "time.t_end": "6e-4",
                                                "output.checkpoint_path": ck})
    assert main(["run", "--config", cfg_a, "--quiet"]) == 0
    norms = tmp_path / "b.ndjson"
    cfg_b = _write_config(tmp_path, "b.cfg", **{"time.dt": "1e-4", "time.t_end": "1e-3",
                                                "initial.kind": f"file:{ck}",
                                                "output.norms_path": norms})
    assert main(["run", "--config", cfg_b, "--quiet"]) == 0
    assert len(read_norms(str(norms))) == 5


@pytest.mark.parametrize("size", [20, 22, 23])
def test_run_truncated_checkpoint_header(tmp_path, capsys, size):
    ck = tmp_path / "full.mpes"
    state = random_smooth(Grid(8, 8, 8, 0.2, 1.0), 3, amplitude=0.5)
    write_checkpoint(str(ck), state, RunConfig(nx=8, ny=8, np=8))
    short = tmp_path / "short.mpes"
    short.write_bytes(ck.read_bytes()[:size])
    cfg = _write_config(tmp_path, **{"initial.kind": f"file:{short}"})
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "header" in err
    assert "Traceback" not in err


def _assert_configuration_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize("t_end", ["0.0104", "0.0006"])
def test_run_end_time_off_the_step_grid(tmp_path, capsys, t_end):
    cfg = _write_config(tmp_path, **{"time.t_end": t_end})
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    _assert_configuration_error(capsys, "time.t_end", "time.dt")


def test_run_resume_span_off_the_step_grid(tmp_path, capsys):
    # the checkpoint is at t = 0.005; 0.01 is five steps of 2e-3 from
    # time.t0 = 0 but two and a half from the checkpoint's time
    ck = tmp_path / "half.mpes"
    cfg_a = _write_config(tmp_path, "a.cfg", **{"output.checkpoint_path": ck})
    assert main(["run", "--config", cfg_a, "--quiet"]) == 0
    ck_cfg, state = read_checkpoint(str(ck))
    with pytest.raises(ConfigError, match=r"time\.t_end"):
        run(state, build_params(ck_cfg), StepConfig(dt=2e-3, t_end=0.01))

    cfg_b = _write_config(
        tmp_path, "b.cfg",
        **{"initial.kind": f"file:{ck}", "time.dt": "2e-3", "time.t_end": "1e-2"})
    capsys.readouterr()
    assert main(["run", "--config", cfg_b, "--quiet"]) == 1
    _assert_configuration_error(capsys, "time.t_end")


def test_run_undecodable_checkpoint_config(tmp_path, capsys):
    ck = tmp_path / "bad.mpes"
    write_checkpoint(str(ck), random_smooth(Grid(8, 8, 8, 0.2, 1.0), 3, amplitude=0.5),
                     RunConfig(nx=8, ny=8, np=8))
    raw = bytearray(ck.read_bytes())
    raw[30] = 0xFF
    ck.write_bytes(bytes(raw))
    cfg = _write_config(tmp_path, **{"initial.kind": f"file:{ck}"})
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    _assert_configuration_error(capsys, str(ck))


def test_run_resume_with_other_pressure_bounds(tmp_path, capsys):
    # used to fail inside the run with a generic error
    ck = tmp_path / "resume.mpes"
    cfg_a = _write_config(tmp_path, "a.cfg", **{"output.checkpoint_path": ck})
    assert main(["run", "--config", cfg_a, "--quiet"]) == 0
    capsys.readouterr()
    cfg_b = _write_config(tmp_path, "b.cfg", **{"initial.kind": f"file:{ck}", "domain.p0": "0.1"})
    assert main(["run", "--config", cfg_b, "--quiet"]) == 1
    _assert_configuration_error(capsys, "initial.kind", "(0.2, 1.0)", "(0.1, 1.0)")


@pytest.mark.parametrize("content", [b"this is not a NumPy file\n", b"",
                                     b"PK\x03\x04 not a zip archive"])
@pytest.mark.parametrize("key", ["physics.phi_s", "forcing.kind"])
def test_run_input_file_not_numpy(tmp_path, capsys, key, content):
    junk = tmp_path / "junk.npy"
    junk.write_bytes(content)
    cfg = _write_config(tmp_path, **{key: f"file:{junk}"})
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    _assert_configuration_error(capsys, key, str(junk))


def test_run_phi_s_archive_instead_of_array(tmp_path, capsys):
    archive = tmp_path / "phi.npz"
    np.savez(archive, phi=np.zeros((8, 8)))
    cfg = _write_config(tmp_path, **{"physics.phi_s": f"file:{archive}"})
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    _assert_configuration_error(capsys, "physics.phi_s")


def _cli(*args, timeout=120):
    """The CLI in a fresh interpreter, through `python -m moistpe`."""
    src = os.path.dirname(os.path.dirname(moistpe.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "moistpe", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _phi_s_with_inf(tmp_path):
    phi = np.zeros((8, 8))
    phi[2, 5] = np.inf
    np.save(tmp_path / "phi.npy", phi)
    return tmp_path / "phi.npy", "phi.npy"


def _forcing_with_nan(tmp_path):
    fields = {k: np.zeros((8, 8, 8)) for k in ("fv1", "fv2", "ftheta", "fq")}
    fields["ftheta"][1, 2, 3] = np.nan
    np.savez(tmp_path / "forcing.npz", **fields)
    return tmp_path / "forcing.npz", "ftheta"


@pytest.mark.parametrize("key, make", [("physics.phi_s", _phi_s_with_inf),
                                       ("forcing.kind", _forcing_with_nan)])
def test_run_non_finite_input_file(tmp_path, key, make):
    # both used to load and then stop as a blowup at the first step
    path, array = make(tmp_path)
    proc = _cli("run", "--config", _write_config(tmp_path, **{key: f"file:{path}"}), "--quiet")
    assert proc.returncode == 1
    line, = proc.stderr.splitlines()
    assert line.startswith("configuration error: ") and "non-finite" in line
    assert key in line and array in line


@pytest.mark.parametrize("dtype, value", [("U4", "1.5"), (complex, 1 + 2j)], ids=["str", "complex"])
@pytest.mark.parametrize("key", ["physics.phi_s", "forcing.kind"])
def test_run_input_file_of_the_wrong_dtype(tmp_path, capsys, key, dtype, value):
    # a string array used to end in a traceback, and a complex one ran on
    # with its imaginary part dropped
    if key == "physics.phi_s":
        path, array = tmp_path / "phi.npy", "phi.npy"
        np.save(path, np.full((8, 8), value, dtype=dtype))
    else:
        path, array = tmp_path / "forcing.npz", "fq"
        fields = {k: np.zeros((8, 8, 8)) for k in ("fv1", "fv2", "ftheta")}
        np.savez(path, fq=np.full((8, 8, 8), value, dtype=dtype), **fields)
    cfg = _write_config(tmp_path, **{key: f"file:{path}"})
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    _assert_configuration_error(capsys, key, array, "dtype")


def test_run_file_forcing_is_read_only(tmp_path):
    fields = {k: np.full((8, 8, 8), 0.5) for k in ("fv1", "fv2", "ftheta", "fq")}
    np.savez(tmp_path / "forcing.npz", **fields)
    cfg = config_mod.load(
        _write_config(tmp_path, **{"forcing.kind": f"file:{tmp_path / 'forcing.npz'}"}))
    forcing = _build_forcing(cfg, config_mod.build_grid(cfg), build_params(cfg))
    assert not forcing(0.0).flags.writeable


@pytest.mark.parametrize("key", ["output.norms_path", "output.checkpoint_path"])
def test_run_output_directory_missing(tmp_path, capsys, monkeypatch, key):
    target = tmp_path / "missing" / "out.dat"
    cfg = _write_config(tmp_path, **{key: target})

    def must_not_step(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    monkeypatch.setattr("moistpe.cli.run_trajectory", must_not_step)
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    _assert_configuration_error(capsys, key, str(tmp_path / "missing"))


def test_run_out_flag_directory_missing(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    target = tmp_path / "missing" / "n.ndjson"
    assert main(["run", "--config", cfg, "--quiet", "--out", str(target)]) == 1
    _assert_configuration_error(capsys, "output.norms_path")


@pytest.mark.parametrize("argv", [["verify", "--suite", "invariants"], ["probe", "minkowski"]],
                         ids=["verify", "probe"])
def test_out_flag_directory_missing_stops_before_the_work(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command started before --out was checked")

    monkeypatch.setattr(probes, "invariants_run", must_not_run)
    monkeypatch.setattr(probes, "minkowski_suite", must_not_run)
    target = tmp_path / "missing" / "x.ndjson"
    assert main(argv + ["--quiet", "--out", str(target)]) == 1
    _assert_configuration_error(capsys, "--out", str(tmp_path / "missing"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["verify", "--suite", "invariants"], ["probe", "minkowski"]],
                         ids=["verify", "probe"])
def test_out_flag_naming_a_directory_stops_before_the_work(tmp_path, capsys, monkeypatch,
                                                           argv):
    # the rows used to be written only after the whole suite, into an
    # IsADirectoryError traceback
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command started before --out was checked")

    monkeypatch.setattr(probes, "invariants_run", must_not_run)
    monkeypatch.setattr(probes, "minkowski_suite", must_not_run)
    folder = tmp_path / "out"
    folder.mkdir()
    assert main(argv + ["--quiet", "--out", str(folder)]) == 1
    _assert_configuration_error(capsys, "--out", str(folder), "is a directory")
    assert list(tmp_path.iterdir()) == [folder] and list(folder.iterdir()) == []


def test_run_checkpoint_path_naming_a_directory_stops_before_the_run(tmp_path, capsys,
                                                                     monkeypatch):
    folder = tmp_path / "out"
    folder.mkdir()
    cfg = _write_config(tmp_path, **{"output.checkpoint_path": folder})

    def must_not_step(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    monkeypatch.setattr("moistpe.cli.run_trajectory", must_not_step)
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    _assert_configuration_error(capsys, "output.checkpoint_path", str(folder), "is a directory")
    assert list(folder.iterdir()) == []


@pytest.mark.parametrize("via", ["config", "--out"])
def test_run_whose_csv_mirror_is_a_directory_stops_before_the_run(tmp_path, capsys,
                                                                  monkeypatch, via):
    # the NDJSON used to be written after the whole run, and its CSV mirror
    # (n.csv next to n.ndjson) then ended in an IsADirectoryError traceback
    mirror = tmp_path / "n.csv"
    mirror.mkdir()
    norms = str(tmp_path / "n.ndjson")
    cfg = _write_config(tmp_path, **({"output.norms_path": norms} if via == "config" else {}))
    flags = ["--out", norms] if via == "--out" else []

    def must_not_step(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    monkeypatch.setattr("moistpe.cli.run_trajectory", must_not_step)
    assert main(["run", "--config", cfg, "--quiet"] + flags) == 1
    _assert_configuration_error(capsys, "output.norms_path", "CSV mirror", str(mirror),
                                "is a directory")
    assert sorted(tmp_path.iterdir()) == [mirror, tmp_path / "run.cfg"]
    assert list(mirror.iterdir()) == []


@pytest.mark.parametrize("case", ["mirror", "norms", "out", "via-parent"])
def test_run_whose_output_paths_collide_stops_before_the_run(tmp_path, capsys, monkeypatch,
                                                             case):
    # the norms NDJSON, its CSV mirror and the checkpoint used to overwrite
    # one another: out.csv ended up holding the checkpoint
    norms, checkpoint = {"mirror": ("out.ndjson", "out.csv"), "norms": ("a.ndjson", "a.ndjson"),
                         "out": ("b.ndjson", "b.csv"),
                         "via-parent": ("c.ndjson", "sub/../c.csv")}[case]
    (tmp_path / "sub").mkdir()
    overrides = {"output.checkpoint_path": tmp_path / checkpoint}
    flags = []
    if case == "out":
        flags = ["--out", str(tmp_path / norms)]
    else:
        overrides["output.norms_path"] = tmp_path / norms
    cfg = _write_config(tmp_path, **overrides)

    def must_not_step(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    monkeypatch.setattr("moistpe.cli.run_trajectory", must_not_step)
    assert main(["run", "--config", cfg, "--quiet"] + flags) == 1
    norms_key = "--out (output.norms_path)" if case == "out" else "output.norms_path"
    _assert_configuration_error(capsys, norms_key, "output.checkpoint_path", "name the same file")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "sub"]


def test_run_may_checkpoint_onto_the_file_it_resumes_from(tmp_path):
    ck = tmp_path / "state.mpes"
    cfg = _write_config(tmp_path, "a.cfg", **{"output.checkpoint_path": ck})
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    cfg = _write_config(tmp_path, "b.cfg", **{"initial.kind": f"file:{ck}",
                                              "time.t_end": "1e-2",
                                              "output.checkpoint_path": ck})
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    assert read_checkpoint(str(ck))[1].t == pytest.approx(1e-2)


def test_run_blowup_exit_code(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        **{"initial.kind": "random_smooth:7,300", "time.dt": "0.2",
           "time.t_end": "2.0"})
    assert main(["run", "--config", cfg, "--quiet"]) == 2
    assert "blowup at t =" in capsys.readouterr().err


def test_run_blowup_is_quiet_and_names_what_tripped(tmp_path):
    # the diverging step overflows inside the tendency; only the blowup line
    # may reach stderr
    cfg = _write_config(
        tmp_path,
        **{"initial.kind": "random_smooth:3,1e5", "time.dt": "0.05", "time.t_end": "1.0"})
    proc = _cli("run", "--config", cfg, "--quiet")
    assert proc.returncode == 2
    assert "Warning" not in proc.stderr
    line, = proc.stderr.splitlines()
    t = float(line.split("blowup at t = ")[1].split()[0])
    step = round(t / 0.05)
    assert line.startswith(f"blowup at t = {t:.6g} (step {step}): ||")
    name = line.split("||")[1]
    assert name in ("v1", "v2", "theta", "q")
    assert "_L2 = " in line and ", limit " in line


def test_run_blowup_keeps_the_rows_recorded_before_it(tmp_path, capsys):
    norms = tmp_path / "n.ndjson"
    cfg = _write_config(
        tmp_path,
        **{"initial.kind": "random_smooth:3,1e3", "time.dt": "0.05",
           "time.t_end": "1.0", "output.norms_path": norms})
    assert main(["run", "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    step = int(err.split("(step ")[1].split(")")[0])
    assert step >= 2  # this run diverges at step 7
    # one row per step up to the last state that passed the blowup check
    times = [row["t"] for row in read_norms(str(norms))]
    assert times == pytest.approx([0.05 * k for k in range(step)])
    assert len((tmp_path / "n.csv").read_text().splitlines()) == 1 + step


@pytest.mark.parametrize("amplitude", ["1e3", "1e5"])
def test_run_blowup_keeps_the_last_good_checkpoint(tmp_path, capsys, amplitude):
    # a final checkpoint of the diverged state would overwrite the rolling
    # one (1e3) or fail on its non-finite values and exit 1 (1e5)
    ck = tmp_path / "ck.bin"
    cfg = _write_config(
        tmp_path,
        **{"initial.kind": f"random_smooth:3,{amplitude}", "time.dt": "0.05",
           "time.t_end": "1.0", "output.checkpoint_path": ck,
           "output.checkpoint_every": 1})
    assert main(["run", "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    t_blowup = float(err.split("blowup at t = ")[1].split()[0])
    _, state = read_checkpoint(str(ck))
    assert state.t == pytest.approx(t_blowup - 0.05)
    assert np.all(np.isfinite(state.data))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin", "run.cfg"]


# --- verify -----------------------------------------------------------------


def test_module_entry_point_verifies():
    proc = _cli("verify", "--suite", "invariants", "--quiet", timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_verify_invariants_passes(tmp_path, capsys):
    out = tmp_path / "checks.ndjson"
    assert main(["verify", "--suite", "invariants", "--quiet",
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 11
    assert all(r["passed"] for r in rows)
    assert {r["suite"] for r in rows} == {"invariants"}


def test_verify_invariants_catches_rotation_defect(tmp_path, capsys):
    out = tmp_path / "mutated.ndjson"
    assert main(["verify", "--suite", "invariants", "--mutate", "coriolis",
                 "--quiet", "--out", str(out)]) == 3
    assert "verification FAILED" in capsys.readouterr().err
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    failed = {r["name"] for r in rows if not r["passed"]}
    assert failed
    assert failed <= {"energy_budget", "coriolis_work", "scalar_monotonicity"}
    assert "coriolis_work" in failed


def test_verify_forwards_seed(monkeypatch):
    calls = []

    def fake_invariants(**kwargs):
        calls.append(kwargs)
        return []

    monkeypatch.setattr(probes, "invariants_run", fake_invariants)
    assert main(["verify", "--suite", "invariants", "--seed", "5", "--quiet"]) == 0
    assert main(["verify", "--suite", "invariants", "--quiet"]) == 0
    assert calls[0]["seed"] == 5
    assert calls[1].get("seed", 11) == 11


@pytest.mark.parametrize("flags", [["--mutate", "coriolis"], ["--seed", "3"],
                                   ["--mutate", "none", "--seed", "0"]],
                         ids=["mutate", "seed", "both"])
def test_verify_flags_of_the_invariants_need_that_suite(capsys, monkeypatch, flags):
    # the convergence suite used to run faithful and unseeded and could exit 0
    def must_not_run(*args, **kwargs):
        raise AssertionError("verify started a suite")

    monkeypatch.setattr(convergence, "suite", must_not_run)
    assert main(["verify", "--suite", "convergence", "--quiet"] + flags) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "invariants" in err and "Traceback" not in err
    assert all(flag in err for flag in flags if flag.startswith("--"))


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "invariants", "--seed", "-1"],
    ["probe", "minkowski", "--seed", "-700"],
    ["probe", "gronwall", "--seed", "-3"],
    ["probe", "trilinear", "--seed", "1.5"],
    ["run", "--config", "unread.cfg", "--seed", "-2"],
], ids=["verify", "minkowski", "gronwall", "trilinear-float", "run"])
def test_seed_is_an_integer_of_at_least_zero(capsys, monkeypatch, argv):
    # a negative seed used to reach numpy's generator and end in its
    # ValueError traceback
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command started before --seed was checked")

    for name in ("invariants_run", "minkowski_suite", "trilinear_suite", "gronwall_probe"):
        monkeypatch.setattr(probes, name, must_not_run)
    assert main(argv + ["--quiet"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--seed" in err and repr(argv[-1]) in err
    assert "Traceback" not in err


def test_run_with_a_negative_random_smooth_seed_is_a_configuration_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, **{"initial.kind": "random_smooth:-4,0.5"})
    assert main(["run", "--config", cfg, "--quiet"]) == 1
    _assert_configuration_error(capsys, "initial.kind", "seed must be >= 0")


# --- probe ------------------------------------------------------------------


@pytest.fixture()
def probe_cfg(tmp_path):
    return _write_config(tmp_path, "probe.cfg",
                         **{"grid.nx": 16, "grid.ny": 16, "grid.np": 16})


def test_probe_trilinear(tmp_path, probe_cfg, capsys):
    out = tmp_path / "tri.ndjson"
    assert main(["probe", "trilinear", "--config", probe_cfg, "--quiet",
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[0]["check"] == "constant_fields"
    assert rows[0]["value"] == pytest.approx(rows[0]["expected"], rel=1e-12)
    assert len(rows) == 101


def test_probe_minkowski(tmp_path, probe_cfg):
    out = tmp_path / "mink.ndjson"
    assert main(["probe", "minkowski", "--config", probe_cfg, "--quiet",
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 100
    assert not any(r["violated"] for r in rows)


def test_probe_gronwall(tmp_path, probe_cfg):
    out = tmp_path / "gron.ndjson"
    assert main(["probe", "gronwall", "--config", probe_cfg, "--quiet",
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    fitted = {r["form"] for r in rows if "fitted_constant" in r}
    assert fitted == {"vp", "thetap", "lapv", "laptheta"}


def test_probe_gronwall_reads_the_config(tmp_path, capsys):
    # a strong rotation makes this 16^3 run diverge at step 7; the probe
    # used to run its own 16^3 default parameters and exit 0
    cfg = _write_config(tmp_path, "probe.cfg",
                        **{"grid.nx": 16, "grid.ny": 16, "grid.np": 16,
                           "physics.f_cor": "1e4"})
    assert main(["probe", "gronwall", "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("blowup at t = 0.007 (step 7): ||")


def test_probe_gronwall_seed(monkeypatch):
    # --seed 0 is a seed like any other; 11 is the default only when omitted
    calls = []

    def fake_gronwall(**kwargs):
        calls.append(kwargs)
        return {"series": {}, "fitted": {}}

    monkeypatch.setattr(probes, "gronwall_probe", fake_gronwall)
    for extra in (["--seed", "0"], ["--seed", "4"], []):
        assert main(["probe", "gronwall", "--quiet", *extra]) == 0
    assert [c.get("seed", 11) for c in calls] == [0, 4, 11]


# --- the thread count -----------------------------------------------------


@pytest.fixture
def fresh_workers():
    """The worker count read from the environment again, and once more
    after the test."""
    fields._workers.cache_clear()
    yield
    fields._workers.cache_clear()


def test_thread_count_is_read_once(monkeypatch, fresh_workers):
    monkeypatch.setenv("MOISTPE_THREADS", "2")
    assert fields._workers() == 2
    monkeypatch.setenv("MOISTPE_THREADS", "3")
    assert fields._workers() == 2


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_run_rejects_a_malformed_thread_count(tmp_path, capsys, monkeypatch, fresh_workers,
                                              value):
    monkeypatch.setenv("MOISTPE_THREADS", value)
    assert main(["run", "--config", _write_config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "MOISTPE_THREADS" in err
