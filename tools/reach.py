"""List the statements of the moistpe package that a fixed set of command
lines never executes.

    python tools/reach.py

It takes no options.  In a temporary directory it writes the inputs and runs
each command line of COMMANDS through moistpe.cli.main, under sys.settrace
limited to the files of src/moistpe next to this script's parent (the
package is imported from there, under the trace):

  * a forced ERK4 run at 40^3, which takes the streamed inverse;
  * an IMEX run with a norm row every step (6 of them, enough for a
    budget residual past the startup), a rolling checkpoint, paper_parity
    data, a linear theta_bar, a proportional theta_h and a phi_s file;
  * a run forced from a file, a resume from a checkpoint and a blowup;
  * verify --suite invariants under each --mutate;
  * the three probes;
  * verify --suite convergence, its studies at reduced sizes (REDUCED);
  * verify and a probe with --out in a missing directory, verify with
    --out naming a directory, a run whose CSV mirror of its norms path
    is a directory, a run whose checkpoint path is that mirror, verify
    with a negative --seed and verify --mutate without the invariants
    suite (each exit 1 before any work).

Each command's exit code is printed, then, per module, the line numbers of
the statements nothing executed (runs of them as first-last), docstrings
left out.  A pass takes about 7 s on a 2-core host.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "moistpe"

SMALL = {"grid.nx": 16, "grid.ny": 16, "grid.np": 16}

# name -> config overrides of each run (a value "{dir}/..." is a file in the
# temporary directory)
CONFIGS = {
    "forced_erk4_40": {"grid.nx": 40, "grid.ny": 40, "grid.np": 40,
                       "time.scheme": "erk4_fully_explicit", "time.dt": "1e-4",
                       "time.t_end": "3e-4", "initial.kind": "rest",
                       "forcing.kind": "manufactured:gentle", "output.norms_every": 3,
                       "output.norms_path": "{dir}/forced.ndjson",
                       "output.checkpoint_path": "{dir}/forced.mpes"},
    "imex_dense": {**SMALL, "time.dt": "1e-3", "time.t_end": "5e-3",
                   "initial.kind": "random_smooth:3,0.5", "initial.symmetry": "paper_parity",
                   "physics.theta_bar": "linear:1.0,0.5",
                   "physics.theta_h": "proportional:0.1",
                   "physics.phi_s": "file:{dir}/phi_s.npy",
                   "output.norms_path": "{dir}/dense.ndjson",
                   "output.checkpoint_path": "{dir}/dense.mpes",
                   "output.checkpoint_every": 1},
    "file_forced": {**SMALL, "time.dt": "1e-3", "time.t_end": "2e-3",
                    "initial.kind": "random_smooth:4,0.5",
                    "forcing.kind": "file:{dir}/forcing.npz",
                    "output.norms_path": "{dir}/file_forced.ndjson"},
    "resume": {**SMALL, "time.dt": "1e-3", "time.t_end": "7e-3",
               "initial.kind": "file:{dir}/dense.mpes",
               "output.norms_path": "{dir}/resume.ndjson"},
    "blowup": {**SMALL, "time.dt": "0.05", "time.t_end": "1.0",
               "initial.kind": "random_smooth:3,1e3",
               "output.checkpoint_path": "{dir}/blowup.mpes",
               "output.checkpoint_every": 1},
    "probes": SMALL,
    "collide": {**SMALL, "output.norms_path": "{dir}/collide.ndjson",
                "output.checkpoint_path": "{dir}/collide.csv"},
}

COMMANDS = [
    ["run", "--config", "{dir}/forced_erk4_40.cfg", "--quiet"],
    ["run", "--config", "{dir}/imex_dense.cfg", "--quiet"],
    ["run", "--config", "{dir}/file_forced.cfg", "--quiet"],
    ["run", "--config", "{dir}/resume.cfg", "--quiet"],
    ["run", "--config", "{dir}/blowup.cfg", "--quiet"],
    *(["verify", "--suite", "invariants", "--mutate", m, "--quiet",
       "--out", f"{{dir}}/invariants_{m}.ndjson"] for m in ("none", "coriolis", "no-dealias")),
    *(["probe", kind, "--config", "{dir}/probes.cfg", "--quiet",
       "--out", f"{{dir}}/{kind}.ndjson"] for kind in ("trilinear", "minkowski", "gronwall")),
    ["verify", "--suite", "convergence", "--quiet", "--out", "{dir}/convergence.ndjson"],
    # --out into a missing directory: exit 1 before any work
    ["verify", "--suite", "invariants", "--quiet", "--out", "{dir}/missing/x.ndjson"],
    ["probe", "minkowski", "--config", "{dir}/probes.cfg", "--quiet",
     "--out", "{dir}/missing/x.ndjson"],
    # --out naming a directory, or a norms path whose CSV mirror is one
    # (mirror.csv, made by _write_inputs): exit 1 before any work
    ["verify", "--suite", "invariants", "--quiet", "--out", "{dir}"],
    ["run", "--config", "{dir}/probes.cfg", "--quiet", "--out", "{dir}/mirror.ndjson"],
    # a checkpoint path that is the norms path's CSV mirror, a negative
    # seed, and --mutate without the invariants suite: exit 1 before any work
    ["run", "--config", "{dir}/collide.cfg", "--quiet"],
    ["verify", "--suite", "invariants", "--seed", "-1", "--quiet"],
    ["verify", "--suite", "convergence", "--mutate", "coriolis", "--quiet"],
]

# the convergence studies' arguments for verify --suite convergence
REDUCED = {"spatial_study": {"resolutions": (16, 24, 32), "dt": 2e-4, "t_end": 1e-3},
           "temporal_study": {"n": 16, "t_end": 1e-3}}


def _is_docstring(parent: ast.AST, node: ast.stmt) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and node is parent.body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(source: str) -> list[tuple[int, int]]:
    """The statements of source but docstrings, in source order, each as
    the (first, last) lines whose line events mean it ran: from its first
    decorator or its own line to the line before its body (its last line
    for a simple statement)."""
    spans = []
    for parent in ast.walk(ast.parse(source)):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(parent, name, [])
            for node in block if isinstance(block, list) else []:
                if not isinstance(node, ast.stmt) or _is_docstring(parent, node):
                    continue
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                body = getattr(node, "body", None)
                last = max(first, body[0].lineno - 1) if body else node.end_lineno
                spans.append((first, last))
    return sorted(spans)


def unexecuted(source: str, hit: set[int]) -> list[list[int]]:
    """The statements of source (statements) none of whose lines is in hit,
    in runs of consecutive ones, each run the list of their first lines."""
    runs: list[list[int]] = []
    previous_missed = False
    for first, last in statements(source):
        missed = not any(line in hit for line in range(first, last + 1))
        if missed and previous_missed:
            runs[-1].append(first)
        elif missed:
            runs.append([first])
        previous_missed = missed
    return runs


def traced(root: Path, fn) -> dict[str, set[int]]:
    """Call fn under sys.settrace and return, per file under root, the
    lines whose line events fired.  The trace function in place before is
    put back."""
    prefix = str(root.resolve()) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(global_)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return hits


def _write_inputs(folder: str) -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    n = SMALL["grid.nx"]
    np.save(os.path.join(folder, "phi_s.npy"), 0.1 * rng.standard_normal((n, n)))
    os.mkdir(os.path.join(folder, "mirror.csv"))
    np.savez(os.path.join(folder, "forcing.npz"),
             **{k: 1e-3 * rng.standard_normal((n, n, n)) for k in ("fv1", "fv2", "ftheta", "fq")})
    for name, overrides in CONFIGS.items():
        with open(os.path.join(folder, f"{name}.cfg"), "w", encoding="utf-8") as fh:
            for key, value in overrides.items():
                fh.write(f"{key} = {str(value).format(dir=folder)}\n")


def _run_commands(folder: str) -> list[tuple[int, list[str]]]:
    from moistpe import cli, convergence

    done = []
    with contextlib.ExitStack() as stack:
        for name, kwargs in REDUCED.items():
            study = partial(getattr(convergence, name), **kwargs)
            stack.enter_context(mock.patch.object(convergence, name, study))
        for command in COMMANDS:
            argv = [arg.format(dir=folder) for arg in command]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                done.append((cli.main(argv), command))
    return done


def main() -> int:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as folder:
        _write_inputs(folder)
        done: list = []
        hits = traced(PACKAGE, lambda: done.extend(_run_commands(folder)))
    for code, command in done:
        print(f"exit {code}  moistpe {' '.join(command).format(dir='TMP')}")
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        runs = unexecuted(source, hits.get(str(path), set()))
        count = sum(len(run) for run in runs)
        total += len(statements(source))
        missed += count
        if runs:
            listed = ", ".join(str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}"
                               for run in runs)
            print(f"{path.name} ({count}): {listed}")
    print(f"{missed} of {total} statements never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
