"""One benchmark process: run a single workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

run.py writes SPEC.json and starts this script once per measured run.  The
spec names the workload kind and its inputs, the source tree, the work
directory and whether to trace.  The script writes ``report.json`` into the
work directory and, when tracing, ``spans.bin``.  Timestamps are
CLOCK_MONOTONIC nanoseconds, comparable with the launch time run.py took.

Untraced, the only instrument is one timestamp pair around ``stepper.run``,
which splits set-up from stepping.  A set-up-only child (``setup_only`` in
the spec) stops at the entry of ``stepper.run``, so one measured run can time
set-up more often than it can afford whole workloads.  Traced, every public
function and method of the layer modules is wrapped from here, in every
module namespace that holds it, so the program itself carries no tracing
code.
"""

from __future__ import annotations

import array
import dataclasses
import enum
import functools
import inspect
import json
import os
import sys
import time

# Modules whose public functions and methods become spans.  The first ten are
# the layers the per-layer metrics name; norms, grid, config and params are
# wrapped too so that their time is attributed rather than lost.
LAYERS = ("model", "fields", "stepper", "monitors", "state", "probes",
          "initial", "manufactured", "output", "checkpoint",
          "norms", "grid", "config", "params")

# Spans the per-layer metrics are computed from.  A rename in the program
# must fail loudly here instead of silently dropping a metric.
REQUIRED = (
    "model.tendency", "model.project_state",
    "fields.rfftn_norm", "fields.irfftn_norm",
    "stepper.run", "stepper.imex_step", "stepper.erk4_step",
    "monitors.norm_report", "monitors.budget_terms", "state.State.checksum",
    "probes.invariants_run", "probes.trilinear_suite",
    "probes.minkowski_suite", "probes.skew_suite",
    "initial.random_smooth", "manufactured.ManufacturedSolution.__init__",
    "output.write_norms", "checkpoint.write_checkpoint",
)

# scipy.fft entry points; wrapping them on the scipy.fft module catches every
# call made through ``scipy.fft.<name>`` at call time.
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
             "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

# Transforms whose span also counts the 3-D fields it moves: the leading
# axes in front of the last three are a stack of fields.
COUNTED = ("fields.rfftn_norm", "fields.irfftn_norm")

clock = time.monotonic_ns


def _field_count(args) -> int:
    for a in args:
        if getattr(a, "ndim", 0) >= 3:
            n = 1
            for d in a.shape[:-3]:
                n *= d
            return n
    return 1


class Tracer:
    """Spans kept in memory, five integers each in one flat array:
    name id, start ns, end ns, index of the parent span (-1 for a root) and
    the number of 3-D fields moved (1 unless the span is COUNTED)."""

    def __init__(self):
        self.names: list[str] = []
        self.flat = array.array("q")
        self.stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        flat, stack = self.flat, self.stack
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base = len(flat)
            flat.extend((nid, 0, 0, stack[-1], _field_count(args) if counted else 1))
            stack.append(base // 5)
            flat[base + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                flat[base + 2] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every public function and method defined in the layer
        modules, replacing each original wherever a module holds it."""
        for short in LAYERS:
            mod = modules["moistpe." + short]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace_everywhere(modules, obj, self.wrap(f"{short}.{name}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    self._install_class(f"{short}.{name}", obj)
        import scipy.fft
        for name in FFT_NAMES:
            setattr(scipy.fft, name, self.wrap(f"pocketfft.{name}", getattr(scipy.fft, name)))

    def _install_class(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                # a generated dataclass __init__ only stores its fields
                if inspect.isfunction(raw) and not dataclasses.is_dataclass(cls):
                    setattr(cls, attr, self.wrap(f"{prefix}.{attr}", raw))
            elif attr.startswith("_"):
                continue
            elif isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self.wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", raw))

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            self.flat.tofile(fh)


def replace_everywhere(modules: dict, original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every moistpe module,
    under whatever name each module imported it."""
    for modname, mod in list(modules.items()):
        if modname != "moistpe" and not modname.startswith("moistpe."):
            continue
        for name, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, name, replacement)


class SetupDone(BaseException):
    """Raised at the entry of stepper.run in a set-up-only child; a
    BaseException, so the program's error handling lets it through."""


class RunTimer:
    """Timestamp pair around stepper.run, plus what the run produced."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.enter: list[int] = []
        self.exit: list[int] = []
        self.steps = 0
        self.checksum = None

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed_run(state, params, config, *args, **kwargs):
            self.enter.append(clock())
            if self.setup_only:
                raise SetupDone
            traj = fn(state, params, config, *args, **kwargs)
            self.exit.append(clock())
            self.steps += round((traj.final_state.t - state.t) / config.dt)
            self.checksum = traj.samples[-1].checksum
            return traj

        return timed_run


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    import numpy
    import scipy
    import moistpe.cli
    import moistpe.probes
    t_imported = clock()

    modules = sys.modules
    report = {"numpy": numpy.__version__, "scipy": scipy.__version__,
              "t_imported": t_imported}
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(modules)
    timer = RunTimer(spec["setup_only"])
    stepper = modules["moistpe.stepper"]
    replace_everywhere(modules, stepper.run, timer.wrap(stepper.run))

    rc = 0
    try:
        if spec["kind"] == "run":
            rc = moistpe.cli.main(["run", "--config", spec["config"], "--quiet"])
        else:
            checks = moistpe.probes.invariants_run(seed=spec["seed"], **spec["args"])
            report["checks"] = [{"name": c.name, "value": c.value, "bound": c.bound,
                                 "ok": c.ok} for c in checks]
    except SetupDone:
        pass
    report.update(run_enter=timer.enter,
                  run_exit=timer.exit, steps=timer.steps, checksum=timer.checksum)
    if tracer is not None:
        report["span_names"] = tracer.names
        report["missing"] = [n for n in REQUIRED if n not in tracer.names]
        tracer.dump(os.path.join(spec["work"], "spans.bin"))
    with open(os.path.join(spec["work"], "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
