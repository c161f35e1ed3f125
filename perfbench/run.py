"""Benchmark harness for moistpe: fresh-process workloads timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  For S seconds the harness starts one
single-threaded child process (child.py) after another, each running the
workload once on inputs made from the seed, and checks every child's output
before counting it.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over children).
An untraced run also starts children that stop at the entry of stepper.run,
three first and more in the time that whole children leave, so that setup_s
is the median of several set-ups even where one child takes a third of the run.
With --trace 1 untraced and traced children alternate; the metrics are the
per-layer ones from the traced children's spans, plus the tracing overhead.
The line before the result carries the details: machine block, seed, final
state checksum, and each timing's median, quartiles and sample count.

NOTES.md says why each workload exists and which layer it isolates.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

clock = time.monotonic_ns

# NOTES.md says why each workload exists.  The run workload samples its
# norms only at the start and the end and writes a final checkpoint.
WORKLOADS = {
    "forced_erk4_n64": {
        "kind": "run", "n": 64, "steps": 20, "dt": 1e-4,
        "scheme": "erk4_fully_explicit", "forcing": "manufactured:brisk",
    },
    "invariants_n16": {
        "kind": "invariants", "n": 16, "steps": 200, "dt": 1e-4,
    },
}

# Smallest sizes that still exercise every layer of each workload, for the
# self-test (test_selftest.py).
TINY = {
    "forced_erk4_n64": {"n": 16, "steps": 100},
    "invariants_n16": {"steps": 20},
}

# Per-layer metrics of a --trace 1 run and their units (NOTES.md defines them).
LAYER_UNITS = {
    "model.tendency.calls": "count",
    "model.tendency.ms_p50": "ms",
    "model.tendency.ms_tail": "ms",
    "model.tendency.tail_pct": "%",
    "model.tendency.self_share": "ratio",
    "fields.fft_fields_per_tendency": "count",
    "fields.fft_fields_per_step": "count",
    "fields.fft_share_of_tendency": "ratio",
    "model.project_state.ms_p50": "ms",
    "stepper.imex_step.ms_p50": "ms",
    "stepper.erk4_step.ms_p50": "ms",
    "stepper.bootstrap_ms": "ms",
    "stepper.self_share": "ratio",
    "monitors.norm_report.ms_p50": "ms",
    "monitors.budget_terms.ms_p50": "ms",
    "state.checksum.ms_p50": "ms",
    "monitors.overhead_ratio": "ratio",
    "probes.trilinear_suite_s": "s",
    "probes.minkowski_suite_s": "s",
    "probes.skew_suite_s": "s",
    "initial.random_smooth_ms": "ms",
    "manufactured.setup_ms": "ms",
    "import_s": "s",
    "output.write_norms_ms": "ms",
    "checkpoint.write_ms": "ms",
    "checkpoint.bytes": "B",
    "mem.minor_faults_per_step": "count",
    "mem.sys_cpu_share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# Same bounds as the invariants suite (probes.invariants_run).
DIV_BOUND = 1e-11
HYDRO_BOUND = 1e-10

CHILD_TIMEOUT_S = 150.0

# Set-up-only children at the start of every untraced run.
FIRST_SETUPS = 3


def workload_spec(name: str, tiny: bool = False) -> dict:
    wl = dict(WORKLOADS[name])
    if tiny:
        wl.update(TINY[name])
    return wl


def write_inputs(wl: dict, seed: int, work: Path) -> dict:
    """The child's spec; for a run workload, also the config it runs."""
    spec = {"kind": wl["kind"], "src": str(SRC), "work": str(work), "seed": seed}
    if wl["kind"] == "invariants":
        spec["args"] = {"n": wl["n"], "dt": wl["dt"], "t_end": wl["steps"] * wl["dt"]}
        return spec
    n = wl["n"]
    lines = [
        f"grid.nx = {n}", f"grid.ny = {n}", f"grid.np = {n}",
        f"time.dt = {wl['dt']!r}",
        f"time.t_end = {wl['steps'] * wl['dt']!r}",
        f"time.scheme = {wl['scheme']}",
        f"forcing.kind = {wl['forcing']}",
        f"initial.kind = random_smooth:{seed},1.0",
        f"output.norms_path = {work / 'norms.ndjson'}",
        f"output.norms_every = {wl['steps']}",
        f"output.checkpoint_path = {work / 'final.ckpt'}",
    ]
    config = work / "run.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec["config"] = str(config)
    return spec


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(MOISTPE_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_child(spec: dict, work: Path, trace: bool, setup_only: bool = False) -> dict:
    """Start one child, wait for it and collect its timings and outputs."""
    for old in work.iterdir():
        if old.name != "run.cfg":
            old.unlink()
    spec = dict(spec, trace=trace, setup_only=setup_only)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / "stderr.txt", "w", encoding="utf-8") as err:
        launch = clock()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=str(work))
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = clock()
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"trace": trace, "setup_only": setup_only, "rc": proc.returncode, "launch": launch,
           "wall_s": (end - launch) / 1e9, "usage": usage, "report": None,
           "stderr_tail": (work / "stderr.txt").read_text(encoding="utf-8").strip()[-300:]}
    report_path = work / "report.json"
    if report_path.is_file():
        out["report"] = json.loads(report_path.read_text(encoding="utf-8"))
    if trace and (work / "spans.bin").is_file():
        flat = array.array("q")
        flat.frombytes((work / "spans.bin").read_bytes())
        out["spans"] = flat
    if (work / "final.ckpt").is_file():
        out["checkpoint_bytes"] = (work / "final.ckpt").stat().st_size
    out["ndjson"] = None
    if (work / "norms.ndjson").is_file():
        text = (work / "norms.ndjson").read_text(encoding="utf-8")
        out["ndjson"] = [json.loads(line) for line in text.splitlines() if line.strip()]
        out["csv"] = (work / "norms.csv").is_file()
    return out


def check_child(wl: dict, c: dict) -> str | None:
    """None when the child's output is correct, else the reason it is not."""
    rep = c["report"]
    if c["rc"] != 0:
        return f"exit code {c['rc']}: {c['stderr_tail']}"
    if rep is None:
        return "no report"
    if c["setup_only"]:
        return None if len(rep["run_enter"]) == 1 else "stepper.run not entered"
    if rep["steps"] != wl["steps"] or len(rep["run_enter"]) != 1:
        return f"ran {rep['steps']} steps in {len(rep['run_enter'])} runs"
    if c["trace"] and rep["missing"]:
        return f"spans missing: {rep['missing']}"
    if wl["kind"] == "invariants":
        bad = [ch["name"] for ch in rep["checks"] if not ch["ok"]]
        return f"invariants failed: {bad}" if bad or not rep["checks"] else None
    rows = c["ndjson"]
    if not rows or not c["csv"]:
        return "no norm series"
    if len(rows) != 2:
        return f"{len(rows)} norm rows"
    for row in rows:
        if row["h1_v"] > 0 and row["div_residual"] / row["h1_v"] > DIV_BOUND:
            return f"divergence residual at t = {row['t']}"
        if row["l2_T"] > 0 and row["hydro_residual"] / row["l2_T"] > HYDRO_BOUND:
            return f"hydrostatic residual at t = {row['t']}"
    if rows[-1]["checksum"] != rep["checksum"]:
        return "final checksum differs from the last norm row"
    if c.get("checkpoint_bytes", 0) < 4 * 8 * wl["n"] ** 3:
        return "checkpoint missing or short"
    return None


# --- reduction --------------------------------------------------------------


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def summary(xs) -> dict:
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": q[1], "q1": q[0], "q3": q[2], "min": xs[0], "max": xs[-1], "n": len(xs)}


def tail(xs) -> tuple[float, float]:
    """(p, value): the highest percentile with at least ten samples beyond it."""
    xs = sorted(xs)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, xs[math.ceil(p / 100.0 * n) - 1]
    return 50.0, median(xs)


def end_to_end(c: dict) -> dict:
    rep = c["report"]
    if c["setup_only"]:
        return {"setup_s": (rep["run_enter"][0] - c["launch"]) / 1e9}
    run_s = (rep["run_exit"][0] - rep["run_enter"][0]) / 1e9
    return {
        "wall_s": c["wall_s"],
        "setup_s": (rep["run_enter"][0] - c["launch"]) / 1e9,
        "steps_per_s": rep["steps"] / run_s,
        "peak_rss_mb": c["usage"].ru_maxrss / 1024.0,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(c: dict) -> dict:
    """Per-layer numbers of one traced child, from its spans."""
    rep = c["report"]
    flat = c["spans"]
    nspan = len(flat) // 5
    name = [rep["span_names"][flat[5 * i]] for i in range(nspan)]
    dur = [flat[5 * i + 2] - flat[5 * i + 1] for i in range(nspan)]
    parent = [flat[5 * i + 3] for i in range(nspan)]
    count = [flat[5 * i + 4] for i in range(nspan)]
    spans_of = defaultdict(list)
    for i, n in enumerate(name):
        spans_of[n].append(i)

    self_ns = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            self_ns[p] -= dur[i]

    # parents precede their children, so one forward pass propagates context
    steps = ("stepper.imex_step", "stepper.erk4_step")
    is_mon = [n.startswith("monitors.") or n == "state.State.checksum" for n in name]
    in_tend, in_run, in_mon, step_of = [], [], [], []
    for i in range(nspan):
        p = parent[i]
        in_tend.append(name[i] == "model.tendency" or (p >= 0 and in_tend[p]))
        in_run.append(name[i] == "stepper.run" or (p >= 0 and in_run[p]))
        in_mon.append(is_mon[i] or (p >= 0 and in_mon[p]))
        step_of.append(i if name[i] in steps else (step_of[p] if p >= 0 else -1))

    def ms(n):
        return [dur[i] / 1e6 for i in spans_of[n]]

    def total(n, scale=1e6):
        return sum(dur[i] for i in spans_of[n]) / scale

    tend = ms("model.tendency")
    tend_ns = total("model.tendency", 1)
    imex = spans_of["stepper.imex_step"]
    bootstrap = imex[0] if imex else -1
    all_steps = [i for i in range(nspan) if name[i] in steps]
    timed_steps = [i for i in all_steps if i != bootstrap]
    fft_fields = [i for i in range(nspan) if name[i] in ("fields.rfftn_norm", "fields.irfftn_norm")]
    mon_ns = sum(dur[i] for i in range(nspan)
                 if is_mon[i] and parent[i] >= 0 and in_run[parent[i]] and not in_mon[parent[i]])
    roots_ns = sum(dur[i] for i in range(nspan) if parent[i] < 0)
    import_ns = rep["t_imported"] - c["launch"]
    p_tail, v_tail = tail(tend)

    return {
        "model.tendency.calls": len(tend),
        "model.tendency.ms_p50": median(tend),
        "model.tendency.ms_tail": v_tail,
        "model.tendency.tail_pct": p_tail,
        "model.tendency.self_share": ratio(sum(self_ns[i] for i in spans_of["model.tendency"]), tend_ns),
        "fields.fft_fields_per_tendency": ratio(sum(count[i] for i in fft_fields if in_tend[i]), len(tend)),
        "fields.fft_fields_per_step": ratio(
            sum(count[i] for i in fft_fields if step_of[i] >= 0 and step_of[i] != bootstrap),
            len(timed_steps)),
        "fields.fft_share_of_tendency": ratio(
            sum(dur[i] for i in range(nspan) if in_tend[i] and name[i].startswith("pocketfft.")),
            tend_ns),
        "model.project_state.ms_p50": median(ms("model.project_state")),
        "stepper.imex_step.ms_p50": median([dur[i] / 1e6 for i in imex[1:]]),
        "stepper.erk4_step.ms_p50": median(ms("stepper.erk4_step")),
        "stepper.bootstrap_ms": dur[bootstrap] / 1e6 if imex else 0.0,
        "stepper.self_share": ratio(sum(self_ns[i] for i in range(nspan) if name[i].startswith("stepper.")),
                                    total("stepper.run", 1)),
        "monitors.norm_report.ms_p50": median(ms("monitors.norm_report")),
        "monitors.budget_terms.ms_p50": median(ms("monitors.budget_terms")),
        "state.checksum.ms_p50": median(ms("state.State.checksum")),
        "monitors.overhead_ratio": ratio(mon_ns, sum(dur[i] for i in all_steps)),
        "probes.trilinear_suite_s": total("probes.trilinear_suite", 1e9),
        "probes.minkowski_suite_s": total("probes.minkowski_suite", 1e9),
        "probes.skew_suite_s": total("probes.skew_suite", 1e9),
        "initial.random_smooth_ms": total("initial.random_smooth"),
        "manufactured.setup_ms": total("manufactured.ManufacturedSolution.__init__"),
        "import_s": import_ns / 1e9,
        "output.write_norms_ms": total("output.write_norms"),
        "checkpoint.write_ms": total("checkpoint.write_checkpoint"),
        "checkpoint.bytes": c.get("checkpoint_bytes", 0),
        # the import phase carries no spans; it is import_s
        "trace.coverage": roots_ns / (c["wall_s"] * 1e9 - import_ns),
    }


def memory_metrics(c: dict) -> dict:
    ru = c["usage"]
    return {
        "mem.minor_faults_per_step": ru.ru_minflt / c["report"]["steps"],
        "mem.sys_cpu_share": ratio(ru.ru_stime, ru.ru_utime + ru.ru_stime),
    }


def machine_block(seed: int, reports: list) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    rep = next((r for r in reports if r), {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": rep.get("numpy"),
        "scipy": rep.get("scipy"),
        "MOISTPE_THREADS": child_env()["MOISTPE_THREADS"],
        "commit": commit,
        "seed": seed,
    }


# --- measurement loop -------------------------------------------------------


def setup_child(wl: dict, spec: dict, work: Path) -> dict:
    """One checked child that stops at the entry of stepper.run."""
    c = run_child(spec, work, False, setup_only=True)
    c["error"] = check_child(wl, c)
    if c["error"] is None:
        c["e2e"] = end_to_end(c)
    return c


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run children of one workload for about `seconds`; -> (result, details).

    Untraced, FIRST_SETUPS set-up-only children run first.  A whole child
    then starts only while the median child so far still fits in the time
    left, and at least one (one untraced-traced pair when tracing) always
    runs.  Untraced, set-up-only children fill the time that is left.
    """
    wl = workload_spec(name, tiny)
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    children, setups = [], []
    try:
        spec = write_inputs(wl, seed, work)
        start = clock()
        deadline = start + seconds * 1e9
        # every untraced run times several set-ups, however long a whole child
        if not trace:
            setups.extend(setup_child(wl, spec, work) for _ in range(FIRST_SETUPS))
        while True:
            trace_this = trace and len(children) % 2 == 1
            c = run_child(spec, work, trace_this)
            c["error"] = check_child(wl, c)
            if c["report"] is not None and c["error"] is None:
                c["e2e"] = end_to_end(c)
                if trace_this:
                    c["layers"] = layer_metrics(c)
            children.append(c)
            if len(children) >= (2 if trace else 1):
                typical = median([ch["wall_s"] for ch in children]) * 1e9
                if clock() + typical > deadline:
                    break
        while not trace and clock() + median([c["wall_s"] for c in setups]) * 1e9 <= deadline:
            setups.append(setup_child(wl, spec, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    # every child of one seed must reach the same final state, traced or not
    sums = [c["report"]["checksum"] for c in children if c["error"] is None]
    reference = max(set(sums), key=sums.count) if sums else None
    for c in children:
        if c["error"] is None and c["report"]["checksum"] != reference:
            c["error"] = "final checksum differs between children"
    good = [c for c in children if c["error"] is None]
    attempted = len(children) + len(setups)
    failed = sum(c["error"] is not None for c in children + setups)

    untraced = [c for c in good if not c["trace"]]
    traced = [c for c in good if c["trace"]]
    e2e = {k: summary([c["e2e"][k] for c in untraced])
           for k in ("wall_s", "steps_per_s", "peak_rss_mb")} if untraced else {}
    if untraced:
        e2e["setup_s"] = summary([c["e2e"]["setup_s"] for c in untraced + setups if "e2e" in c])
    details = {
        "workload": name,
        "trace": int(trace),
        "machine": machine_block(seed, [c["report"] for c in children]),
        "final_checksum": reference,
        "children": len(children),
        "setup_only_children": len(setups),
        "failed_frac": failed / attempted,
        "errors": sorted({c["error"] for c in children + setups if c["error"]}),
        "end_to_end": e2e,
    }
    units = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
    if not trace:
        metrics = {k: {"value": e2e[k]["median"], "unit": units[k]} for k in units} if e2e else {}
    else:
        metrics = {}
        if traced and untraced:
            keys = traced[0]["layers"].keys()
            layers = {k: median([c["layers"][k] for c in traced]) for k in keys}
            layers.update({k: median([memory_metrics(c)[k] for c in untraced])
                           for k in ("mem.minor_faults_per_step", "mem.sys_cpu_share")})
            # children alternate untraced, traced: pairing neighbours keeps
            # the host's slow drift out of the difference
            pairs = zip(children[0::2], children[1::2])
            layers["trace.overhead_s"] = median([t["wall_s"] - u["wall_s"] for u, t in pairs
                                                 if u["error"] is None and t["error"] is None])
            details["tracing_overhead_s"] = layers["trace.overhead_s"]
            details["minor_faults"] = summary([c["usage"].ru_minflt for c in untraced])
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "moistpe" / "__init__.py").is_file():
        print(f"perfbench: no moistpe source tree under {SRC}", file=sys.stderr)
        return 2
    import compileall
    compileall.compile_dir(str(SRC / "moistpe"), quiet=1)
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
