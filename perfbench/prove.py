"""Repeat the benchmark over several seeds and report its run-to-run spread.

    python3 perfbench/prove.py --seeds 1-10 --out FILE.json
        [--trace-seeds 1,2] [--against EARLIER.json]

Runs ``run.py`` exactly as a caller of BENCHMARK.json would, once per seed
and workload, with the workloads interleaved (seed-major) so that slow
drifts of the host spread over all of them.  For each end-to-end metric it
records the ten values, their median and quartiles, and the spread
(q3 - q1) / median.  Traced runs on --trace-seeds add the per-layer medians.
With --against, each median is compared with the earlier file's and the
change is checked against the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            details, result = bench(w, seed, seconds, 0)
            runs[w].append({"seed": seed, "result": result, "details": details})
            vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"children={result['attempted']} {vals}", flush=True)

    out = {"seconds": seconds, "seeds": seeds,
           "machine": runs[workloads[0]][0]["details"]["machine"], "workloads": {}}
    for w in workloads:
        res = [r["result"] for r in runs[w]]
        entry = {
            "all_correct": all(r["correct"] for r in res),
            "attempted": sum(r["attempted"] for r in res),
            "failed": sum(r["failed"] for r in res),
            "final_checksums": {r["seed"]: r["details"]["final_checksum"] for r in runs[w]},
            "end_to_end": {m: spread([r["metrics"][m]["value"] for r in res])
                           for m in bounds},
        }
        traced = [bench(w, s, seconds, 1) for s in seed_list(args.trace_seeds)]
        if traced:
            names = traced[0][1]["metrics"].keys()
            entry["per_layer"] = {
                m: statistics.median(t[1]["metrics"][m]["value"] for t in traced)
                for m in names}
            entry["traced_correct"] = all(t[1]["correct"] for t in traced)
        out["workloads"][w] = entry

    status = 0
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    for w, entry in out["workloads"].items():
        for m, s in entry["end_to_end"].items():
            line = f"{w:18s} {m:12s} median {s['median']:10.4f}  spread {s['spread']:.3f}"
            bound = bounds[m]["bound"]
            if m != "setup_s" and s["spread"] > bound:
                line += "  SPREAD ABOVE BOUND"
                status = 1
            if earlier is not None:
                before = earlier["workloads"][w]["end_to_end"][m]["median"]
                change = (s["median"] - before) / before
                worse = change if bounds[m]["better"] == "lower" else -change
                line += f"  vs earlier {change:+.3f}"
                if worse > bound:
                    line += "  WORSE THAN BOUND"
                    status = 1
            print(line)
        if not entry["all_correct"]:
            print(f"{w}: incorrect runs")
            status = 1
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
