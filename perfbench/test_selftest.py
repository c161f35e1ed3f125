"""Self-test of the benchmark: every workload at a tiny size, traced.

    python3 -m pytest perfbench -q

A traced child whose tracer could not find one of child.REQUIRED fails its
output check, so a rename in the program cannot silently drop a span.  The
traced layers' self times must cover at least 90% of the traced child's wall
time after its imports (which carry no spans and are reported as import_s),
or the per-layer numbers miss real work.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# Per workload, per-layer counts that must be nonzero: the layers it exists for.
EXERCISED = {
    "forced_erk4_n64": ("stepper.erk4_step.ms_p50", "manufactured.setup_ms",
                        "checkpoint.bytes", "fields.fft_fields_per_step",
                        "output.write_norms_ms"),
    "invariants_n16": ("probes.trilinear_suite_s", "probes.minkowski_suite_s",
                       "probes.skew_suite_s", "monitors.norm_report.ms_p50",
                       "monitors.budget_terms.ms_p50", "stepper.imex_step.ms_p50",
                       "stepper.bootstrap_ms", "model.tendency.calls"),
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_traced_run(workload):
    result, details = run.measure(workload, seed=3, seconds=1, trace=True, tiny=True)
    assert details["errors"] == []
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.LAYER_UNITS)
    for name in EXERCISED[workload]:
        assert metrics[name] > 0, name
    assert metrics["fields.fft_fields_per_tendency"] > 0
    assert metrics["trace.coverage"] >= 0.90


def test_benchmark_json_lists_every_layer_metric():
    import json
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_untraced_run_times_several_setups():
    result, details = run.measure("invariants_n16", seed=3, seconds=2, trace=False, tiny=True)
    assert details["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert details["setup_only_children"] >= run.FIRST_SETUPS
    assert details["end_to_end"]["setup_s"]["n"] == details["children"] + details["setup_only_children"]
    assert set(result["metrics"]) == {"wall_s", "setup_s", "steps_per_s", "peak_rss_mb"}
