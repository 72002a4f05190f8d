"""Per-layer figures of a traced run, from the tracer's running totals.

Every figure is reported on every workload; a layer or function the
workload never calls reads 0.
"""
from __future__ import annotations

from tracer import LAYERS

REGIMES = ("A", "B1", "B2", "C1", "C2")

# metric name -> (span name, tag): mean inclusive milliseconds per call
MEAN_MS = {
    **{f"segment_circle.certificate_ms.{r}": ("segment_circle.certificate", r) for r in REGIMES},
    "segment_circle.lower_bound_ms": ("segment_circle.lower_bound", None),
    "correspondences.pl_distortion_ms": ("correspondences.pl_distortion", None),
    "correspondences.distortion_ms": ("correspondences.distortion", None),
    "models.whisker_graph_ms": ("models.whisker_graph", None),
    "spaces.validate_metric_ms.below192": ("spaces.validate_metric", "below192"),
    "spaces.validate_metric_ms.above192": ("spaces.validate_metric", "above192"),
    "bounds.best_bounds_ms": ("bounds.best_bounds", None),
    "nonlinearity.degree_exact_ms": ("nonlinearity.nonlinearity_degree_exact", None),
    "nonlinearity.degree_upper_ms": ("nonlinearity.nonlinearity_degree_upper", None),
}

# metric name -> span names whose amounts are bytes: MB per second of own time
MB_PER_S = {
    "serialization.write_mb_per_s": ("serialization.space_to_json", "serialization.space_to_csv"),
    "serialization.read_mb_per_s": ("serialization.space_from_json", "serialization.space_from_csv"),
}

def summarize(tracer, run: dict) -> dict:
    """Metric name -> {"value", "unit"} for every per-layer metric."""
    ops = max(1, run["attempted"])
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (tracer.layer_self[layer] * 1e3 / ops, "ms")
        out[f"{layer}.calls"] = (tracer.layer_calls[layer] / ops, "count")
    probed = tracer.probed
    for metric, key in MEAN_MS.items():
        calls, inclusive = probed[key][0], probed[key][1]
        out[metric] = (inclusive * 1e3 / calls if calls else 0.0, "ms")
    for metric, names in MB_PER_S.items():
        own = sum(probed[(name, None)][2] for name in names)
        size = sum(probed[(name, None)][3] for name in names)
        out[metric] = (size / 1e6 / own if own else 0.0, "MB/s")
    calls, inclusive, _, nodes = probed[("exact.gh_exact", None)]
    out["exact.nodes"] = (nodes / calls if calls else 0.0, "count")
    out["exact.nodes_per_s"] = (nodes / inclusive if inclusive else 0.0, "1/s")
    traced, untraced = sum(run["op_seconds"]), sum(run["base_seconds"])
    passed = run["attempted"] - run["failed"] - run["wrong"]
    out["trace.ops_per_s"] = (passed / traced, "1/s")
    out["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
