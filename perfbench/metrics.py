"""Metric names, units and directions; BENCHMARK.json lists the same.

End-to-end metrics come from untraced repetitions, per-layer metrics
from the traced pass (see README.md for their definitions).
"""

from tracer import WRAPPED

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = [
    ("wall_s", "s", "lower", 0.2),
    ("item_ms_p50", "ms", "lower", 0.2),
    ("item_ms_p90", "ms", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_DERIVED = [
    ("linalg.self_s", "s", "lower"),
    ("multifilt.canonical.hits", "count", "higher"),
    ("multifilt.canonical.misses", "count", "lower"),
    ("multifilt.canonical.hit_ratio", "1", "higher"),
    ("multifilt.steps", "count", "lower"),
    ("multifilt.apply_per_step", "1", "lower"),
    ("obstruct.hull_per_verdict", "1", "lower"),
    ("obstruct.not_smoothable_ratio", "1", "higher"),
    ("ring.self_s", "s", "lower"),
    ("prescribe.steps_per_s", "1/s", "higher"),
    ("documents.bytes_in", "bytes", "lower"),
    ("cli.python_start_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
]

PER_LAYER = [
    entry
    for name in WRAPPED
    for entry in ((name, "count", "lower"), (f"{name}.self_s", "s", "lower"))
] + _DERIVED
