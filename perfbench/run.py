"""tsk's benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--data DIR]

Closed loop, one client: repetitions of the workload's fixed item set
run back to back, each in a fresh `python perfbench/worker.py` child with
PYTHONPATH=src (never -O), one child at a time, until S seconds are
used.  The frozen inputs' digests are checked before anything is timed.
With --trace 0 the end-to-end metrics are reported; with --trace 1
untraced and traced repetitions alternate and the per-layer metrics are
reported.  The last stdout line is the result object; the line before
it holds the run's provenance.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import WRAPPED  # noqa: E402

WORKLOADS = ["chern-oracle", "factorize-chain", "obstruct-mix", "prescribe-build", "cli-docs"]
MIN_REPS = 3  # untraced repetitions per --trace 0 run
HARD_STOP_S = 140.0  # no new repetition starts after this
CHILD_TIMEOUT_S = 150.0
# Times are scaled to a machine on which the worker's speed probe takes this long.
PROBE_REF_S = 0.0005


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_inputs(data_dir: Path, workload: str) -> str:
    """Compare the workload's input files with MANIFEST.json; return the manifest digest."""
    manifest_path = data_dir / "MANIFEST.json"
    if not manifest_path.is_file():
        raise BenchError(f"no frozen inputs: {manifest_path} is missing")
    manifest = json.loads(manifest_path.read_text("utf-8"))
    wanted = {k: v for k, v in manifest.items() if k.split("/")[0] == workload}
    wdir = data_dir / workload
    present = {
        f"{workload}/{p.name}"
        for p in (wdir.iterdir() if wdir.is_dir() else ())
        if p.is_file() and p.name != "expected.json"
    }
    if not wanted or present != set(wanted):
        raise BenchError(f"{workload}: input files differ from MANIFEST.json")
    for rel, digest in wanted.items():
        if _sha256(data_dir / rel) != digest:
            raise BenchError(f"{rel}: digest differs from MANIFEST.json")
    if not (wdir / "expected.json").is_file():
        raise BenchError(f"{workload}: expected outputs are missing")
    return _sha256(manifest_path)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("PYTHONOPTIMIZE", None)
    return env


def run_child(cmd: list[str], env: dict) -> tuple[dict, dict]:
    """Start one worker, timestamp its protocol lines, return (result, marks)."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        marks = {}
        for tag in ("started", "imported", "ready"):
            line = proc.stdout.readline()
            marks[tag] = time.perf_counter() - t_spawn
            if line.strip() != tag:
                raise BenchError(f"worker stopped before {tag!r}: {line!r}")
        tail = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return json.loads(tail.strip().splitlines()[-1]), marks


def scale(result: dict, marks: dict) -> dict:
    """Add a repetition's speed-normalized times to its worker result.

    The host is shared, and how fast it runs drifts by tens of percent
    within seconds.  Each item comes with the mean time of the worker's
    speed probe around and during it (worker.Speedometer); its time is
    multiplied by PROBE_REF_S over that.  The set-up times are scaled by
    the first probe burst, which follows the set-up, and traced self
    times by the median reading.  A change to tsk moves the item time,
    not the probe.
    """
    setup_speed = PROBE_REF_S / result["setup_probe_s"]
    probes = result["probe_s"]
    speed = PROBE_REF_S / statistics.median(probes) if probes else setup_speed
    raw = result["latency_s"]
    latency = [PROBE_REF_S * x / p for x, p in zip(raw, probes)]
    return dict(
        result,
        speed=speed,
        raw_wall_s=sum(raw),
        raw_setup_s=marks["ready"],
        latency_s=latency,
        wall_s=sum(latency),
        setup_s=marks["ready"] * setup_speed,
        python_start_s=marks["started"] * setup_speed,
        import_s=(marks["imported"] - marks["started"]) * setup_speed,
    )


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], untraced: list[dict], all_reps: list[dict]) -> dict:
    first = traced[0]["aggregates"]  # counts are the same in every traced repetition
    count = first["count"]
    extra = first["extra"]

    def med_self(names) -> float:
        return statistics.median(
            r["speed"] * sum(r["aggregates"]["self_s"].get(n, 0.0) for n in names) for r in traced
        )

    out: dict[str, float] = {}
    for name in WRAPPED:
        out[name] = count.get(name, 0)
        out[f"{name}.self_s"] = med_self([name])
    out["linalg.self_s"] = med_self([n for n in WRAPPED if n.startswith("linalg.")])
    out["ring.self_s"] = med_self([n for n in WRAPPED if n.startswith("ring.")])
    hits, misses = first["canonical"]["hits"], first["canonical"]["misses"]
    out["multifilt.canonical.hits"] = hits
    out["multifilt.canonical.misses"] = misses
    out["multifilt.canonical.hit_ratio"] = _ratio(hits, hits + misses)
    steps = extra.get("multifilt.steps", 0)
    out["multifilt.steps"] = steps
    out["multifilt.apply_per_step"] = _ratio(count.get("multifilt.apply_elementary", 0), steps)
    verdicts = count.get("obstruct.obstruction_verdict", 0)
    hulls = first["under"].get("multifilt.reflexive_hull<obstruct.obstruction_verdict", 0)
    out["obstruct.hull_per_verdict"] = _ratio(hulls, verdicts)
    out["obstruct.not_smoothable_ratio"] = _ratio(extra.get("obstruct.not_smoothable", 0), verdicts)
    out["prescribe.steps_per_s"] = statistics.median(
        _ratio(
            r["aggregates"]["extra"].get("prescribe.built", 0),
            r["speed"] * r["aggregates"]["incl_s"].get("prescribe.build_sequence", 0),
        )
        for r in traced
    )
    out["documents.bytes_in"] = extra.get("documents.bytes_in", 0)
    out["cli.python_start_s"] = statistics.median(r["python_start_s"] for r in all_reps)
    out["cli.import_s"] = statistics.median(r["import_s"] for r in all_reps)
    out["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in untraced
    )
    return out


def _op_counts(agg: dict) -> dict:
    """The deterministic part of a traced repetition's aggregates."""
    return {k: agg[k] for k in ("count", "under", "extra", "canonical")}


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tsk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description="tsk benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="fixes the order of the items in each repetition")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data", default="perfbench/data", help="frozen input set (relative to the repo root)")
    args = ap.parse_args()

    if not (ROOT / "src" / "tsk" / "__init__.py").is_file():
        print(f"run.py: no tsk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    data_dir = ROOT / args.data
    try:
        manifest_digest = check_inputs(data_dir, args.workload)
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 3

    # One core for this process and every child: the speed probe and the
    # work it scales then share a core, and a repetition does not migrate.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    load_before = os.getloadavg()
    env = child_env()
    worker = ["perfbench/worker.py", "--workload", args.workload, "--seed", str(args.seed)]
    worker = [sys.executable] + worker + ["--data", args.data]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}.json"

    try:
        # Warm-up, untimed: byte-compile the sources (the first run in a checkout).
        warm = "import sys; sys.path.insert(0, 'perfbench'); import tsk, workloads, tracer"
        subprocess.run([sys.executable, "-c", warm], cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S)
        untraced: list[dict] = []
        traced: list[dict] = []
        t_start = time.perf_counter()
        while True:
            want_trace = bool(args.trace) and len(traced) < len(untraced)
            cmd = worker + ["--rep", str(len(untraced) + len(traced))]
            cmd += ["--trace-out", str(spans_file)] if want_trace else []
            t0 = time.perf_counter()
            result = scale(*run_child(cmd, env))
            result["rep_s"] = time.perf_counter() - t0
            (traced if want_trace else untraced).append(result)
            elapsed = time.perf_counter() - t_start
            if args.trace:
                done = bool(traced) and len(traced) == len(untraced)
                next_s = untraced[-1]["rep_s"] + traced[-1]["rep_s"] if traced else 0.0
            else:
                done = len(untraced) >= MIN_REPS
                next_s = result["rep_s"]
            if elapsed > HARD_STOP_S or (done and elapsed + next_s > args.seconds):
                break
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    reps = untraced + traced
    attempted = sum(len(r["latency_s"]) for r in reps)
    failures = [f for r in reps for f in r["failed"]]
    # An item's latency is its median over the repetitions (each with its own
    # order); the percentiles are taken over the item set.
    by_item: dict[str, list[float]] = {}
    for r in untraced:
        for item, x in zip(r["items"], r["latency_s"]):
            by_item.setdefault(item, []).append(x)
    latencies = [statistics.median(v) for v in by_item.values()]
    p90 = nearest_rank(latencies, 0.9)
    counts_repeat = all(_op_counts(r["aggregates"]) == _op_counts(traced[0]["aggregates"]) for r in traced)

    if args.trace:
        values = layer_metrics(traced, untraced, reps)
        table = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "item_ms_p50": 1000 * statistics.median(latencies),
            "item_ms_p90": 1000 * p90,
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        }
        table = [(name, unit) for name, unit, _, _ in END_TO_END]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}

    with open(data_dir / args.workload / "inputs.json", encoding="utf-8") as fh:
        inputs = json.load(fh)
    provenance = {
        "workload": args.workload,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "inputs_manifest_sha256": manifest_digest,
        "input_seed": inputs.get("seed"),
        "order_seed": args.seed,
        "items_per_rep": len(inputs["items"]),
        "reps_untraced": len(untraced),
        "reps_traced": len(traced),
        "item_samples": sum(len(v) for v in by_item.values()),
        "items_beyond_p90": sum(x > p90 for x in latencies),
        "probe_ref_s": PROBE_REF_S,
        "speed_median": statistics.median(r["speed"] for r in untraced),
        "raw_wall_s_median": statistics.median(r["raw_wall_s"] for r in untraced),
        "raw_setup_s_median": statistics.median(r["raw_setup_s"] for r in untraced),
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "op_counts_repeat": counts_repeat,
        "python": platform.python_version(),
        "python_flags_optimize": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "spans_file": str(spans_file.relative_to(ROOT)) if traced else None,
    }
    result = {
        "correct": not failures and counts_repeat,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    (out_dir / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=1), "utf-8"
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
