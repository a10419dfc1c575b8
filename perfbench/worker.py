"""One repetition of one workload, in a fresh interpreter.

    PYTHONPATH=src python perfbench/worker.py --workload NAME --seed N
        [--rep I] [--data DIR] [--trace-out FILE]

run.py starts this once per repetition.  Protocol on stdout: the lines
`started` (first statement reached), `imported` (`import tsk` done) and
`ready` (inputs parsed and checked), which the parent timestamps, then
one JSON line with the item latencies, each item's speed reading (see
Speedometer), the failures, the peak RSS and, when traced, the call
aggregates.  With --trace-out the run is traced and the spans are
written to FILE.  The seed and the repetition index fix the order of
the items.
"""

import sys

print("started", flush=True)

import tsk  # noqa: E402,F401  (the import a user pays for)

print("imported", flush=True)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402

from workloads import CLI, WORKLOADS  # noqa: E402


def probe() -> float:
    """Seconds a fixed pure-Python computation (Fractions, tuples, a dict)
    takes now, about 0.5 ms on an idle core.  The cyclic collector is
    paused so that a collection of the items' heap does not land in it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        seen = {}
        for i in range(1, 150):
            acc += Fraction(i % 7, i % 11 + 1)
            seen[(i, i % 5)] = acc
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Speedometer:
    """How fast the shared machine runs around and during each item.

    A burst of probes is timed before the first item and after every
    item.  While an item runs, a timer signal also times one probe every
    SAMPLE_S seconds, and that time is taken off the item's.  (run.py
    pins the worker and its children to one core, so a probe taken while
    a `tsk` command runs in a child holds that child up by its own time.)
    An item's speed reading is the mean probe time over the burst before
    it, its own samples and the burst after it; run.py scales the item's
    time by it.
    """

    BURST = 10
    SAMPLE_S = 0.05

    def __init__(self) -> None:
        self.inside: list[float] = []
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.inside.append(probe())
        self.handler_s += time.perf_counter() - t0

    def burst(self) -> list[float]:
        return [probe() for _ in range(self.BURST)]

    def start(self) -> None:
        self.inside = []
        self.handler_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)

    def stop(self) -> tuple[list[float], float]:
        """Samples taken during the item, and the seconds they took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.inside, self.handler_s


def item_order(count: int, seed: int, rep: int) -> list[int]:
    """The order of a repetition's items, drawn from the run's seed and the
    repetition's index.  Items share tsk's jump-list cache, so which item
    pays for a shared entry depends on the order; giving every repetition
    its own order keeps one order's luck out of the run's percentiles."""
    order = list(range(count))
    Random(f"{seed}/{rep}").shuffle(order)
    return order


def _merge(into: dict, part: dict) -> None:
    for key, table in part.items():
        bucket = into.setdefault(key, {})
        for name, value in table.items():
            bucket[name] = bucket.get(name, 0) + value


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0, help="repetition index within the run")
    ap.add_argument("--data", default="perfbench/data")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    if sys.flags.optimize:
        print("worker: refusing to run under -O (tsk relies on assert)", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    data_dir = Path(args.data) / args.workload
    tracer = None
    cli = CLI
    child_trace = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        if args.workload == "cli-docs":
            # Each tsk command runs traced in its own process and leaves its aggregates here.
            child_trace = Path(args.trace_out).with_suffix(".cli.json")
            cli = [sys.executable, str(Path(__file__).with_name("tracecli.py")), str(child_trace)]

    data = json.loads((data_dir / "inputs.json").read_text("utf-8"))
    prepared = wl.setup(data, data_dir, cli)
    ids = [item["id"] for item in data["items"]]
    print("ready", flush=True)

    order = item_order(len(prepared), args.seed, args.rep)
    child_aggs: dict = {}
    child_spans: list[dict] = []
    results = []
    latency = []
    probes = []
    meter = Speedometer()
    before = meter.burst()
    setup_probe = statistics.fmean(before)
    clock = time.perf_counter
    for i in order:
        if tracer:
            tracer.begin_item(ids[i])
        meter.start()
        t0 = clock()
        try:
            results.append((wl.run(prepared[i]), None))
        except Exception as err:  # an item that raises is a failed item
            results.append((None, f"{type(err).__name__}: {err}"))
        elapsed = clock() - t0
        inside, inside_s = meter.stop()
        after = meter.burst()
        latency.append(elapsed - inside_s)
        probes.append(statistics.fmean(before + inside + after))
        before = after
        if tracer:
            tracer.end_item()
            if child_trace is not None:
                traced = json.loads(child_trace.read_text("utf-8"))
                _merge(child_aggs, traced["aggregates"])
                base = len(child_spans)
                for span in traced["spans"]:
                    span["item"] = ids[i]
                    if span["parent"] >= 0:
                        span["parent"] += base
                    child_spans.append(span)

    expected = json.loads((data_dir / "expected.json").read_text("utf-8"))["outputs"]
    failed = []
    for i, (result, error) in zip(order, results):
        if error is None:
            try:
                if wl.render(result) != expected.get(ids[i]):
                    error = "output differs from the recorded expected output"
            except Exception as err:  # rendering is part of the item's output
                error = f"render: {type(err).__name__}: {err}"
        if error is not None:
            failed.append({"id": ids[i], "error": error})

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "workload": args.workload,
        "items": [ids[i] for i in order],
        "latency_s": latency,
        "probe_s": probes,
        "setup_probe_s": setup_probe,
        "failed": failed,
        "rss_mb": rss_kb / 1024,
    }
    if tracer:
        aggs = tracer.aggregates()
        _merge(aggs, child_aggs)
        out["aggregates"] = aggs
        spans = tracer.span_records()
        base = len(spans)
        for span in child_spans:
            if span["parent"] >= 0:
                span["parent"] += base
        Path(args.trace_out).write_text(json.dumps({"spans": spans + child_spans}), "utf-8")
        if child_trace is not None:
            child_trace.unlink(missing_ok=True)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
