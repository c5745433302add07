"""Simulator benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload deploy-large --seed 1 --seconds 30 --trace 0

Imports privagg once, then runs operations of the workload (see
workloads.py) one after another in this single process until ``--seconds``
have passed, at least one.  Every operation is checked; one that fails a
check or raises counts as failed.

``--trace 0`` prints the end-to-end metrics over the operations (see
``_end_to_end`` for which statistic).
``--trace 1`` runs each operation twice, untraced and then with spans around
every privagg module's public calls, checks that both give the same
transcript and outputs, and prints per-layer medians plus the tracing
overhead.

Before the result, one JSON line gives the environment, every operation's
simulated statistics (message counts, hops, transcript sha256) and the
sample counts.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

sys.dont_write_bytecode = True  # runs leave nothing behind in the checkout

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, Workload, run_operation, scenario_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cores": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "privagg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _attempt(w: Workload, seed: int, mods, **hooks):
    try:
        return run_operation(w, seed, mods, **hooks)
    except Exception:  # a crashing operation is a failed one; keep measuring
        traceback.print_exc(file=sys.stderr)
        return None


def measure(w: Workload, seed: int, seconds: float, trace: bool, mods) -> dict:
    """Run operations on the privagg modules ``mods`` for ``seconds``;
    return the result and its details."""
    tracer = spans.Tracer()
    span_cost = tracer.span_cost() if trace else 0.0

    def window(active: bool) -> None:
        tracer.active = active

    def run_traced(op_seed: int):
        tracer.reset()
        restore = spans.install(tracer, mods)
        try:
            return _attempt(w, op_seed, mods, window=window)
        finally:
            tracer.active = False
            restore()

    ops, layer_ops, overheads, failures, stats = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        op_seed = scenario_seed(seed, index)
        # Alternate which of the pair runs first, so warm-up favours neither.
        traced = run_traced(op_seed) if trace and index % 2 else None
        index += 1
        plain = _attempt(w, op_seed, mods)
        if plain is None or plain.failed:
            failures.append({"scenario_seed": op_seed, "violations": _violations(plain)})
            continue
        stats.append(plain.stats)
        if not trace:
            ops.append(plain)
            continue
        if traced is None:
            traced = run_traced(op_seed)
        same = traced is not None and traced.stats == plain.stats
        if traced is None or traced.failed or not same:
            failures.append(
                {
                    "scenario_seed": op_seed,
                    "violations": _violations(traced)
                    + ([] if same else ["traced run changed the transcript or outputs"]),
                }
            )
            continue
        ops.append(traced)
        layer_ops.append(spans.layer_metrics(tracer, traced.stats, span_cost))
        overheads.append((traced.op_s - plain.op_s, plain.op_s))

    attempted = index
    if trace:
        metrics = spans.median_metrics(layer_ops) if layer_ops else {}
        if overheads:
            metrics["trace.overhead_s"] = statistics.median(d for d, _ in overheads)
            metrics["trace.overhead_ratio"] = statistics.median(d / p for d, p in overheads)
    else:
        metrics = _end_to_end(ops) if ops else {}
    return {
        "result": {
            "correct": not failures and bool(ops),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        },
        "details": {
            "workload": w.name,
            "seed": seed,
            "trace": int(trace),
            "samples": len(ops),
            "medians": {k: statistics.median(v) for k, v in _per_op(ops).items() if v},
            "per_operation": _per_op(ops),
            "failed_frac": len(failures) / attempted,
            "failures": failures[:10],
            "stats": stats,
            "environment": environment(),
        },
    }


def _violations(op) -> list[str]:
    if op is None:
        return ["operation raised; traceback on stderr"]
    return op.violations[:10]


def _quartile(values, upper: bool) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] if upper else quartiles[0]


def _per_op(ops) -> dict[str, list[float]]:
    return {
        "setup_s": [o.setup_s for o in ops],
        "scenario_s": [o.op_s for o in ops],
        "events_per_s": [o.events / o.op_s for o in ops],
        "collusion_targets_per_s": [o.targets / o.collusion_s for o in ops],
        "mc_trials_per_s": [o.trials / o.mc_s for o in ops],
    }


def _end_to_end(ops) -> dict[str, float]:
    """Set-up is the median over operations.  Every other timing is the
    quartile on the slow side: the upper quartile of seconds, the lower
    quartile of rates.  On a shared host whose speed jumps between a usual
    and a faster state for a few seconds at a time, a run's median lands in
    either state depending on how long the faster bursts last, while the
    slow-side quartile stays in the usual one."""
    per_op = _per_op(ops)
    metrics = {"setup_s": statistics.median(per_op.pop("setup_s"))}
    for name, values in per_op.items():
        metrics[name] = _quartile(values, upper=not name.endswith("_per_s"))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        mods = workloads.import_privagg()
    except ImportError as exc:
        print(f"cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), mods)
    details = out["details"]
    details["import_s"] = import_s
    print(
        f"# {details['workload']} seed={args.seed} trace={args.trace}: "
        f"{details['samples']} operations measured, {out['result']['failed']} failed",
        file=sys.stderr,
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
