"""Spans and counts around calls into each privagg module, for traced runs.

``install`` replaces public functions and methods of the imported privagg
modules with wrappers that time each call as a span, and returns a function
that puts the originals back.  A span's self time is its duration minus the
spans it directly contains.  Nothing in ``src/privagg`` changes; the
wrappers live only during one traced operation.
Counts that a layer's result carries (edges, bytes, trials, op counts) are
taken by hooks after the span has ended, so they are not in its time.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from types import SimpleNamespace

# (module, qualified name) of every traced callable.  Module-level functions
# are also replaced in every privagg module that imported them by name.
TRACED = (
    ("simnet", "generate_topology"),
    ("simnet", "Network.deliver"),
    ("simnet", "Transcript.serialize"),
    ("simnet", "Transcript.round_events"),
    ("keying", "KeyDirectory.provision_source"),
    ("keying", "KeyDirectory.resolve_aggregator_key"),
    ("keying", "KeyDirectory.establish_pairwise_key"),
    ("keying", "SourceKeyring.select_aggregator_key"),
    ("protocol", "RoundRunner.run"),
    ("protocol", "RoundRunner.establish_sessions"),
    ("protocol", "RoundRunner.finalize_round"),
    ("protocol", "RoundRunner.server_select_next"),
    ("protocol", "RoundRunner.server_relay_jump_choice"),
    ("masking", "mask_initial"),
    ("masking", "chain_add"),
    ("masking", "unmask"),
    ("masking", "collusion_recover"),
    ("adversary", "chain_hops"),
    ("adversary", "run_collusion_attack"),
    ("adversary", "empirical_disclosure_rate"),
    ("analysis", "sweep_curve"),
    ("cpda", "benchmark_kernel"),
    ("cli", "parse_config_text"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _ in TRACED))


def _count(key, amount):
    def hook(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)

    return hook


def _hook_round_events(counts, args, kwargs, result):
    counts["round_events_scanned"] += len(args[0].events)
    counts["round_events_returned"] += len(result)


HOOKS = {
    "simnet.generate_topology": _count("edges", lambda a, k, r: len(r.edges)),
    "simnet.Transcript.serialize": _count("serialize_bytes", lambda a, k, r: len(r)),
    "simnet.Transcript.round_events": _hook_round_events,
    "adversary.run_collusion_attack": _count(
        "collusion_successes", lambda a, k, r: r.success
    ),
    "adversary.empirical_disclosure_rate": _count(
        "mc_trials", lambda a, k, r: k["trials"] if "trials" in k else a[3]
    ),
    "cpda.benchmark_kernel": _count("op_count", lambda a, k, r: r.op_count),
}


class Tracer:
    """Per-span-name totals of one operation; records only while active."""

    def __init__(self) -> None:
        self.active = False
        self.reset()

    def reset(self) -> None:
        self._stack: list[list[float]] = []
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: Counter[str] = Counter()

    def wrap(self, fn, name: str):
        tracer = self
        perf = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            children = [0.0]
            stack.append(children)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                tracer.total[name] = tracer.total.get(name, 0.0) + duration
                tracer.self_time[name] = (
                    tracer.self_time.get(name, 0.0) + duration - children[0]
                )
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, the best of three timings."""

        def noop():
            return None

        wrapped = self.wrap(noop, "trace.calibration")
        best = float("inf")
        self.active = True
        try:
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(calls):
                    wrapped()
                mid = time.perf_counter()
                for _ in range(calls):
                    noop()
                best = min(best, (mid - start) - (time.perf_counter() - mid))
        finally:
            self.active = False
            self.reset()
        return max(best, 0.0) / calls


def install(tracer: Tracer, mods: SimpleNamespace):
    """Wrap every callable in TRACED on the given privagg modules.

    Returns a function that puts the originals back.
    """
    modules = vars(mods).values()
    undo = []
    for layer, qualname in TRACED:
        owner = getattr(mods, layer)
        *classes, attr = qualname.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, f"{layer}.{qualname}")
        targets = [owner]
        if not classes:
            targets += [m for m in modules if m is not owner and getattr(m, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapped)
            undo.append((target, attr, original))

    def restore() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore


def layer_metrics(tracer: Tracer, stats: dict, span_cost: float) -> dict[str, float]:
    """Per-layer figures of one traced operation (seconds summed over spans)."""
    t, s, c, n = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def tot(*names):
        return sum(t.get(x, 0.0) for x in names)

    def calls(*names):
        return sum(c.get(x, 0) for x in names)

    session = (
        "keying.SourceKeyring.select_aggregator_key",
        "keying.KeyDirectory.resolve_aggregator_key",
    )
    select = (
        "protocol.RoundRunner.server_select_next",
        "protocol.RoundRunner.server_relay_jump_choice",
    )
    masking = tuple(f"{layer}.{q}" for layer, q in TRACED if layer == "masking")
    scanned = n["round_events_scanned"]
    collusions = calls("adversary.run_collusion_attack")
    out = {
        "simnet.topology_s": tot("simnet.generate_topology"),
        "simnet.edges": n["edges"],
        "simnet.deliver_s": tot("simnet.Network.deliver"),
        "simnet.deliver_calls": calls("simnet.Network.deliver"),
        "simnet.serialize_s": tot("simnet.Transcript.serialize"),
        "simnet.serialize_bytes": n["serialize_bytes"],
        "simnet.round_events_s": tot("simnet.Transcript.round_events"),
        "simnet.round_events_calls": calls("simnet.Transcript.round_events"),
        "simnet.round_events_hit_ratio": (
            n["round_events_returned"] / scanned if scanned else 0.0
        ),
        "keying.pairwise_s": tot("keying.KeyDirectory.establish_pairwise_key"),
        "keying.pairwise_calls": calls("keying.KeyDirectory.establish_pairwise_key"),
        "keying.session_s": tot(*session),
        "keying.session_calls": calls(*session),
        "keying.provision_s": tot("keying.KeyDirectory.provision_source"),
        "keying.provision_calls": calls("keying.KeyDirectory.provision_source"),
        "protocol.round_s": tot("protocol.RoundRunner.run"),
        "protocol.round_self_s": s.get("protocol.RoundRunner.run", 0.0),
        "protocol.round_calls": calls("protocol.RoundRunner.run"),
        "protocol.sessions_s": tot("protocol.RoundRunner.establish_sessions"),
        "protocol.finalize_s": tot("protocol.RoundRunner.finalize_round"),
        "protocol.select_s": tot(*select),
        "protocol.select_calls": calls(*select),
        "protocol.direct_hops": stats["direct_hops"],
        "protocol.relay_jumps": stats["relay_jumps"],
        "protocol.count_mismatches": stats["count_mismatches"],
        "masking.calls": calls(*masking),
        "masking.s": tot(*masking),
        "masking.overhead_s": calls(*masking) * span_cost,
        "adversary.chain_hops_s": tot("adversary.chain_hops"),
        "adversary.collusion_s": tot("adversary.run_collusion_attack"),
        "adversary.collusion_success_ratio": (
            n["collusion_successes"] / collusions if collusions else 0.0
        ),
        "adversary.montecarlo_s": tot("adversary.empirical_disclosure_rate"),
        "adversary.mc_trials": n["mc_trials"],
        "analysis.sweep_s": tot("analysis.sweep_curve"),
        "analysis.sweep_self_s": s.get("analysis.sweep_curve", 0.0),
        "cpda.kernel_s": tot("cpda.benchmark_kernel"),
        "cpda.op_count": n["op_count"],
        "cli.parse_s": tot("cli.parse_config_text"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in s.items() if k.startswith(layer + "."))
    out["trace.spans"] = sum(c.values())
    out["trace.span_cost_s"] = span_cost
    return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
