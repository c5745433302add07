"""The benchmark's workloads: what one operation does and how it is checked.

A run imports ``privagg`` once from the checkout's ``src`` directory.  Every
operation parses its scenario config with ``privagg.cli.parse_config_text``
(the path ``privagg run`` takes) and then runs a timed window:

* ``deploy-large`` and ``rounds-sparse``: ``run_scenario`` plus
  ``Transcript.serialize``, then a short analysis tail over the fresh
  transcript (collusion on spread-out targets, one link-compromise Monte
  Carlo), timed apart, so the analysis metrics also exist on these
  workloads.
* ``analyze``: the transcript is built in set-up, outside the window.  The
  window runs collusion on every middle target of the last round, a
  ``sweep_curve`` with Monte Carlo, and ``benchmark_kernel`` for both schemes.

After the window, untimed, the gate re-derives every result from the
transcript and counts violations; an operation with any violation fails.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULUS = 2**32
VALUE_RANGE = "0..999"
TOTAL_KEYS = 100
SOURCE_SOURCE_KEYS = 30

MC_B = 0.5  # link-break probability of the tail Monte Carlo
MC_SIGMAS = 5.0  # binomial tolerance of every Monte Carlo rate
SWEEP_GRID = (0.0, 1.0, 0.05)
KERNEL_SIZES = (3, 4, 5)
KERNEL_REPETITIONS = 50

# Kinds that carry the running masked value over one hop.
HOP_KINDS = ("MaskedForward", "RelayUp", "RelayDown")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: float
    mode: str
    rounds: int
    # True: the transcript is built in set-up and the window only analyses it.
    analysis_only: bool
    # Collusion targets per operation; None means every middle target.
    collusion_targets: int | None
    # Monte Carlo trials: per grid point on analyze, per operation otherwise.
    mc_trials: int


WORKLOADS = {
    w.name: w
    for w in (
        # O(n^2) topology generation dominates; strict-relay sets up no
        # pairwise keys, so any per-hop keying change is bypassed here.  Each
        # collusion target costs only a few ms on this one-round transcript,
        # so 64 of them make a stage long enough to time steadily.
        Workload("deploy-large", 1000, 0.5, "strict-relay", 1, False, 64, 1000),
        # Per-round machinery dominates (sessions, pairwise setup, delivery,
        # selection); the sparse graph mixes direct hops with relay jumps,
        # and the 40-round transcript makes round_events scans long.  Forty
        # rounds rather than a hundred give more operations per run, which
        # a shared two-core host needs for a steady figure.
        Workload("rounds-sparse", 200, 0.02, "direct", 40, False, 16, 1000),
        # Attack, curve and kernel work with no scenario inside the window.
        Workload("analyze", 100, 0.5, "direct", 50, True, None, 10000),
    )
}


def scenario_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` of a run: distinct for every operation."""
    return seed * 1_000_000 + index


def config_text(w: Workload, seed: int) -> str:
    return (
        f"n_sources = {w.n}\n"
        f"modulus = {MODULUS}\n"
        f"values = {VALUE_RANGE}\n"
        f"K = {TOTAL_KEYS}\n"
        f"k = {SOURCE_SOURCE_KEYS}\n"
        f"p = {w.p}\n"
        f"seed = {seed}\n"
        f"mode = {w.mode}\n"
        f"rounds = {w.rounds}\n"
    )


def import_privagg() -> SimpleNamespace:
    """Import ``privagg`` from source, dropping any earlier import first."""
    if not (SRC / "privagg" / "__init__.py").is_file():
        raise ImportError(f"no privagg package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "privagg" or m.startswith("privagg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("privagg")
    if Path(pkg.__file__).resolve().parent != SRC / "privagg":
        raise ImportError(f"privagg imported from {pkg.__file__}, not {SRC}")
    importlib.import_module("privagg.cli")
    names = ("cli", "simnet", "protocol", "keying", "masking", "adversary", "analysis", "cpda")
    return SimpleNamespace(**{name: getattr(pkg, name) for name in names})


@dataclass
class OpResult:
    """Timings, outputs and gate verdict of one operation."""

    setup_s: float = 0.0
    op_s: float = 0.0
    collusion_s: float = 0.0
    mc_s: float = 0.0
    events: int = 0
    targets: int = 0
    trials: int = 0
    violations: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.violations)


def _spread(items: tuple[int, ...], count: int | None) -> list[int]:
    if count is None or len(items) <= count:
        return list(items)
    return [items[i * len(items) // count] for i in range(count)]


def run_operation(
    w: Workload,
    seed: int,
    mods: SimpleNamespace,
    window: Callable[[bool], None] = lambda active: None,
) -> OpResult:
    """Set up and run one operation on the modules ``mods``, then check it.

    ``window`` is told when set-up parsing and the timed window start and
    stop.
    """
    res = OpResult()
    start = time.perf_counter()
    window(True)
    config = mods.cli.parse_config_text(config_text(w, seed))
    window(False)
    transcript = mods.simnet.run_scenario(config) if w.analysis_only else None
    res.setup_s = time.perf_counter() - start

    window(True)
    t0 = time.perf_counter()
    text = None
    if transcript is None:
        transcript = mods.simnet.run_scenario(config)
        text = transcript.serialize()
    visitation = transcript.result.visitation
    targets = _spread(visitation[1:-1], w.collusion_targets)
    t1 = time.perf_counter()
    outcomes = [mods.adversary.run_collusion_attack(transcript, t) for t in targets]
    t2 = time.perf_counter()
    if w.analysis_only:
        model = mods.analysis.DisclosureModel(b=0.0, min_cluster=3, max_cluster=3)
        grid = mods.analysis.probability_grid(*SWEEP_GRID)
        points = mods.analysis.sweep_curve(model, grid, trials=w.mc_trials, seed=seed)
        rates = [(pt.b, pt.p_ours_empirical, None) for pt in points]
        res.trials = w.mc_trials * len(points)
    else:
        mc_target = visitation[len(visitation) // 2]
        rate = mods.adversary.empirical_disclosure_rate(
            transcript, mc_target, MC_B, w.mc_trials, random.Random(f"{seed}:mc")
        )
        rates = [(MC_B, rate, mc_target)]
        res.trials = w.mc_trials
    t3 = time.perf_counter()
    kernels = []
    if w.analysis_only:
        kernels = [
            mods.cpda.benchmark_kernel(scheme, size, KERNEL_REPETITIONS, seed=seed)
            for scheme in ("ours", "cpda")
            for size in KERNEL_SIZES
        ]
    t4 = time.perf_counter()
    window(False)

    # The scenario workloads' window is run_scenario + serialize; their
    # analysis tail has its own timers.  On analyze the whole window counts.
    res.op_s = t4 - t0 if w.analysis_only else t1 - t0
    res.collusion_s = t2 - t1
    res.mc_s = t3 - t2
    res.events = len(transcript.events)
    res.targets = len(targets)
    if text is None:
        text = transcript.serialize()
    check(mods, config, transcript, targets, outcomes, rates, w.mc_trials, kernels, res)
    res.stats["transcript_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    outputs = (
        [(t, o.success, sorted(o.disclosed.items())) for t, o in zip(targets, outcomes)],
        [r for _, r, _ in rates],
        [(k.scheme, k.n_nodes, k.op_count) for k in kernels],
    )
    res.stats["output_sha256"] = hashlib.sha256(repr(outputs).encode()).hexdigest()
    return res


def check(mods, config, transcript, targets, outcomes, rates, trials, kernels, res):
    """The correctness gate: append one line per violation to ``res``.

    1. each round's result is the true sum, or a refusal only in the
       false-alarm case (the total equals the initiator's own value);
    2. each round sends 2n + 5 + 7d + 3j messages (d direct hops, j relay
       hops, d + j = n - 1), which is 5n + 2 in strict-relay mode;
    3. every MaskedForward, RelayUp and RelayDown event is readable by
       exactly its sender and receiver;
    4. collusion succeeds exactly when both of the target's incident hops
       are MaskedForward, and every disclosed value is the true value;
    5. each Monte Carlo rate lies within MC_SIGMAS binomial standard
       deviations of b**L, L the number of distinct links the target's two
       hops use (two for the sweep's middle node, given as target None).
    """
    bad = res.violations
    n = config.n_sources
    rounds: dict[int, dict[str, int]] = {}
    for e in transcript.events:
        msg = e.message
        kinds = rounds.setdefault(e.round_no, {})
        kind = msg.kind.value
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind in HOP_KINDS and e.readable_by != {msg.sender, msg.receiver}:
            bad.append(f"step {e.step}: {kind} readable by {sorted(e.readable_by)}")
    if sorted(rounds) != list(range(1, len(transcript.results) + 1)):
        bad.append(f"rounds in the trace {sorted(rounds)[:5]}... do not match results")
    totals: dict[str, int] = {}
    mismatches = 0
    for round_no, result in enumerate(transcript.results, start=1):
        values = mods.simnet.scenario_values(config, round_no)
        truth = sum(values)
        outcome = result.outcome.value
        if outcome == "sum" and result.total != truth:
            bad.append(f"round {round_no}: sum {result.total}, truth {truth}")
        elif outcome == "refused" and values[result.initiator - 1] != truth:
            bad.append(f"round {round_no}: refused outside the false-alarm case")
        elif outcome not in ("sum", "refused"):
            bad.append(f"round {round_no}: outcome {outcome}")
        kinds = rounds.get(round_no, {})
        d, j = kinds.get("MaskedForward", 0), kinds.get("RelayUp", 0)
        if sum(kinds.values()) != 2 * n + 5 + 7 * d + 3 * j or d + j != n - 1:
            mismatches += 1
            bad.append(f"round {round_no}: {sum(kinds.values())} messages, d={d} j={j}")
        for kind, count in kinds.items():
            totals[kind] = totals.get(kind, 0) + count

    last = len(transcript.results)
    direct = {
        (e.message.sender, e.message.receiver)
        for e in transcript.events
        if e.round_no == last and e.message.kind.value == "MaskedForward"
    }
    visitation = transcript.result.visitation
    position = {node: i for i, node in enumerate(visitation)}
    truth = mods.simnet.scenario_values(config, last)

    def hop_links(node: int) -> tuple[bool, set]:
        i = position[node]
        prev = visitation[i - 1] if i > 0 else None
        nxt = visitation[i + 1] if i + 1 < len(visitation) else None
        in_direct, out_direct = (prev, node) in direct, (node, nxt) in direct
        links = {
            (prev, node) if in_direct else (0, node),
            (node, nxt) if out_direct else (0, node),
        }
        return in_direct and out_direct, links

    for target, outcome in zip(targets, outcomes):
        expected, _ = hop_links(target)
        disclosed = {target: truth[target - 1]} if expected else {}
        if outcome.success != expected or outcome.disclosed != disclosed:
            bad.append(f"collusion on c{target}: {outcome}, expected {disclosed}")

    for b, rate, target in rates:
        p = b ** (2 if target is None else len(hop_links(target)[1]))
        tolerance = MC_SIGMAS * (p * (1 - p) / trials) ** 0.5 + 1e-12
        if rate is None or abs(rate - p) > tolerance:
            bad.append(f"Monte Carlo at b={b}: {rate}, expected {p} +- {tolerance}")

    for k in kernels:
        if k.scheme == "ours" and k.op_count != k.n_nodes + 1:
            bad.append(f"chain kernel n={k.n_nodes}: {k.op_count} ops")

    res.stats.update(
        scenario_seed=config.seed,
        events=len(transcript.events),
        messages=dict(sorted(totals.items())),
        direct_hops=totals.get("MaskedForward", 0),
        relay_jumps=totals.get("RelayUp", 0),
        pairwise_setups=totals.get("PermuteExchange", 0) // 4,
        count_mismatches=mismatches,
    )
