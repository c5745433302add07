"""Attack analyses over recorded transcripts.

All node-level attacks here share one event semantics: a node's private
value is exposed exactly when the adversary can read both the masked value
that entered the node and the masked value that left it, because their
modular difference is the node's contribution.  "Can read" is decided by the
transcript's per-event readable-by sets, i.e. by key possession.

The chain structure of a round (its hops in visitation order, each node's
position and the used links in canonical order) is built once per round by
one `chain_hops` scan, cached on the transcript, and shared by all attacks;
so attacking every target of a round costs one scan plus a dict lookup per
target.

For neighbor collusion the adversary is the pair of visitation-order
neighbors of the target and the observed events are the target's two
incident chain hops.  Over a direct source-to-source hop the colluders are
endpoints of those hops and recovery is exact; in strict-relay mode both
hops run between the target and the server under the target's own session
key, so the colluders read neither.  For link compromise each link used in
the round is broken independently with probability b, and a middle node with
two distinct incident links is exposed with probability b².  The Monte Carlo
estimate of that rate reads the same random stream as one `random()` per
used link per trial, but draws only the target's two values and steps over
the rest with `getrandbits`, which consumes the stream identically.

The malicious-server probe is a behavioral attack, not a transcript scan:
the server ends the chain immediately after initiation, so the "sum" the
initiator is asked to report is the initiator's own value.  The initiator's
refusal check (report refused whenever the unmasked total equals its own
value) blocks the probe completely; an ablation switch exists solely to
demonstrate that the check is what blocks it.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import chain, repeat

from .keying import SERVER
from .masking import collusion_recover
from .protocol import (
    CHAIN_INBOUND,
    CHAIN_OUTBOUND,
    MASKED_VALUE_KINDS,
    ProtocolError,
    RoundOutcome,
)
from .simnet import PROBE_KINDS, ScenarioConfig, Transcript, TraceEvent, run_scenario


class AttackNotApplicableError(Exception):
    """The attack's structural preconditions do not hold for this target."""


@dataclass
class AttackOutcome:
    """Recovered values per node, if any, and whether the defense fired."""

    disclosed: dict[int, int]
    success: bool
    defense_triggered: bool = False


@dataclass(frozen=True)
class ChainHop:
    """One node's position in the chain with its incident value-bearing events."""

    node: int
    inbound: TraceEvent | None  # delivery of the predecessor's masked value
    outbound: TraceEvent | None  # emission of this node's masked value


class _ChainIndex:
    """One round's chain structure, read by every attack on that round."""

    __slots__ = ("hops", "position", "link_position")

    def __init__(self, hops: list[ChainHop], links: set[tuple[int, int]]) -> None:
        self.hops = tuple(hops)  # visitation order
        self.position = {hop.node: i for i, hop in enumerate(hops)}
        # every used link, in canonical order, with its place in that order
        self.link_position = {link: i for i, link in enumerate(sorted(links))}


def _event_link(event: TraceEvent) -> tuple[int, int]:
    a, b = event.message.sender, event.message.receiver
    return (a, b) if a < b else (b, a)


def _round_no(transcript: Transcript, round_index: int) -> int:
    """Round number of ``results[round_index]``, checked like an index."""
    n = len(transcript.results)
    if not -n <= round_index < n:
        raise IndexError(f"round index {round_index} out of range")
    return round_index % n + 1


def chain_hops(transcript: Transcript, round_index: int = -1) -> list[ChainHop]:
    """Reconstruct the visitation chain and its incident events for a round.

    The same scan collects the round's used links, and both are cached on
    the transcript as the round's chain index, which the attacks read.
    """
    round_no = _round_no(transcript, round_index)
    inbound: dict[int, TraceEvent] = {}
    outbound: dict[int, TraceEvent] = {}
    links: set[tuple[int, int]] = set()
    for event in transcript.round_events(round_no):
        msg = event.message
        kind, sender, receiver = msg.kind, msg.sender, msg.receiver
        if kind in CHAIN_INBOUND and receiver not in inbound:
            inbound[receiver] = event
        if kind in CHAIN_OUTBOUND and sender not in outbound:
            outbound[sender] = event
        links.add(_event_link(event))
    hops = [
        ChainHop(node=n, inbound=inbound.get(n), outbound=outbound.get(n))
        for n in transcript.results[round_no - 1].visitation
    ]
    transcript._chain_indexes[round_no] = _ChainIndex(hops, links)
    return hops


def _chain_index(transcript: Transcript, round_index: int = -1) -> _ChainIndex:
    """The round's cached chain index; `chain_hops` builds it on first use."""
    round_no = _round_no(transcript, round_index)
    index = transcript._chain_indexes.get(round_no)
    if index is None:
        chain_hops(transcript, round_index)
        index = transcript._chain_indexes[round_no]
    return index  # type: ignore[return-value]


def _recover(
    hop: ChainHop, reads: Callable[[TraceEvent], bool], modulus: int
) -> int | None:
    """The hop node's value when ``reads`` holds for both its incident
    events (their difference is the value), else None."""
    if hop.inbound is None or hop.outbound is None:
        return None
    if not (reads(hop.inbound) and reads(hop.outbound)):
        return None
    return collusion_recover(
        hop.outbound.message.payload, hop.inbound.message.payload, modulus
    )


def semi_honest_view(transcript: Transcript, nodes: set[int]) -> list[TraceEvent]:
    """Every trace event at least one of the given nodes can read.

    Node-level adversaries only; the aggregator is modelled separately by
    the server probe.
    """
    if SERVER in nodes:
        raise ValueError("semi-honest node sets exclude the aggregator")
    return [e for e in transcript.events if e.readable_by & nodes]


def observed_masked_values(transcript: Transcript, nodes: set[int]) -> list[int]:
    """Masked chain values visible to the given nodes, in trace order."""
    return [
        e.message.payload
        for e in semi_honest_view(transcript, nodes)
        if e.message.kind in MASKED_VALUE_KINDS
    ]


def run_collusion_attack(transcript: Transcript, target: int) -> AttackOutcome:
    """Visitation-order neighbors of ``target`` pool what they can read.

    Recovery needs both of the target's incident chain hops to be readable
    by a colluder; then the difference of the two masked values is the
    target's private value, exactly.
    """
    index = _chain_index(transcript)
    hops = index.hops
    position = index.position.get(target)
    if position is None:
        raise AttackNotApplicableError(f"node {target} did not participate")
    if position == 0 or position == len(hops) - 1:
        raise AttackNotApplicableError(
            f"node {target} lacks a visitation predecessor or successor"
        )
    colluders = {hops[position - 1].node, hops[position + 1].node}
    value = _recover(
        hops[position],
        lambda event: not colluders.isdisjoint(event.readable_by),
        transcript.modulus,
    )
    if value is None:
        return AttackOutcome(disclosed={}, success=False)
    return AttackOutcome(disclosed={target: value}, success=True)


def run_server_probe(config: ScenarioConfig) -> AttackOutcome:
    """Run one probing round: the server terminates the chain at the initiator.

    With the refusal check in place the round ends refused and nothing is
    disclosed; with the ablation variant the initiator reports the "sum" and
    the server has learned that node's private value.
    """
    if config.adversary not in PROBE_KINDS:
        raise ValueError("scenario is not configured with a server probe")
    transcript = run_scenario(config)
    result = transcript.result
    if result.outcome is RoundOutcome.REFUSED:
        return AttackOutcome(disclosed={}, success=False, defense_triggered=True)
    if result.total is None:
        raise ProtocolError("probe round ended without a sum")
    return AttackOutcome(
        disclosed={result.initiator: result.total},
        success=True,
        defense_triggered=False,
    )


def probe_all_initiators(config: ScenarioConfig) -> dict[int, AttackOutcome]:
    """Probe once per source, forcing each in turn to initiate."""
    return {
        sid: run_server_probe(replace(config, force_initiator=sid))
        for sid in range(1, config.n_sources + 1)
    }


def links_used(transcript: Transcript, round_index: int = -1) -> list[tuple[int, int]]:
    """Distinct links carrying traffic in a round, in canonical order."""
    return list(_chain_index(transcript, round_index).link_position)


def run_link_compromise(
    transcript: Transcript, b: float, rng: random.Random
) -> AttackOutcome:
    """Break each link used in the round independently with probability b.

    A node is exposed when both its incident chain hops ran over compromised
    links; recovery is then exact.  The chain's first node has no inbound
    masked value and can never be exposed this way.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("link break probability must be in [0, 1]")
    index = _chain_index(transcript)
    compromised = {link for link in index.link_position if rng.random() < b}

    def broken(event: TraceEvent) -> bool:
        return _event_link(event) in compromised

    disclosed = {}
    for hop in index.hops:
        value = _recover(hop, broken, transcript.modulus)
        if value is not None:
            disclosed[hop.node] = value
    return AttackOutcome(disclosed=disclosed, success=bool(disclosed))


def empirical_disclosure_rate(
    transcript: Transcript,
    target: int,
    b: float,
    trials: int,
    rng: random.Random,
) -> float:
    """Monte Carlo frequency of ``target`` being exposed by link compromise.

    Same event and the same stream as `run_link_compromise`: each trial
    owns one `random()` per used link, in canonical order, but calls
    `random()` only at the positions of the target's two links and steps
    over each run of other links with one `getrandbits(64 * k)`, which
    advances the generator exactly as ``k`` calls to `random()` would.
    The rate and the generator's final state are those of drawing every
    link.  ``rng`` must therefore be a `random.Random`.  In strict-relay
    mode both hops use the target's server link, so one draw is compared
    twice.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("link break probability must be in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    index = _chain_index(transcript)
    position = index.position.get(target)
    hop = None if position is None else index.hops[position]
    if hop is None or hop.inbound is None or hop.outbound is None:
        raise AttackNotApplicableError(
            f"node {target} lacks two incident chain hops"
        )
    at = index.link_position
    lo, hi = sorted((at[_event_link(hop.inbound)], at[_event_link(hop.outbound)]))
    tail = 64 * (len(at) - 1 - hi)  # bits past the second draw
    gap = 64 * (hi - lo - 1)  # bits between the two draws; -64 when lo == hi
    draw, skip = rng.random, rng.getrandbits
    if lo:
        skip(64 * lo)
    exposed = 0
    # after each trial, skip to the next trial's first draw; after the last,
    # skip only the links past ``hi``
    for after in chain(repeat(tail + 64 * lo, trials - 1), (tail,)):
        first = draw()
        if gap > 0:
            skip(gap)
        second = draw() if gap >= 0 else first
        if first < b and second < b:
            exposed += 1
        if after:
            skip(after)
    return exposed / trials
