"""Attack analyses over recorded transcripts.

All node-level attacks here share one event semantics: a node's private
value is exposed exactly when the adversary can read both the masked value
that entered the node and the masked value that left it, because their
modular difference is the node's contribution.  "Can read" is decided by the
transcript's per-event readable-by sets, i.e. by key possession.

For neighbor collusion the adversary is the pair of visitation-order
neighbors of the target and the observed events are the target's two
incident chain hops.  Over a direct source-to-source hop the colluders are
endpoints of those hops and recovery is exact; in strict-relay mode both
hops run between the target and the server under the target's own session
key, so the colluders read neither.  For link compromise each link used in
the round is broken independently with probability b, and a middle node with
two distinct incident links is exposed with probability b².

The malicious-server probe is a behavioral attack, not a transcript scan:
the server ends the chain immediately after initiation, so the "sum" the
initiator is asked to report is the initiator's own value.  The initiator's
refusal check (report refused whenever the unmasked total equals its own
value) blocks the probe completely; an ablation switch exists solely to
demonstrate that the check is what blocks it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .keying import SERVER
from .masking import collusion_recover
from .protocol import MASKED_VALUE_KINDS, MessageKind, ProtocolError, RoundOutcome
from .simnet import ScenarioConfig, Transcript, TraceEvent, run_scenario

_CHAIN_INBOUND = frozenset({MessageKind.MASKED_FORWARD, MessageKind.RELAY_DOWN})
_CHAIN_OUTBOUND = frozenset(
    {
        MessageKind.MASKED_FORWARD,
        MessageKind.RELAY_UP,
        MessageKind.FINAL_MASKED_VALUE,
    }
)


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


def chain_hops(transcript: Transcript, round_index: int = -1) -> list[ChainHop]:
    """Reconstruct the visitation chain and its incident events for a round."""
    result = transcript.results[round_index]
    round_no = round_index + 1 if round_index >= 0 else len(transcript.results)
    events = transcript.round_events(round_no)
    inbound: dict[int, TraceEvent] = {}
    outbound: dict[int, TraceEvent] = {}
    for event in events:
        msg = event.message
        if msg.kind in _CHAIN_INBOUND and msg.receiver not in inbound:
            inbound[msg.receiver] = event
        if msg.kind in _CHAIN_OUTBOUND and msg.sender not in outbound:
            outbound[msg.sender] = event
    return [
        ChainHop(node=n, inbound=inbound.get(n), outbound=outbound.get(n))
        for n in result.visitation
    ]


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
    hops = chain_hops(transcript)
    order = [h.node for h in hops]
    if target not in order:
        raise AttackNotApplicableError(f"node {target} did not participate")
    position = order.index(target)
    if position == 0 or position == len(order) - 1:
        raise AttackNotApplicableError(
            f"node {target} lacks a visitation predecessor or successor"
        )
    colluders = {order[position - 1], order[position + 1]}
    hop = hops[position]
    readable_in = hop.inbound is not None and bool(hop.inbound.readable_by & colluders)
    readable_out = hop.outbound is not None and bool(
        hop.outbound.readable_by & colluders
    )
    if readable_in and readable_out:
        value = collusion_recover(
            hop.outbound.message.payload,
            hop.inbound.message.payload,
            transcript.modulus,
        )
        return AttackOutcome(disclosed={target: value}, success=True)
    return AttackOutcome(disclosed={}, success=False)


def run_server_probe(config: ScenarioConfig) -> AttackOutcome:
    """Run one probing round: the server terminates the chain at the initiator.

    With the refusal check in place the round ends refused and nothing is
    disclosed; with the ablation variant the initiator reports the "sum" and
    the server has learned that node's private value.
    """
    if config.adversary not in ("probe", "probe_ablation"):
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


def _event_link(event: TraceEvent) -> tuple[int, int]:
    msg = event.message
    return tuple(sorted((msg.sender, msg.receiver)))  # type: ignore[return-value]


def links_used(transcript: Transcript, round_index: int = -1) -> list[tuple[int, int]]:
    """Distinct links carrying traffic in a round, in canonical order."""
    round_no = round_index + 1 if round_index >= 0 else len(transcript.results)
    return sorted({_event_link(e) for e in transcript.round_events(round_no)})


def _disclosures_for_compromise(
    hops: list[ChainHop], compromised: set[tuple[int, int]], modulus: int
) -> dict[int, int]:
    disclosed = {}
    for hop in hops:
        if hop.inbound is None or hop.outbound is None:
            continue
        if (
            _event_link(hop.inbound) in compromised
            and _event_link(hop.outbound) in compromised
        ):
            disclosed[hop.node] = collusion_recover(
                hop.outbound.message.payload,
                hop.inbound.message.payload,
                modulus,
            )
    return disclosed


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
    hops = chain_hops(transcript)
    compromised = {link for link in links_used(transcript) if rng.random() < b}
    disclosed = _disclosures_for_compromise(hops, compromised, transcript.modulus)
    return AttackOutcome(disclosed=disclosed, success=bool(disclosed))


def empirical_disclosure_rate(
    transcript: Transcript,
    target: int,
    b: float,
    trials: int,
    rng: random.Random,
) -> float:
    """Monte Carlo frequency of ``target`` being exposed by link compromise.

    Same event as `run_link_compromise`, with the chain structure extracted
    once so large trial counts stay cheap.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("link break probability must be in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hops = chain_hops(transcript)
    links = links_used(transcript)
    hop = next((h for h in hops if h.node == target), None)
    if hop is None or hop.inbound is None or hop.outbound is None:
        raise AttackNotApplicableError(
            f"node {target} lacks two incident chain hops"
        )
    link_in = _event_link(hop.inbound)
    link_out = _event_link(hop.outbound)
    exposed = 0
    for _ in range(trials):
        compromised = {link for link in links if rng.random() < b}
        if link_in in compromised and link_out in compromised:
            exposed += 1
    return exposed / trials
