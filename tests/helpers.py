"""Shared builders for driving rounds over hand-constructed topologies."""

import random

from privagg.adversary import AttackNotApplicableError, AttackOutcome, ChainHop
from privagg.keying import KeyBank, KeyBankConfig, KeyDirectory
from privagg.masking import collusion_recover
from privagg.protocol import MessageKind, RoundRunner
from privagg.simnet import Network, Topology


def path_topology(n, server_links=(1,)):
    edges = tuple((i, i + 1) for i in range(1, n))
    return Topology(n, edges, server_links)


def complete_topology(n, server_links=(1,)):
    edges = tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1))
    return Topology(n, edges, server_links)


def reaches_server(topology, source_id):
    """True when the source has some path to the server."""
    seen = {source_id}
    frontier = [source_id]
    while frontier:
        node = frontier.pop()
        if node in topology.server_links:
            return True
        for peer in topology.sorted_neighbors(node):
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return False


def check_invariants(topology):
    for s in topology.sources():
        if not topology.sorted_neighbors(s) and s not in topology.server_links:
            raise ValueError(f"source {s} has no neighbor and no server link")
        if not reaches_server(topology, s):
            raise ValueError(f"source {s} cannot reach the server")


def build_network(topology, seed=0, total_keys=20, source_source_keys=8):
    """A network over ``topology`` with every source provisioned."""
    config = KeyBankConfig(total_keys, source_source_keys)
    bank = KeyBank.generate(config, random.Random(f"{seed}:bank"))
    directory = KeyDirectory(bank)
    provision_rng = random.Random(f"{seed}:provision")
    for sid in topology.sources():
        directory.provision_source(sid, provision_rng)
    return Network(topology, directory)


def build_round(
    topology,
    values,
    modulus,
    mode="direct",
    seed=0,
    total_keys=20,
    source_source_keys=8,
    **runner_kwargs,
):
    """Wire up directory, network, and a ready-to-run RoundRunner."""
    network = build_network(topology, seed, total_keys, source_source_keys)
    runner = RoundRunner(
        network=network,
        values=values,
        modulus=modulus,
        mode=mode,
        rng=random.Random(f"{seed}:round"),
        keying_rng=random.Random(f"{seed}:keying"),
        **runner_kwargs,
    )
    return runner, network


# Reference attacks: a scan of the round for every call, as the attacks did
# before the per-round chain index.  The equivalence tests hold the indexed
# attacks to these outcomes, exceptions, draws and rates.

_REF_INBOUND = {MessageKind.MASKED_FORWARD, MessageKind.RELAY_DOWN}
_REF_OUTBOUND = {
    MessageKind.MASKED_FORWARD,
    MessageKind.RELAY_UP,
    MessageKind.FINAL_MASKED_VALUE,
}


def _ref_round_no(transcript, round_index):
    return range(1, len(transcript.results) + 1)[round_index]


def reference_chain_hops(transcript, round_index=-1):
    result = transcript.results[round_index]
    events = transcript.round_events(_ref_round_no(transcript, round_index))
    inbound, outbound = {}, {}
    for event in events:
        if event.kind in _REF_INBOUND and event.receiver not in inbound:
            inbound[event.receiver] = event
        if event.kind in _REF_OUTBOUND and event.sender not in outbound:
            outbound[event.sender] = event
    return [
        ChainHop(node=n, inbound=inbound.get(n), outbound=outbound.get(n))
        for n in result.visitation
    ]


def _ref_link(event):
    return tuple(sorted((event.sender, event.receiver)))


def reference_links_used(transcript, round_index=-1):
    events = transcript.round_events(_ref_round_no(transcript, round_index))
    return sorted({_ref_link(e) for e in events})


def _ref_recover(hop, reads, modulus):
    if hop.inbound is None or hop.outbound is None:
        return None
    if not (reads(hop.inbound) and reads(hop.outbound)):
        return None
    return collusion_recover(hop.outbound.payload, hop.inbound.payload, modulus)


def reference_collusion(transcript, target):
    hops = reference_chain_hops(transcript)
    order = [h.node for h in hops]
    if target not in order:
        raise AttackNotApplicableError(f"node {target} did not participate")
    position = order.index(target)
    if position == 0 or position == len(order) - 1:
        raise AttackNotApplicableError(
            f"node {target} lacks a visitation predecessor or successor"
        )
    colluders = {order[position - 1], order[position + 1]}
    value = _ref_recover(
        hops[position],
        lambda event: not colluders.isdisjoint(event.readable_by),
        transcript.modulus,
    )
    if value is None:
        return AttackOutcome(disclosed={}, success=False)
    return AttackOutcome(disclosed={target: value}, success=True)


def reference_link_compromise(transcript, b, rng):
    compromised = {
        link for link in reference_links_used(transcript) if rng.random() < b
    }
    disclosed = {}
    for hop in reference_chain_hops(transcript):
        value = _ref_recover(
            hop, lambda e: _ref_link(e) in compromised, transcript.modulus
        )
        if value is not None:
            disclosed[hop.node] = value
    return AttackOutcome(disclosed=disclosed, success=bool(disclosed))


def reference_disclosure_rate(transcript, target, b, trials, rng):
    """One set of broken links per trial, as the Monte Carlo loop was."""
    links = reference_links_used(transcript)
    hop = next(h for h in reference_chain_hops(transcript) if h.node == target)
    link_in, link_out = _ref_link(hop.inbound), _ref_link(hop.outbound)
    exposed = 0
    for _ in range(trials):
        compromised = {link for link in links if rng.random() < b}
        if link_in in compromised and link_out in compromised:
            exposed += 1
    return exposed / trials
