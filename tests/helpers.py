"""Shared builders for driving rounds over hand-constructed topologies."""

import random

from privagg.keying import KeyBank, KeyBankConfig, KeyDirectory
from privagg.protocol import RoundRunner
from privagg.simnet import Network, Topology


def path_topology(n, server_links=(1,)):
    edges = tuple((i, i + 1) for i in range(1, n))
    return Topology(n, edges, frozenset(server_links))


def complete_topology(n, server_links=(1,)):
    edges = tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1))
    return Topology(n, edges, frozenset(server_links))


def reaches_server(topology, source_id):
    """True when the source has some path to the server."""
    seen = {source_id}
    frontier = [source_id]
    while frontier:
        node = frontier.pop()
        if node in topology.aggregator_links:
            return True
        for peer in topology.neighbors(node):
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return False


def check_invariants(topology):
    for s in topology.sources():
        if not topology.neighbors(s) and s not in topology.aggregator_links:
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
