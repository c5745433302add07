"""Deterministic simulated network: topology, delivery, transcript.

The network is a set of source nodes with an undirected peer graph plus a
distinguished aggregation server.  Source-to-source messages need a direct
edge; traffic between a source and the server is always deliverable because
topology generation guarantees every source at least an indirect path to the
server (control traffic is logically routed, and its confidentiality never
depends on the route: encrypted payloads are readable by key holders only).

Every delivery appends one trace event carrying the message, the key it was
encrypted under (or a plaintext marker), and the exact set of principals able
to read it.  A transcript is a pure function of the scenario configuration
and seed: replaying the same seed reproduces it byte for byte.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

from .keying import SERVER, KeyBank, KeyBankConfig, KeyDirectory
from .protocol import MODES, Message, RoundResult, RoundRunner, node_label

ADVERSARY_KINDS = ("none", "probe", "probe_ablation", "collusion", "link")


class SimError(Exception):
    """Base error for simulator failures."""


class NoLinkError(SimError):
    """Message addressed between sources that share no edge."""


class ConfigError(SimError):
    """Scenario configuration failed validation."""

    def __init__(self, fieldname: str, message: str) -> None:
        super().__init__(f"field {fieldname!r}: {message}")
        self.fieldname = fieldname


class Topology:
    """Undirected source graph plus the set of direct server links."""

    def __init__(
        self,
        n_sources: int,
        edges: Iterable[tuple[int, int]],
        aggregator_links: frozenset[int],
        augmented_links: tuple[int, ...] = (),
    ) -> None:
        if n_sources < 1:
            raise ValueError("topology needs at least one source")
        self.n_sources = n_sources
        adjacency: list[set[int]] = [set() for _ in range(n_sources + 1)]
        for a, b in edges:
            if a == b or not (1 <= a <= n_sources and 1 <= b <= n_sources):
                raise ValueError(f"bad edge ({a}, {b})")
            adjacency[a].add(b)
            adjacency[b].add(a)
        self._adjacency = {i: frozenset(adjacency[i]) for i in self.sources()}
        edge_list: list[tuple[int, int]] = []
        for a in self.sources():
            peers = sorted(adjacency[a])
            edge_list.extend(zip(repeat(a), peers[bisect_right(peers, a) :]))
        self.edges = tuple(edge_list)
        self._link_server(aggregator_links, augmented_links)

    def _link_server(self, links: Iterable[int], augmented: Iterable[int]) -> None:
        self.aggregator_links = frozenset(links)
        self.augmented_links = tuple(augmented)
        for s in self.aggregator_links:
            if not 1 <= s <= self.n_sources:
                raise ValueError(f"bad aggregator link to {s}")

    def sources(self) -> range:
        return range(1, self.n_sources + 1)

    def principals(self) -> frozenset[int]:
        return frozenset(self.sources()) | {SERVER}

    def neighbors(self, source_id: int) -> frozenset[int]:
        return self._adjacency[source_id]

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adjacency.get(a, frozenset())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.n_sources == other.n_sources
            and self.edges == other.edges
            and self.aggregator_links == other.aggregator_links
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Topology(n={self.n_sources}, edges={len(self.edges)}, "
            f"server_links={sorted(self.aggregator_links)})"
        )


def generate_topology(n: int, p: float, rng: random.Random) -> Topology:
    """Random topology: each source pair linked independently with probability
    ``p``; one server link is then added per source component that has none,
    so every source reaches the server and no source is fully isolated.

    It makes one ``rng.random()`` draw per pair ``a < b`` (O(n²) draws, in
    row order), then one ``rng.choice`` per component, components taken in
    order of their smallest member.  Everything around the draws is
    O(n + m) for m edges.  The draw order is part of the transcript
    contract: changing it changes every seeded transcript.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    draw = rng.random
    topology = Topology(
        n,
        [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if draw() < p],
        frozenset(),
    )
    seen = [False] * (n + 1)
    augmented = []
    for start in topology.sources():
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for node in component:
            for peer in topology.neighbors(node):
                if not seen[peer]:
                    seen[peer] = True
                    component.append(peer)
        augmented.append(rng.choice(sorted(component)))
    topology._link_server(augmented, augmented)
    return topology


@dataclass(frozen=True)
class TraceEvent:
    """One delivered message with the principals able to read it."""

    step: int
    round_no: int
    message: Message
    readable_by: frozenset[int]

    def line(self) -> str:
        msg = self.message
        key = msg.key_id if msg.key_id is not None else "PLAIN"
        return "\t".join(
            (
                str(self.step),
                node_label(msg.sender),
                node_label(msg.receiver),
                msg.kind.value,
                key,
                msg.payload_summary(),
            )
        )


@dataclass
class Transcript:
    """Ordered trace of one scenario run, replayable from its seed."""

    seed: int
    modulus: int
    events: list[TraceEvent] = field(default_factory=list)
    results: list[RoundResult] = field(default_factory=list)

    @property
    def result(self) -> RoundResult:
        return self.results[-1]

    def round_events(self, round_no: int) -> list[TraceEvent]:
        """Events of one round; ``events`` is in delivery order, so rounds
        appear in non-decreasing order and each round is one slice."""
        key = attrgetter("round_no")
        lo = bisect_left(self.events, round_no, key=key)
        hi = bisect_right(self.events, round_no, lo=lo, key=key)
        return self.events[lo:hi]

    def serialize(self) -> str:
        """Line log: step, sender, receiver, variant, key id or PLAIN, payload."""
        return "".join(e.line() + "\n" for e in self.events)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())


class Network:
    """Delivers messages, enforcing link existence and recording the trace."""

    def __init__(self, topology: Topology, directory: KeyDirectory) -> None:
        self.topology = topology
        self.directory = directory
        self.events: list[TraceEvent] = []
        self.round_no = 0
        self._step = 0
        self._all_principals = topology.principals()

    def begin_round(self) -> None:
        """Advance to the next round; the directory drops the last round's
        session keys."""
        self.round_no += 1
        self.directory.begin_round(self.round_no)

    def deliver(self, message: Message) -> TraceEvent:
        sender, receiver = message.sender, message.receiver
        if sender != SERVER and receiver != SERVER:
            if not self.topology.has_edge(sender, receiver):
                raise NoLinkError(
                    f"no link between {node_label(sender)} and {node_label(receiver)}"
                )
        if message.key_id is None:
            readable = self._all_principals
        else:
            readable = self.directory.holders(message.key_id)
        event = TraceEvent(
            step=self._step,
            round_no=self.round_no,
            message=message,
            readable_by=readable,
        )
        self._step += 1
        self.events.append(event)
        return event


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment needs; all randomness flows from ``seed``.

    ``force_initiator`` and ``force_initial_mask`` are harness controls for
    sweeps and exhaustive enumeration; they are not part of the config file
    schema.
    """

    n_sources: int
    modulus: int
    values: tuple[int, ...] | None = None
    value_range: tuple[int, int] | None = None
    total_keys: int = 100
    source_source_keys: int = 30
    edge_prob: float = 0.5
    seed: int = 0
    mode: str = "direct"
    adversary: str = "none"
    rounds: int = 1
    force_initiator: int | None = None
    force_initial_mask: int | None = None

    def validate(self) -> None:
        if self.n_sources < 1:
            raise ConfigError("n_sources", "must be >= 1")
        if self.modulus < 2:
            raise ConfigError("modulus", "must be >= 2")
        if (self.values is None) == (self.value_range is None):
            raise ConfigError("values", "exactly one of values/value range required")
        if self.values is not None:
            if len(self.values) != self.n_sources:
                raise ConfigError(
                    "values",
                    f"expected {self.n_sources} values, got {len(self.values)}",
                )
            for x in self.values:
                if not 0 <= x < self.modulus:
                    raise ConfigError("values", f"value {x} outside [0, modulus)")
            if sum(self.values) >= self.modulus:
                raise ConfigError("values", "sum of values must stay below modulus")
        if self.value_range is not None:
            lo, hi = self.value_range
            if not 0 <= lo <= hi:
                raise ConfigError("values", f"bad sampling range {lo}..{hi}")
            if self.n_sources * hi >= self.modulus:
                raise ConfigError(
                    "values", "sampling range allows sums reaching the modulus"
                )
        if self.source_source_keys <= 0 or self.source_source_keys >= self.total_keys:
            raise ConfigError("k", "need 0 < k < K")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ConfigError("p", "edge probability must be in [0, 1]")
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be one of {MODES}")
        kind = self.adversary.split(":", 1)[0]
        if kind not in ADVERSARY_KINDS:
            raise ConfigError("adversary", f"unknown adversary {self.adversary!r}")
        if self.rounds < 1:
            raise ConfigError("rounds", "must be >= 1")
        if self.force_initiator is not None and not (
            1 <= self.force_initiator <= self.n_sources
        ):
            raise ConfigError("force_initiator", "not a valid source id")
        if self.force_initial_mask is not None and not (
            0 <= self.force_initial_mask < self.modulus
        ):
            raise ConfigError("force_initial_mask", "must be in [0, modulus)")


def _subrng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def scenario_values(config: ScenarioConfig, round_no: int) -> tuple[int, ...]:
    """Private values in effect for a round: explicit, or sampled from seed."""
    if config.values is not None:
        return config.values
    lo, hi = config.value_range  # type: ignore[misc]
    rng = _subrng(config.seed, f"values:{round_no}")
    return tuple(rng.randint(lo, hi) for _ in range(config.n_sources))


def run_scenario(config: ScenarioConfig) -> Transcript:
    """Provision keys, build the topology, and run the configured rounds."""
    config.validate()
    bank_config = KeyBankConfig(config.total_keys, config.source_source_keys)
    bank = KeyBank.generate(bank_config, _subrng(config.seed, "bank"))
    directory = KeyDirectory(bank_config, bank)
    provision_rng = _subrng(config.seed, "provision")
    for sid in range(1, config.n_sources + 1):
        directory.provision_source(sid, provision_rng)
    topology = generate_topology(
        config.n_sources, config.edge_prob, _subrng(config.seed, "topology")
    )
    network = Network(topology, directory)
    probe = config.adversary in ("probe", "probe_ablation")
    defense = config.adversary != "probe_ablation"
    transcript = Transcript(seed=config.seed, modulus=config.modulus)
    for round_no in range(1, config.rounds + 1):
        runner = RoundRunner(
            network=network,
            values=scenario_values(config, round_no),
            modulus=config.modulus,
            mode=config.mode,
            rng=_subrng(config.seed, f"round:{round_no}"),
            keying_rng=_subrng(config.seed, f"keying:{round_no}"),
            malicious_probe=probe,
            defense_enabled=defense,
            force_initiator=config.force_initiator,
            force_initial_mask=config.force_initial_mask,
        )
        transcript.results.append(runner.run())
    transcript.events = network.events
    return transcript

