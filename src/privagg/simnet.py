"""Deterministic simulated network: topology, delivery, transcript, log format.

The network is a set of source nodes with an undirected peer graph plus a
distinguished aggregation server.  Source-to-source messages need a direct
edge; traffic between a source and the server is always deliverable because
topology generation guarantees every source at least an indirect path to the
server (control traffic is logically routed, and its confidentiality never
depends on the route: encrypted payloads are readable by key holders only).

Every delivery appends one immutable ``TraceEvent``, the only record of the
message: its kind, endpoints and payload, the key it was encrypted under
(None for plaintext), and the exact set of principals able to read it: the
scope of that key, or every principal for plaintext.  A transcript is a pure
function of the scenario configuration and seed: replaying the same seed
reproduces it byte for byte.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import compress, repeat, starmap
from operator import attrgetter
from typing import NamedTuple

from .keying import SERVER, KeyBank, KeyBankConfig, KeyDirectory, SessionKey
from .protocol import (
    MASKED_VALUE_KINDS,
    MODES,
    MessageKind,
    RoundResult,
    RoundRunner,
    node_label,
)

PROBE_KINDS = ("probe", "probe_ablation")
ADVERSARY_KINDS = ("none", *PROBE_KINDS, "collusion", "link")

REFUSAL_TEXT = "operation cannot be performed"


class NoLinkError(Exception):
    """Message addressed between sources that share no edge."""


class ConfigError(Exception):
    """Scenario configuration failed validation."""

    def __init__(self, fieldname: str, message: str) -> None:
        super().__init__(f"field {fieldname!r}: {message}")
        self.fieldname = fieldname


def parse_number(key: str, raw: str, kind: type = int):
    """``raw`` as an int (or ``kind``), or a ``ConfigError`` naming ``key``."""
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(key, f"expected {noun}, got {raw!r}") from None


def parse_adversary(spec: str) -> tuple[str, int | float | None]:
    """Split an adversary spec into its kind and its parameter.

    ``none``, ``probe`` and ``probe_ablation`` take no parameter,
    ``collusion[:ID]`` an optional target id and ``link:B`` a required
    break probability in [0, 1].
    """
    kind, colon, raw = spec.partition(":")
    if kind not in ADVERSARY_KINDS:
        raise ConfigError("adversary", f"unknown adversary {spec!r}")
    if kind == "link":
        if not colon:
            raise ConfigError("adversary", "link model needs a probability: link:B")
        b = parse_number("adversary", raw, float)
        if not 0.0 <= b <= 1.0:  # also rejects NaN
            raise ConfigError("adversary", f"link probability {raw!r} not in [0, 1]")
        return kind, b
    if not colon:
        return kind, None
    if kind == "collusion":
        return kind, parse_number("adversary", raw)
    raise ConfigError("adversary", f"{kind} takes no parameter, got {spec!r}")


class Topology:
    """Undirected source graph plus the direct server links.

    The graph is held once, as one sorted tuple of neighbours per source
    (``_peers[sid]``), read through ``sorted_neighbors`` and ``has_edge``.
    ``edges`` is derived from it in O(n + m) on each access.
    ``server_links`` holds each linked source once, in the order given:
    for a generated topology, component order, which the goldens hash.
    Every source must have a path to the server; the constructor names the
    first that has none.
    """

    def __init__(
        self,
        n_sources: int,
        edges: Iterable[tuple[int, int]],
        server_links: Iterable[int],
    ) -> None:
        if n_sources < 1:
            raise ValueError("topology needs at least one source")
        adjacency: list[set[int]] = [set() for _ in range(n_sources + 1)]
        for a, b in edges:
            if a == b or not (1 <= a <= n_sources and 1 <= b <= n_sources):
                raise ValueError(f"bad edge ({a}, {b})")
            adjacency[a].add(b)
            adjacency[b].add(a)
        self._install(
            n_sources,
            {sid: tuple(sorted(adjacency[sid])) for sid in range(1, n_sources + 1)},
            server_links,
        )
        # search from the server's links for a source with no path to them
        reached = set(self.server_links)
        frontier = list(reached)
        while frontier:
            fresh = adjacency[frontier.pop()] - reached
            reached |= fresh
            frontier += fresh
        if len(reached) < n_sources:
            stranded = next(s for s in self.sources() if s not in reached)
            raise ValueError(f"source {stranded} cannot reach the server")

    def _install(
        self,
        n_sources: int,
        peers: dict[int, tuple[int, ...]],
        links: Iterable[int],
    ) -> None:
        """Store the sorted adjacency and link the server; the one place the
        layout is set, for the constructor and for ``generate_topology``."""
        self.n_sources = n_sources
        self._peers = peers
        self.server_links = tuple(links)
        for s in self.server_links:
            if not 1 <= s <= n_sources:
                raise ValueError(f"bad aggregator link to {s}")
        if len(set(self.server_links)) < len(self.server_links):
            raise ValueError(f"bad aggregator links {self.server_links}: one repeats")

    def sources(self) -> range:
        return range(1, self.n_sources + 1)

    def principals(self) -> frozenset[int]:
        return frozenset(self.sources()) | {SERVER}

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as ``(a, b)`` with ``a < b``, in ascending order."""
        return tuple(
            (a, b)
            for a, peers in self._peers.items()
            for b in peers[bisect_right(peers, a) :]
        )

    def sorted_neighbors(self, source_id: int) -> tuple[int, ...]:
        """The source's neighbours in ascending order."""
        return self._peers[source_id]

    def has_edge(self, a: int, b: int) -> bool:
        peers = self._peers.get(a, ())
        i = bisect_left(peers, b)
        return i < len(peers) and peers[i] == b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.n_sources == other.n_sources
            and self._peers == other._peers
            and set(self.server_links) == set(other.server_links)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Topology(n={self.n_sources}, edges={len(self.edges)}, "
            f"server_links={self.server_links})"
        )


def generate_topology(n: int, p: float, rng: random.Random) -> Topology:
    """Random topology: each source pair linked independently with probability
    ``p``; one server link is then added per source component that has none,
    so every source reaches the server and no source is fully isolated.

    It makes one ``rng.random()`` draw per pair ``a < b`` (O(n²) draws, in
    row order), then one ``rng.choice`` per component, components taken in
    order of their smallest member.  The draw order is part of the transcript
    contract: changing it changes every seeded transcript.

    The draws and their comparison with ``p`` run at C level, one row at a
    time, with the same draws in the same order as a per-pair loop, so the
    contract is unchanged.  Row ``a`` yields ``a``'s sorted upper
    neighbours and ``a`` joins the lower list of each, so ``lower + upper``
    is already ``a``'s sorted adjacency.  Everything around the draws is
    O(n + m) for m edges.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    # float(): int.__gt__(float) is NotImplemented, which is truthy.
    linked = float(p).__gt__
    draw = rng.random
    ids = list(range(n + 1))  # one int object per id, shared by every row
    lower: list[list[int]] = [[] for _ in ids]
    peers: dict[int, tuple[int, ...]] = {}
    for a in range(1, n + 1):
        upper = list(
            compress(ids[a + 1 :], map(linked, starmap(draw, repeat((), n - a))))
        )
        for b in upper:
            lower[b].append(a)
        row = lower[a]
        row += upper
        peers[a] = tuple(row)
        row.clear()  # no later row appends to it; halves the peak memory
    seen = [False] * (n + 1)
    links = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for node in component:
            for peer in peers[node]:
                if not seen[peer]:
                    seen[peer] = True
                    component.append(peer)
        links.append(rng.choice(sorted(component)))
    topology = Topology.__new__(Topology)
    topology._install(n, peers, links)
    return topology


class _NodeLabels(dict):
    """``node_label`` by node id, each label formatted on first lookup.

    One rendering pass builds one table and drops it when it is done, so
    no label outlives the pass.
    """

    def __missing__(self, node_id: int) -> str:
        label = self[node_id] = node_label(node_id)
        return label


def _masked(payload: int, labels: _NodeLabels) -> str:
    return f"masked={payload}"


# How each kind's payload is logged, keyed by the kind's wire name.
_PAYLOAD_FORMATS = {
    **{kind.value: _masked for kind in MASKED_VALUE_KINDS},
    MessageKind.INITIATE_ROUND.value: lambda payload, labels: "-",
    MessageKind.KEY_INDEX_ANNOUNCE.value: lambda payload, labels: f"index={payload}",
    MessageKind.PERMUTE_EXCHANGE.value: (
        lambda perm, labels: f"perm(n={len(perm.order)})"
    ),
    MessageKind.NEIGHBOR_REPORT.value: (
        lambda peers, labels: "neighbors=" + "|".join(map(labels.__getitem__, peers))
    ),
    MessageKind.NEXT_HOP_DIRECTIVE.value: lambda node, labels: "next=" + labels[node],
    MessageKind.SUM_REPORT.value: lambda payload, labels: f"sum={payload}",
    MessageKind.OPERATION_REFUSED.value: lambda payload, labels: REFUSAL_TEXT,
}


class TraceEvent(NamedTuple):
    """One delivered message with the principals able to read it.

    The one record a delivery makes: step, round, kind, sender, receiver,
    payload, the ``key`` it was sent under (None for plaintext) and
    ``readable_by``, which is that key's own ``scope`` or, for plaintext,
    the network's one set of every principal, shared and never copied.
    Read fields by name: unpacking a tuple subclass is slower than
    attribute reads on CPython 3.11.
    """

    step: int
    round_no: int
    kind: MessageKind
    sender: int
    receiver: int
    payload: object
    key: SessionKey | None
    readable_by: frozenset[int]

    @property
    def message(self) -> TraceEvent:
        """The record itself.  Its one reader is perfbench's correctness
        gate (``perfbench/workloads.py``, ``check``), which reads
        ``e.message.kind``, ``.sender`` and ``.receiver``; library code
        reads the fields directly."""
        return self

    def line(self, labels: _NodeLabels | None = None) -> str:
        """Step, sender, receiver, variant, key id or PLAIN, payload;
        ``labels`` lets a caller rendering many events share one table."""
        if labels is None:
            labels = _NodeLabels()
        key = self.key
        # _value_ is the wire name: a plain attribute, where .value is a
        # property and a dict keyed by the member would call Enum.__hash__.
        kind = self.kind._value_
        return (
            f"{self.step}\t{labels[self.sender]}\t{labels[self.receiver]}\t{kind}\t"
            f"{'PLAIN' if key is None else key.key_id}\t"
            f"{_PAYLOAD_FORMATS[kind](self.payload, labels)}"
        )


@dataclass(frozen=True)
class Transcript:
    """Ordered trace of one scenario run, replayable from its seed.

    ``run_scenario`` builds it once, when the run ends, and it never
    changes, so the per-round chain indexes the attacks cache in
    ``_chain_indexes`` (round number to index, built on the first attack)
    stay valid.  A copy made with ``dataclasses.replace`` starts with no
    cached index.
    """

    seed: int
    modulus: int
    events: tuple[TraceEvent, ...]
    results: tuple[RoundResult, ...]
    _chain_indexes: dict[int, object] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def result(self) -> RoundResult:
        return self.results[-1]

    def round_events(self, round_no: int) -> list[TraceEvent]:
        """Events of one round; ``events`` is in delivery order, so rounds
        appear in non-decreasing order and each round is one slice."""
        key = attrgetter("round_no")
        lo = bisect_left(self.events, round_no, key=key)
        hi = bisect_right(self.events, round_no, lo=lo, key=key)
        return list(self.events[lo:hi])

    def serialize(self) -> str:
        """Line log: step, sender, receiver, variant, key id or PLAIN, payload.

        Node labels, for senders, receivers and neighbour reports alike,
        come from one table built for this call and dropped after it."""
        labels = _NodeLabels()
        return "".join([e.line(labels) + "\n" for e in self.events])


class Network:
    """Delivers messages, enforcing link existence and recording the trace."""

    def __init__(self, topology: Topology, directory: KeyDirectory) -> None:
        self.topology = topology
        self.directory = directory
        self.events: list[TraceEvent] = []
        self.round_no = 0
        self._all_principals = topology.principals()

    def begin_round(self) -> None:
        """Advance to the next round; later events carry its number."""
        self.round_no += 1

    def deliver(
        self,
        kind: MessageKind,
        sender: int,
        receiver: int,
        payload: object = None,
        key: SessionKey | None = None,
    ) -> TraceEvent:
        """Send a message under ``key``, readable by the key's scope, or in
        plaintext, readable by every principal, when ``key`` is None."""
        if sender != SERVER and receiver != SERVER:
            if not self.topology.has_edge(sender, receiver):
                raise NoLinkError(
                    f"no link between {node_label(sender)} and {node_label(receiver)}"
                )
        event = TraceEvent(
            len(self.events),
            self.round_no,
            kind,
            sender,
            receiver,
            payload,
            key,
            self._all_principals if key is None else key.scope,
        )
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
        kind, target = parse_adversary(self.adversary)
        if kind == "collusion" and target is not None and not (
            1 <= target <= self.n_sources
        ):
            raise ConfigError("adversary", f"collusion target {target} not a source id")
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
    directory = KeyDirectory(bank)
    provision_rng = _subrng(config.seed, "provision")
    for sid in range(1, config.n_sources + 1):
        directory.provision_source(sid, provision_rng)
    topology = generate_topology(
        config.n_sources, config.edge_prob, _subrng(config.seed, "topology")
    )
    network = Network(topology, directory)
    probe = config.adversary in PROBE_KINDS
    defense = config.adversary != "probe_ablation"
    results = []
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
        results.append(runner.run())
    return Transcript(
        config.seed, config.modulus, tuple(network.events), tuple(results)
    )

