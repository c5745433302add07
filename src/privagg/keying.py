"""Random key pre-distribution with per-source permuted key banks.

Every source node is loaded with the same pool of K opaque keys before
deployment.  K-k of them are reserved for talking to the aggregation server,
the remaining k for source-to-source traffic.  Because the raw pool is shared
by everyone, naming a key by its pool position would let any bystander node
identify it.  The scheme therefore permutes the server-facing bank
independently for each source: the source announces a plaintext index into
*its own* ordering, the server looks the index up in the stored permutation,
and a bystander learns nothing actionable from the index alone.

Pairwise keys between two sources are built the same way, except that no
ordering is pre-shared: each endpoint draws a fresh permutation of the
source-to-source bank, the permutations are exchanged through the server
under the endpoints' server session keys, and a single announced index then
selects the key through the composition of both orderings.  A third source
holding the raw bank but neither permutation cannot resolve the index.

Confidentiality in the simulator is possession based: a message encrypted
under a session key is readable exactly by the principals in that key's
scope.  No real cipher is modelled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SERVER = 0  # distinguished principal id of the aggregator/server

KEY_BITS = 128


class KeyingError(Exception):
    """Base error for key management failures."""


class ConfigMismatchError(KeyingError):
    """Key bank does not match its declared configuration."""


class UnknownSourceError(KeyingError):
    """Source id was never provisioned."""


class IndexRangeError(KeyingError):
    """Announced key index is outside the bank it addresses."""


class PairEstablishmentError(KeyingError):
    """Pairwise key establishment could not be completed."""


@dataclass(frozen=True)
class KeyBankConfig:
    """Split of the K-key pool: K-k server keys, k source-to-source keys."""

    total_keys: int
    source_source_keys: int

    def __post_init__(self) -> None:
        if self.source_source_keys <= 0:
            raise ValueError("source_source_keys must be positive")
        if self.source_source_keys >= self.total_keys:
            raise ValueError("source_source_keys must be smaller than total_keys")

    @property
    def aggregator_keys(self) -> int:
        return self.total_keys - self.source_source_keys


@dataclass(frozen=True)
class KeyBank:
    """The deployed key pool in canonical order.

    Key values are opaque 128-bit identifiers; they carry no cryptographic
    structure because confidentiality is modelled by possession.
    """

    aggregator_keys: tuple[int, ...]
    source_keys: tuple[int, ...]

    def __post_init__(self) -> None:
        all_keys = self.aggregator_keys + self.source_keys
        if len(set(all_keys)) != len(all_keys):
            raise ValueError("key bank values must be distinct")

    @classmethod
    def generate(cls, config: KeyBankConfig, rng: random.Random) -> "KeyBank":
        values: list[int] = []
        seen: set[int] = set()
        while len(values) < config.total_keys:
            v = rng.getrandbits(KEY_BITS)
            if v not in seen:
                seen.add(v)
                values.append(v)
        return cls(
            aggregator_keys=tuple(values[: config.aggregator_keys]),
            source_keys=tuple(values[config.aggregator_keys:]),
        )

    def matches(self, config: KeyBankConfig) -> bool:
        return (
            len(self.aggregator_keys) == config.aggregator_keys
            and len(self.source_keys) == config.source_source_keys
        )


@dataclass(frozen=True)
class Permutation:
    """A bijection on bank slots.

    ``order[i]`` is the canonical position whose key sits at slot ``i`` of
    the permuted bank.  Announced indices are 1-based, matching the wire
    convention of "a random number between 1 and the bank size".
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order is not a bijection on the bank slots")

    @classmethod
    def random(cls, size: int, rng: random.Random) -> "Permutation":
        order = list(range(size))
        rng.shuffle(order)
        return cls(tuple(order))

    def __len__(self) -> int:
        return len(self.order)

    def slot(self, index: int) -> int:
        """Canonical position addressed by a 1-based announced index."""
        if not 1 <= index <= len(self.order):
            raise IndexRangeError(
                f"index {index} outside bank of size {len(self.order)}"
            )
        return self.order[index - 1]

    def apply(self, items: tuple[int, ...]) -> tuple[int, ...]:
        """Reorder a canonical bank into this permutation's ordering."""
        if len(items) != len(self.order):
            raise ValueError("bank size does not match permutation size")
        return tuple(items[i] for i in self.order)


@dataclass(frozen=True)
class SessionKey:
    """A key agreed for one aggregation round, scoped to its two endpoints."""

    value: int
    key_id: str
    scope: frozenset[int]


def pairwise_key_value(
    source_bank: tuple[int, ...],
    initiator_perm: Permutation,
    responder_perm: Permutation,
    index: int,
) -> int:
    """Key selected by an announced index through both endpoint orderings.

    Either endpoint can evaluate this once it has received the peer's
    permutation; both evaluations agree by construction.  The index goes
    through the responder's ordering, then the initiator's.
    """
    if len(initiator_perm) != len(responder_perm):
        raise ValueError("cannot compose permutations of different sizes")
    return source_bank[initiator_perm.order[responder_perm.slot(index)]]


@dataclass
class SourceKeyring:
    """Per-source key state: the permuted server bank plus the shared pool."""

    source_id: int
    aggregator_bank: tuple[int, ...]
    source_bank: tuple[int, ...]
    round_no: int = 0
    aggregator_session: SessionKey | None = None
    pair_sessions: dict[int, SessionKey] = field(default_factory=dict)

    def begin_round(self, round_no: int) -> None:
        """Drop all session keys; they are valid for one round only."""
        self.round_no = round_no
        self.aggregator_session = None
        self.pair_sessions = {}

    def aggregator_key_at(self, index: int) -> int:
        if not 1 <= index <= len(self.aggregator_bank):
            raise IndexRangeError(
                f"index {index} outside bank of size {len(self.aggregator_bank)}"
            )
        return self.aggregator_bank[index - 1]

    def select_aggregator_key(self, rng: random.Random) -> tuple[int, SessionKey]:
        """Draw a fresh announced index and the session key it selects."""
        index = rng.randint(1, len(self.aggregator_bank))
        key = SessionKey(
            value=self.aggregator_key_at(index),
            key_id=f"agg:c{self.source_id}:r{self.round_no}",
            scope=frozenset({self.source_id, SERVER}),
        )
        self.aggregator_session = key
        return index, key


@dataclass(frozen=True)
class PairwiseExchange:
    """Record of one pairwise establishment between two sources."""

    initiator: int
    responder: int
    initiator_perm: Permutation
    responder_perm: Permutation
    index: int
    key: SessionKey


class KeyDirectory:
    """Server-side key state: per-source permutations and active sessions.

    The directory also keeps the possession registry the simulated network
    consults to decide who can read an encrypted message.  That registry is
    simulator bookkeeping, not knowledge attributed to the server.
    """

    def __init__(self, config: KeyBankConfig, bank: KeyBank) -> None:
        if not bank.matches(config):
            raise ConfigMismatchError(
                "key bank sizes do not match the declared configuration"
            )
        self.config = config
        self.bank = bank
        self.round_no = 0
        self._permutations: dict[int, Permutation] = {}
        self._keyrings: dict[int, SourceKeyring] = {}
        self._holders: dict[str, frozenset[int]] = {}

    # -- provisioning ------------------------------------------------------

    def provision_source(self, source_id: int, rng: random.Random) -> SourceKeyring:
        """Install a source: permute its server bank and store the ordering.

        New sources can be provisioned at any time; each gets an independent
        uniformly random ordering of the server-facing bank.
        """
        if source_id in self._permutations:
            raise KeyingError(f"source {source_id} already provisioned")
        perm = Permutation.random(self.config.aggregator_keys, rng)
        keyring = SourceKeyring(
            source_id=source_id,
            aggregator_bank=perm.apply(self.bank.aggregator_keys),
            source_bank=self.bank.source_keys,
        )
        self._permutations[source_id] = perm
        self._keyrings[source_id] = keyring
        return keyring

    def keyring(self, source_id: int) -> SourceKeyring:
        try:
            return self._keyrings[source_id]
        except KeyError:
            raise UnknownSourceError(f"source {source_id} not provisioned") from None

    def aggregator_permutation(self, source_id: int) -> Permutation:
        try:
            return self._permutations[source_id]
        except KeyError:
            raise UnknownSourceError(f"source {source_id} not provisioned") from None

    # -- per-round session keys -------------------------------------------

    def begin_round(self, round_no: int) -> None:
        """Drop every session key of the previous round, so the possession
        registry holds one round's keys at most."""
        self.round_no = round_no
        self._holders.clear()
        for keyring in self._keyrings.values():
            keyring.begin_round(round_no)

    def resolve_aggregator_key(self, source_id: int, index: int) -> SessionKey:
        """Server side of index announcement: look the index up in the stored
        permutation and activate the session key it selects."""
        perm = self.aggregator_permutation(source_id)
        key = SessionKey(
            value=self.bank.aggregator_keys[perm.slot(index)],
            key_id=f"agg:c{source_id}:r{self.round_no}",
            scope=frozenset({source_id, SERVER}),
        )
        self._holders[key.key_id] = key.scope
        return key

    def establish_pairwise_key(
        self, a: int, b: int, rng: random.Random
    ) -> PairwiseExchange:
        """Agree a pairwise key between sources ``a`` and ``b``.

        Both endpoints draw a fresh ordering of the source-to-source bank,
        exchange the orderings through the server, and select the key by a
        single announced index through the composed ordering.  Requires both
        endpoints to hold a live server session key (the exchange is relayed,
        never direct).
        """
        ring_a = self.keyring(a)
        ring_b = self.keyring(b)
        if ring_a.aggregator_session is None or ring_b.aggregator_session is None:
            raise PairEstablishmentError(
                f"sources {a} and {b} must both hold a server session key"
            )
        perm_a = Permutation.random(self.config.source_source_keys, rng)
        perm_b = Permutation.random(self.config.source_source_keys, rng)
        index = rng.randint(1, self.config.source_source_keys)
        value = pairwise_key_value(self.bank.source_keys, perm_a, perm_b, index)
        lo, hi = sorted((a, b))
        key = SessionKey(
            value=value,
            key_id=f"pair:c{lo}:c{hi}:r{self.round_no}",
            scope=frozenset({a, b}),
        )
        ring_a.pair_sessions[b] = key
        ring_b.pair_sessions[a] = key
        self._holders[key.key_id] = key.scope
        return PairwiseExchange(
            initiator=a,
            responder=b,
            initiator_perm=perm_a,
            responder_perm=perm_b,
            index=index,
            key=key,
        )

    # -- possession registry ----------------------------------------------

    def holders(self, key_id: str) -> frozenset[int]:
        """Principals possessing the given session key."""
        try:
            return self._holders[key_id]
        except KeyError:
            raise KeyingError(f"unknown key id {key_id!r}") from None
