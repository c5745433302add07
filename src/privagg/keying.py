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

Keyrings and the directory hold only what provisioning installs.  Session
keys last one round: the functions that agree them return them and keep
nothing, and the round that asked for them holds them.

Every ordering is a Fisher-Yates shuffle that makes the same
``getrandbits`` calls, in the same order, as ``random.Random.shuffle``, and
every announced index the same calls as ``random.Random.randint``.  Those
draws are part of the transcript contract: changing them changes every
seeded transcript.

Confidentiality in the simulator is possession based: a message encrypted
under a session key is readable exactly by the principals in that key's
scope.  No real cipher is modelled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

SERVER = 0  # distinguished principal id of the aggregator/server

KEY_BITS = 128


def _randbelow(n: int, rng: random.Random) -> int:
    """``rng._randbelow(n)``: a draw of ``n.bit_length()`` bits, redrawn
    while it is not below ``n``."""
    if n <= 0:  # getrandbits(0) is always 0, so the loop would never end
        raise ValueError("cannot draw from an empty range")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@lru_cache(maxsize=8)
def _shuffle_steps(size: int) -> tuple[tuple[int, int], ...]:
    """``(i, bits)`` for each swap of a shuffle of ``size`` slots, top down:
    slot ``i`` swaps with a draw below ``i + 1``, which takes ``bits`` bits."""
    return tuple((i, (i + 1).bit_length()) for i in range(size - 1, 0, -1))


def _shuffled_range(size: int, rng: random.Random) -> list[int]:
    """``range(size)`` shuffled by exactly the ``getrandbits`` calls that
    ``rng.shuffle`` makes on it (``_randbelow`` inlined per swap)."""
    order = list(range(size))
    getrandbits = rng.getrandbits
    for i, k in _shuffle_steps(size):
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order


class KeyingError(Exception):
    """Base error for key management failures."""


class UnknownSourceError(KeyingError):
    """Source id was never provisioned."""


class IndexRangeError(KeyingError):
    """Announced key index is outside the bank it addresses."""


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
        """A uniformly random ordering, drawn as ``rng.shuffle`` would draw
        it; the draws are part of the transcript contract.

        A shuffle of ``range(size)`` is a bijection by construction, so the
        ordering skips the check the public constructor makes.
        """
        perm = object.__new__(cls)
        object.__setattr__(perm, "order", tuple(_shuffled_range(size, rng)))
        return perm

    def __len__(self) -> int:
        return len(self.order)

    def slot(self, index: int) -> int:
        """Canonical position addressed by a 1-based announced index."""
        if not 1 <= index <= len(self.order):
            raise IndexRangeError(
                f"index {index} outside bank of size {len(self.order)}"
            )
        return self.order[index - 1]


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True)
class SourceKeyring:
    """What provisioning gives a source: its permuted server bank and the
    shared source-to-source pool.  Session keys belong to the round."""

    source_id: int
    aggregator_bank: tuple[int, ...]
    source_bank: tuple[int, ...]

    def select_aggregator_key(
        self, round_no: int, rng: random.Random
    ) -> tuple[int, SessionKey]:
        """Draw a fresh announced index and the round's session key it selects."""
        index = 1 + _randbelow(len(self.aggregator_bank), rng)  # rng.randint
        key = SessionKey(
            self.aggregator_bank[index - 1],
            f"agg:c{self.source_id}:r{round_no}",
            frozenset((self.source_id, SERVER)),
        )
        return index, key


@dataclass(frozen=True)
class PairwiseExchange:
    """Record of one pairwise establishment between two sources."""

    initiator_perm: Permutation
    responder_perm: Permutation
    index: int
    key: SessionKey


class KeyDirectory:
    """Server-side provisioning state: each source's keyring and the
    permutation of its server bank.

    Session keys are not kept here: the round that agrees them holds them.
    Each ``SessionKey`` carries its scope, and the network reads who can
    read a message from the key it is sent under.
    """

    def __init__(self, bank: KeyBank) -> None:
        self.bank = bank
        self._permutations: dict[int, Permutation] = {}
        self._keyrings: dict[int, SourceKeyring] = {}

    # -- provisioning ------------------------------------------------------

    def provision_source(self, source_id: int, rng: random.Random) -> SourceKeyring:
        """Install a source: permute its server bank and store the ordering.

        New sources can be provisioned at any time; each gets an independent
        uniformly random ordering of the server-facing bank.
        """
        if source_id in self._permutations:
            raise KeyingError(f"source {source_id} already provisioned")
        bank = self.bank.aggregator_keys
        perm = Permutation.random(len(bank), rng)
        keyring = SourceKeyring(
            source_id=source_id,
            aggregator_bank=tuple(bank[i] for i in perm.order),
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

    def resolve_aggregator_key(self, source_id: int, index: int) -> int:
        """Server side of index announcement: the key value the index selects
        through the source's stored permutation."""
        perm = self.aggregator_permutation(source_id)
        return self.bank.aggregator_keys[perm.slot(index)]

    def establish_pairwise_key(
        self, a: int, b: int, round_no: int, rng: random.Random
    ) -> PairwiseExchange:
        """Agree a pairwise key between sources ``a`` and ``b`` for a round.

        Both endpoints draw a fresh ordering of the source-to-source bank,
        exchange the orderings through the server, and select the key by a
        single announced index through the composed ordering.  The exchange
        is relayed under the endpoints' server session keys, which the
        caller holds.
        """
        self.keyring(a), self.keyring(b)  # UnknownSourceError if unprovisioned
        size = len(self.bank.source_keys)
        perm_a = Permutation.random(size, rng)
        perm_b = Permutation.random(size, rng)
        index = 1 + _randbelow(size, rng)  # rng.randint(1, size)
        value = pairwise_key_value(self.bank.source_keys, perm_a, perm_b, index)
        lo, hi = (a, b) if a < b else (b, a)
        key = SessionKey(value, f"pair:c{lo}:c{hi}:r{round_no}", frozenset((a, b)))
        return PairwiseExchange(perm_a, perm_b, index, key)
