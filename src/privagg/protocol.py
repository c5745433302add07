"""Server-orchestrated ring secure-sum over a simulated sensor network.

``RoundRunner.run`` is one aggregation round, a single sequential chain.
The server picks an initiator uniformly at random; the initiator draws a
secret mask, folds its own value in, and reports its neighborhood.  The
server then repeatedly picks the next hop uniformly among the current
holder's not-yet-participated neighbors and the masked running total moves
there, either over a direct source-to-source link under a freshly
established pairwise key, or (when the neighborhood is exhausted, or always
in strict-relay mode) up to the server and back down to the chosen node
under the endpoints' server session keys.  Once every source has
contributed, the last holder hands the final masked value to the server,
which sends it to the initiator to unmask and report.

The initiator refuses to report whenever the unmasked total equals its own
private value: a server that terminates the chain immediately after
initiation would otherwise learn that value directly.  The refusal fires on
honest rounds too when every other contribution is zero (a false alarm).

Everything random in a round flows from two seeded generators: one for the
server's choices and the initiator's mask, one for key establishment.  The
split keeps the visitation order identical between direct and strict-relay
runs of the same seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import filterfalse
from typing import TYPE_CHECKING

from .keying import SERVER, SessionKey
from .masking import chain_add, mask_initial, unmask

if TYPE_CHECKING:  # pragma: no cover
    from .simnet import Network

MODES = ("direct", "strict-relay")


class ProtocolError(Exception):
    """A protocol contract was violated."""


class MessageKind(Enum):
    INITIATE_ROUND = "InitiateRound"
    KEY_INDEX_ANNOUNCE = "KeyIndexAnnounce"
    PERMUTE_EXCHANGE = "PermuteExchange"
    NEIGHBOR_REPORT = "NeighborReport"
    NEXT_HOP_DIRECTIVE = "NextHopDirective"
    MASKED_FORWARD = "MaskedForward"
    RELAY_UP = "RelayUp"
    RELAY_DOWN = "RelayDown"
    FINAL_MASKED_VALUE = "FinalMaskedValue"
    COMPUTE_SUM_DIRECTIVE = "ComputeSumDirective"
    SUM_REPORT = "SumReport"
    OPERATION_REFUSED = "OperationRefused"


# Chain hops that carry the running masked value into a node and out of it.
# Tuples, not sets: a tuple membership test compares by identity first and
# never calls Enum.__hash__, which runs in Python.
CHAIN_INBOUND = (MessageKind.MASKED_FORWARD, MessageKind.RELAY_DOWN)
CHAIN_OUTBOUND = (
    MessageKind.MASKED_FORWARD,
    MessageKind.RELAY_UP,
    MessageKind.FINAL_MASKED_VALUE,
)

# Kinds whose integer payload is a running masked value: the chain hops, and
# the final masked value the server hands the initiator to unmask.
MASKED_VALUE_KINDS = frozenset(
    CHAIN_INBOUND + CHAIN_OUTBOUND + (MessageKind.COMPUTE_SUM_DIRECTIVE,)
)


def node_label(node_id: int) -> str:
    return "server" if node_id == SERVER else f"c{node_id}"


class RoundOutcome(Enum):
    SUM = "sum"
    REFUSED = "refused"


@dataclass(frozen=True)
class RoundResult:
    outcome: RoundOutcome
    total: int | None
    initiator: int
    visitation: tuple[int, ...]


class RoundRunner:
    """Drives one aggregation round as a deterministic sequential machine.

    ``run`` is the round: the server picks the initiator, the initiator
    masks its value, the running value moves hop by hop and the initiator
    unmasks the sum.  The initiator, its mask, the holder and the running
    value are locals of ``run``.  The runner keeps the round's server
    session keys (``session_keys``, by source id) and who has joined and in
    what order, so a second ``run`` raises ``ProtocolError`` before it sends
    anything.  A pairwise key is agreed for the one hop that uses it.  The
    runner plays both the server's orchestration and the node handlers.
    Sources and neighborhoods come from ``network.topology``, provisioned
    key material from ``network.directory``; ``values[sid - 1]`` is source
    ``sid``'s private value.  Every message goes through
    ``network.deliver`` so the transcript captures the complete wire picture.
    """

    def __init__(
        self,
        network: "Network",
        values: tuple[int, ...],
        modulus: int,
        rng: random.Random,
        keying_rng: random.Random,
        mode: str = "direct",
        malicious_probe: bool = False,
        defense_enabled: bool = True,
        force_initiator: int | None = None,
        force_initial_mask: int | None = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.sources = network.topology.sources()
        if len(values) != len(self.sources):
            raise ProtocolError(
                f"expected {len(self.sources)} values, got {len(values)}"
            )
        if force_initiator is not None and force_initiator not in self.sources:
            raise ProtocolError(f"forced initiator {force_initiator} unknown")
        self.network = network
        self.directory = network.directory
        self.values = tuple(values)
        self.modulus = modulus
        self.mode = mode
        self.rng = rng
        self.keying_rng = keying_rng
        self.malicious_probe = malicious_probe
        self.defense_enabled = defense_enabled
        self.force_initiator = force_initiator
        self.force_initial_mask = force_initial_mask
        self.session_keys: dict[int, SessionKey] = {}
        self.visitation: dict[int, None] = {}  # joiners, in joining order

    # -- session establishment ----------------------------------------------

    def establish_sessions(self) -> None:
        """Open the next round; each source announces a fresh plaintext index
        into its permuted server bank, and the session key it selects, which
        the server finds through its stored permutation, goes into
        ``session_keys``."""
        self.network.begin_round()
        round_no = self.network.round_no
        for sid in self.sources:
            keyring = self.directory.keyring(sid)
            index, source_key = keyring.select_aggregator_key(
                round_no, self.keying_rng
            )
            self.network.deliver(MessageKind.KEY_INDEX_ANNOUNCE, sid, SERVER, index)
            if self.directory.resolve_aggregator_key(sid, index) != source_key.value:
                raise ProtocolError("session key mismatch between endpoints")
            self.session_keys[sid] = source_key

    def _pairwise_key(self, a: int, b: int) -> SessionKey:
        """Agree a session key for the hop from ``a`` to ``b``.

        A chain visits each node once, so no pair is keyed twice in a round.
        Each endpoint's ordering of the source-to-source bank travels through
        the server under that endpoint's server session key; the selecting
        index is announced in plaintext, useless without the orderings.
        """
        exchange = self.directory.establish_pairwise_key(
            a, b, self.network.round_no, self.keying_rng
        )
        key_a = self.session_keys[a]
        key_b = self.session_keys[b]
        deliver = self.network.deliver
        deliver(MessageKind.PERMUTE_EXCHANGE, a, SERVER, exchange.initiator_perm, key_a)
        deliver(MessageKind.PERMUTE_EXCHANGE, SERVER, b, exchange.initiator_perm, key_b)
        deliver(MessageKind.PERMUTE_EXCHANGE, b, SERVER, exchange.responder_perm, key_b)
        deliver(MessageKind.PERMUTE_EXCHANGE, SERVER, a, exchange.responder_perm, key_a)
        deliver(MessageKind.KEY_INDEX_ANNOUNCE, a, b, exchange.index)
        return exchange.key

    # -- round steps ----------------------------------------------------------

    def _join_chain(self, node_id: int) -> tuple[int, ...]:
        """Record the node as the next contributor; it reports its neighborhood."""
        if node_id in self.visitation:
            raise ProtocolError(f"{node_label(node_id)} asked to participate twice")
        self.visitation[node_id] = None
        report = self.network.topology.sorted_neighbors(node_id)
        self.network.deliver(
            MessageKind.NEIGHBOR_REPORT,
            node_id,
            SERVER,
            report,
            self.session_keys[node_id],
        )
        return report

    def server_select_next(self, reported: tuple[int, ...]) -> int | None:
        """Uniform choice among reported neighbors not yet participated.

        ``reported`` is the sorted report that ``_join_chain`` sends, so the
        filtered list is already in ascending order.  Returns None when the
        reported neighborhood is exhausted.
        """
        candidates = list(filterfalse(self.visitation.__contains__, reported))
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def server_relay_jump_choice(self, remaining: list[int]) -> int:
        """Uniform choice among ``remaining``, the sources not yet
        participated in ascending order, which ``run`` keeps."""
        if not remaining:
            raise ProtocolError("relay jump requested but every source participated")
        return self.rng.choice(remaining)

    def finalize_round(
        self, initiator: int, mask: int, last_id: int, value: int
    ) -> RoundResult:
        """Collect the final masked value and have the initiator unmask it."""
        deliver = self.network.deliver
        last_key = self.session_keys[last_id]
        deliver(MessageKind.NEXT_HOP_DIRECTIVE, SERVER, last_id, SERVER, last_key)
        deliver(MessageKind.FINAL_MASKED_VALUE, last_id, SERVER, value, last_key)
        initiator_key = self.session_keys[initiator]
        deliver(
            MessageKind.COMPUTE_SUM_DIRECTIVE, SERVER, initiator, value, initiator_key
        )
        total = unmask(value, mask, self.modulus)
        if self.defense_enabled and total == self.values[initiator - 1]:
            deliver(
                MessageKind.OPERATION_REFUSED, initiator, SERVER, None, initiator_key
            )
            outcome, total = RoundOutcome.REFUSED, None
        else:
            deliver(MessageKind.SUM_REPORT, initiator, SERVER, total, initiator_key)
            outcome = RoundOutcome.SUM
        return RoundResult(
            outcome=outcome,
            total=total,
            initiator=initiator,
            visitation=tuple(self.visitation),
        )

    def run(self) -> RoundResult:
        """Execute the whole round and return its result."""
        if self.visitation:
            raise ProtocolError("this runner has already run its round")
        self.establish_sessions()
        deliver = self.network.deliver
        keys = self.session_keys
        if self.force_initiator is not None:
            initiator = self.force_initiator
        else:
            initiator = self.rng.choice(self.sources)
        deliver(MessageKind.INITIATE_ROUND, SERVER, initiator, None, keys[initiator])
        # The mask is drawn uniformly from [0, modulus), held only by the
        # initiator, and never transmitted.
        if self.force_initial_mask is not None:
            mask = self.force_initial_mask
        else:
            mask = self.rng.randrange(self.modulus)
        value = mask_initial(self.values[initiator - 1], mask, self.modulus)
        report = self._join_chain(initiator)
        holder = initiator
        if not self.malicious_probe:
            remaining = list(self.sources)  # not yet joined, ascending
            del remaining[bisect_left(remaining, initiator)]
            while remaining:
                nxt = self.server_select_next(report)
                jump = nxt is None
                if jump:
                    nxt = self.server_relay_jump_choice(remaining)
                holder_key = keys[holder]
                deliver(MessageKind.NEXT_HOP_DIRECTIVE, SERVER, holder, nxt, holder_key)
                if jump or self.mode == "strict-relay":
                    deliver(MessageKind.RELAY_UP, holder, SERVER, value, holder_key)
                    deliver(MessageKind.RELAY_DOWN, SERVER, nxt, value, keys[nxt])
                else:
                    key = self._pairwise_key(holder, nxt)
                    deliver(MessageKind.MASKED_FORWARD, holder, nxt, value, key)
                value = chain_add(value, self.values[nxt - 1], self.modulus)
                report = self._join_chain(nxt)
                del remaining[bisect_left(remaining, nxt)]
                holder = nxt
        return self.finalize_round(initiator, mask, holder, value)
