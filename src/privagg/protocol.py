"""Server-orchestrated ring secure-sum over a simulated sensor network.

One aggregation round proceeds as a sequential chain.  The server picks an
initiator uniformly at random; the initiator draws a secret mask, folds its
own value in, and reports its neighborhood.  The server then repeatedly picks
the next hop uniformly among the current holder's not-yet-participated
neighbors and the masked running total moves there, either over a direct
source-to-source link under a freshly established pairwise key, or (when the
neighborhood is exhausted, or always in strict-relay mode) up to the server
and back down to the chosen node under the endpoints' server session keys.
Once every source has contributed, the last holder hands the final masked
value to the server, which sends it to the initiator to unmask and report.

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
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .keying import SERVER, Permutation
from .masking import chain_add, mask_initial, unmask

if TYPE_CHECKING:  # pragma: no cover
    from .simnet import Network

REFUSAL_TEXT = "operation cannot be performed"

MODES = ("direct", "strict-relay")


class ProtocolError(Exception):
    """A protocol contract was violated."""


class MissingPairwiseKeyError(ProtocolError):
    """Direct forward attempted without an established pairwise key."""


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


# Kinds whose integer payload is a running masked value (or the final sum in
# the case of SumReport, which is derived from one).
MASKED_VALUE_KINDS = frozenset(
    {
        MessageKind.MASKED_FORWARD,
        MessageKind.RELAY_UP,
        MessageKind.RELAY_DOWN,
        MessageKind.FINAL_MASKED_VALUE,
        MessageKind.COMPUTE_SUM_DIRECTIVE,
    }
)


def node_label(node_id: int) -> str:
    return "server" if node_id == SERVER else f"c{node_id}"


@dataclass(frozen=True)
class Message:
    """One typed protocol message; ``key_id`` None means plaintext."""

    kind: MessageKind
    sender: int
    receiver: int
    payload: object = None
    key_id: str | None = None

    def payload_summary(self) -> str:
        kind = self.kind
        if kind in MASKED_VALUE_KINDS:
            return f"masked={self.payload}"
        if kind is MessageKind.KEY_INDEX_ANNOUNCE:
            return f"index={self.payload}"
        if kind is MessageKind.NEIGHBOR_REPORT:
            return "neighbors=" + "|".join(node_label(n) for n in self.payload)
        if kind is MessageKind.NEXT_HOP_DIRECTIVE:
            return f"next={node_label(self.payload)}"
        if kind is MessageKind.SUM_REPORT:
            return f"sum={self.payload}"
        if kind is MessageKind.PERMUTE_EXCHANGE:
            perm: Permutation = self.payload
            return f"perm(n={len(perm)})"
        if kind is MessageKind.OPERATION_REFUSED:
            return REFUSAL_TEXT
        return "-"


class RoundOutcome(Enum):
    SUM = "sum"
    REFUSED = "refused"


@dataclass(frozen=True)
class RoundResult:
    outcome: RoundOutcome
    total: int | None
    reason: str | None
    initiator: int
    visitation: tuple[int, ...]


class RoundRunner:
    """Drives one aggregation round as a deterministic sequential machine.

    The runner plays both the server's orchestration and the node handlers,
    and is the only owner of round state: who has joined, in what order,
    and the initiator's mask.  Sources and neighborhoods come from
    ``network.topology``, keys from ``network.directory``; ``values[sid - 1]``
    is source ``sid``'s private value.  Every message goes through
    ``network.deliver`` so the transcript captures the complete wire picture.
    """

    def __init__(
        self,
        network: "Network",
        values: tuple[int, ...],
        modulus: int,
        mode: str = "direct",
        rng: random.Random | None = None,
        keying_rng: random.Random | None = None,
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
        self.network = network
        self.directory = network.directory
        self.values = tuple(values)
        self.modulus = modulus
        self.mode = mode
        self.rng = rng if rng is not None else random.Random()
        self.keying_rng = keying_rng if keying_rng is not None else random.Random()
        self.malicious_probe = malicious_probe
        self.defense_enabled = defense_enabled
        self.force_initiator = force_initiator
        self.force_initial_mask = force_initial_mask
        self.participated: set[int] = set()
        self.visitation: list[int] = []
        self.initiator: int | None = None
        self.mask: int | None = None  # initiator only; never transmitted

    # -- session establishment ----------------------------------------------

    def establish_sessions(self) -> None:
        """Open the next round; each source announces a fresh plaintext index
        into its permuted server bank and both ends activate the session key
        it selects."""
        self.network.begin_round()
        for sid in self.sources:
            keyring = self.directory.keyring(sid)
            index, source_key = keyring.select_aggregator_key(self.keying_rng)
            self._send(MessageKind.KEY_INDEX_ANNOUNCE, sid, SERVER, index, None)
            server_key = self.directory.resolve_aggregator_key(sid, index)
            if server_key.value != source_key.value:
                raise ProtocolError("session key mismatch between endpoints")

    def _agg_key_id(self, sid: int) -> str:
        key = self.directory.keyring(sid).aggregator_session
        if key is None:
            raise ProtocolError(f"source {sid} has no server session key")
        return key.key_id

    def _send(
        self,
        kind: MessageKind,
        sender: int,
        receiver: int,
        payload: object = None,
        key_id: str | None = None,
    ) -> None:
        self.network.deliver(Message(kind, sender, receiver, payload, key_id))

    # -- round phases ---------------------------------------------------------

    def start_round(self) -> int:
        """Server picks the initiator uniformly and signals it."""
        if self.force_initiator is not None:
            if self.force_initiator not in self.sources:
                raise ProtocolError(f"forced initiator {self.force_initiator} unknown")
            initiator = self.force_initiator
        else:
            initiator = self.rng.choice(self.sources)
        self.initiator = initiator
        self._send(
            MessageKind.INITIATE_ROUND,
            SERVER,
            initiator,
            None,
            self._agg_key_id(initiator),
        )
        return initiator

    def _join_chain(self, node_id: int) -> tuple[int, ...]:
        """Record the node as the next contributor; it reports its neighborhood."""
        self.participated.add(node_id)
        self.visitation.append(node_id)
        report = tuple(sorted(self.network.topology.neighbors(node_id)))
        self._send(
            MessageKind.NEIGHBOR_REPORT,
            node_id,
            SERVER,
            report,
            self._agg_key_id(node_id),
        )
        return report

    def initiator_begin(self) -> tuple[int, tuple[int, ...]]:
        """Initiator masks its value and reports its neighborhood.

        The mask is drawn uniformly from [0, modulus), retained only at the
        initiator, and never transmitted.
        """
        if self.initiator is None:
            raise ProtocolError("start_round must run before initiator_begin")
        if self.force_initial_mask is not None:
            self.mask = self.force_initial_mask
        else:
            self.mask = self.rng.randrange(self.modulus)
        first = mask_initial(self.values[self.initiator - 1], self.mask, self.modulus)
        return first, self._join_chain(self.initiator)

    def server_select_next(self, reported: tuple[int, ...]) -> int | None:
        """Uniform choice among reported neighbors not yet participated.

        Returns None when the reported neighborhood is exhausted.
        """
        candidates = sorted(set(reported) - self.participated)
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def server_relay_jump_choice(self) -> int:
        """Uniform choice among all sources not yet participated."""
        candidates = [s for s in self.sources if s not in self.participated]
        if not candidates:
            raise ProtocolError("relay jump requested but every source participated")
        return self.rng.choice(candidates)

    def _ensure_pairwise(self, a: int, b: int) -> None:
        """Run the relayed pairwise establishment if the pair has no key yet.

        Each endpoint's ordering of the source-to-source bank travels through
        the server under that endpoint's server session key; the selecting
        index is announced in plaintext, useless without the orderings.
        """
        if b in self.directory.keyring(a).pair_sessions:
            return
        exchange = self.directory.establish_pairwise_key(a, b, self.keying_rng)
        key_a = self._agg_key_id(a)
        key_b = self._agg_key_id(b)
        self._send(MessageKind.PERMUTE_EXCHANGE, a, SERVER, exchange.initiator_perm, key_a)
        self._send(MessageKind.PERMUTE_EXCHANGE, SERVER, b, exchange.initiator_perm, key_b)
        self._send(MessageKind.PERMUTE_EXCHANGE, b, SERVER, exchange.responder_perm, key_b)
        self._send(MessageKind.PERMUTE_EXCHANGE, SERVER, a, exchange.responder_perm, key_a)
        self._send(MessageKind.KEY_INDEX_ANNOUNCE, a, b, exchange.index, None)

    def forward_masked(self, sender_id: int, receiver_id: int, value: int) -> None:
        """Pass the running masked value over a direct link.

        Requires an established pairwise key; the runner's main loop always
        establishes one first.
        """
        key = self.directory.keyring(sender_id).pair_sessions.get(receiver_id)
        if key is None:
            raise MissingPairwiseKeyError(
                f"no pairwise key between {node_label(sender_id)} and "
                f"{node_label(receiver_id)}"
            )
        self._send(
            MessageKind.MASKED_FORWARD, sender_id, receiver_id, value, key.key_id
        )

    def _relay_via_server(self, sender_id: int, receiver_id: int, value: int) -> None:
        self._send(
            MessageKind.RELAY_UP, sender_id, SERVER, value, self._agg_key_id(sender_id)
        )
        self._send(
            MessageKind.RELAY_DOWN,
            SERVER,
            receiver_id,
            value,
            self._agg_key_id(receiver_id),
        )

    def _receive_chain_value(
        self, node_id: int, value: int
    ) -> tuple[int, tuple[int, ...]]:
        """Node folds its own value in and reports its neighborhood."""
        if node_id in self.participated:
            raise ProtocolError(f"{node_label(node_id)} asked to participate twice")
        sent = chain_add(value, self.values[node_id - 1], self.modulus)
        return sent, self._join_chain(node_id)

    def finalize_round(self, last_id: int, value: int) -> RoundResult:
        """Collect the final masked value and have the initiator unmask it."""
        initiator = self.initiator
        if initiator is None:
            raise ProtocolError("start_round must run before finalize_round")
        if self.mask is None:
            raise ProtocolError("initiator_begin must run before finalize_round")
        self._send(
            MessageKind.NEXT_HOP_DIRECTIVE,
            SERVER,
            last_id,
            SERVER,
            self._agg_key_id(last_id),
        )
        self._send(
            MessageKind.FINAL_MASKED_VALUE,
            last_id,
            SERVER,
            value,
            self._agg_key_id(last_id),
        )
        initiator_key = self._agg_key_id(initiator)
        self._send(
            MessageKind.COMPUTE_SUM_DIRECTIVE, SERVER, initiator, value, initiator_key
        )
        total = unmask(value, self.mask, self.modulus)
        if self.defense_enabled and total == self.values[initiator - 1]:
            self._send(
                MessageKind.OPERATION_REFUSED, initiator, SERVER, None, initiator_key
            )
            outcome, total, reason = RoundOutcome.REFUSED, None, REFUSAL_TEXT
        else:
            self._send(MessageKind.SUM_REPORT, initiator, SERVER, total, initiator_key)
            outcome, reason = RoundOutcome.SUM, None
        return RoundResult(
            outcome=outcome,
            total=total,
            reason=reason,
            initiator=initiator,
            visitation=tuple(self.visitation),
        )

    def run(self) -> RoundResult:
        """Execute a complete round and return its result."""
        self.establish_sessions()
        holder = self.start_round()
        value, report = self.initiator_begin()
        if not self.malicious_probe:
            while len(self.participated) < len(self.sources):
                nxt = self.server_select_next(report)
                jump = nxt is None
                if jump:
                    nxt = self.server_relay_jump_choice()
                self._send(
                    MessageKind.NEXT_HOP_DIRECTIVE,
                    SERVER,
                    holder,
                    nxt,
                    self._agg_key_id(holder),
                )
                if jump or self.mode == "strict-relay":
                    self._relay_via_server(holder, nxt, value)
                else:
                    self._ensure_pairwise(holder, nxt)
                    self.forward_masked(holder, nxt, value)
                value, report = self._receive_chain_value(nxt, value)
                holder = nxt
        return self.finalize_round(holder, value)
