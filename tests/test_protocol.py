"""Round state machine: initiator choice, next-hop logic, relays, finalize."""

import random
from collections import Counter

import pytest
from helpers import build_round, complete_topology, path_topology

from privagg import ScenarioConfig, run_scenario
from privagg.keying import SERVER
from privagg.protocol import MessageKind, ProtocolError, RoundOutcome


def run_path_chain(values, modulus, seed=0, mode="direct", **kwargs):
    """Chain over the path 1-2-...-n with node 1 forced to initiate, so the
    visitation order is exactly 1, 2, ..., n."""
    topo = path_topology(len(values))
    runner, network = build_round(
        topo, values, modulus, mode=mode, seed=seed, force_initiator=1, **kwargs
    )
    result = runner.run()
    return result, network


def test_start_round_single_node_is_chosen():
    runner, _ = build_round(path_topology(1), (5,), 16)
    assert runner.run().initiator == 1


def test_start_round_replay_deterministic():
    choices = set()
    for _ in range(3):
        runner, _ = build_round(complete_topology(5), (1,) * 5, 64, seed=11)
        choices.add(runner.run().initiator)
    assert len(choices) == 1


def test_start_round_uniform_over_sources():
    # the probe round stops after the initiator joins, which keeps this fast
    counts = Counter()
    trials = 10_000
    for trial in range(trials):
        runner, _ = build_round(
            complete_topology(5), (1,) * 5, 64, seed=trial, malicious_probe=True
        )
        counts[runner.run().initiator] += 1
    for node in range(1, 6):
        assert abs(counts[node] / trials - 0.2) < 0.02


def test_initiator_begin_masks_and_reports():
    runner, network = build_round(
        path_topology(3), (3, 9, 14), 32, force_initiator=1, force_initial_mask=11
    )
    runner.run()
    first_report = next(
        e for e in network.events if e.kind is MessageKind.NEIGHBOR_REPORT
    )
    assert first_report.sender == 1
    assert first_report.payload == (2,)  # adjacency of node 1 on the path
    first_forward = next(
        e for e in network.events if e.kind is MessageKind.MASKED_FORWARD
    )
    assert first_forward.payload == 14  # (11 + 3) mod 32


def test_unknown_forced_initiator_rejected_at_construction():
    with pytest.raises(ProtocolError, match="forced initiator 5 unknown"):
        build_round(path_topology(2), (1, 2), 16, force_initiator=5)


def test_initial_mask_never_transmitted():
    result, network = run_path_chain((3, 9, 14), 32, force_initial_mask=11)
    assert result.outcome is RoundOutcome.SUM
    for event in network.events:
        payload = event.payload
        assert payload != 11 or event.kind is MessageKind.KEY_INDEX_ANNOUNCE


def test_server_select_next_uniform():
    runner, _ = build_round(complete_topology(3), (1, 1, 1), 16)
    runner.visitation = {1: None}
    counts = Counter()
    for seed in range(4000):
        runner.rng = random.Random(seed)
        counts[runner.server_select_next((2, 3))] += 1
    assert set(counts) == {2, 3}
    assert abs(counts[2] / 4000 - 0.5) < 0.03


def test_server_select_next_exhausted_and_no_repeats():
    runner, _ = build_round(complete_topology(3), (1, 1, 1), 16)
    runner.visitation = {2: None, 3: None}
    assert runner.server_select_next((2, 3)) is None
    runner.visitation = {2: None}
    for seed in range(50):
        runner.rng = random.Random(seed)
        assert runner.server_select_next((2, 3)) == 3


def test_forward_chain_values_on_path():
    result, network = run_path_chain((3, 9, 14), 32, force_initial_mask=11)
    forwards = [
        e.payload
        for e in network.events
        if e.kind is MessageKind.MASKED_FORWARD
    ]
    assert forwards == [14, 23]  # oracle: running sums of 11+3, +9
    finals = [
        e.payload
        for e in network.events
        if e.kind is MessageKind.FINAL_MASKED_VALUE
    ]
    assert finals == [5]  # (11 + 3 + 9 + 14) mod 32
    assert result.total == 26


def test_strict_relay_same_sum_no_source_to_source_traffic():
    direct, _ = run_path_chain((3, 9, 14), 32, seed=5)
    strict, network = run_path_chain((3, 9, 14), 32, seed=5, mode="strict-relay")
    assert direct.outcome is strict.outcome is RoundOutcome.SUM
    assert direct.total == strict.total == 26
    assert direct.visitation == strict.visitation
    for event in network.events:
        assert event.sender == 0 or event.receiver == 0, (
            f"source-to-source message {event.kind} in strict-relay mode"
        )
        assert event.kind is not MessageKind.MASKED_FORWARD


def test_strict_relay_equivalence_over_seeds():
    for seed in range(30):
        config = dict(n_sources=6, modulus=2**16, values=(3, 1, 4, 1, 5, 9))
        direct = run_scenario(ScenarioConfig(**config, seed=seed, mode="direct"))
        strict = run_scenario(ScenarioConfig(**config, seed=seed, mode="strict-relay"))
        assert direct.result.visitation == strict.result.visitation
        assert direct.result.total == strict.result.total


def test_every_forward_follows_its_pairwise_setup():
    # each direct forward is sent under its pair's key, and the relayed
    # establishment of that key (four PermuteExchange events, then the
    # plaintext index) comes earlier in the same round
    transcript = run_scenario(
        ScenarioConfig(
            n_sources=8,
            modulus=2**16,
            values=(1, 2, 3, 4, 5, 6, 7, 8),
            seed=4,
            edge_prob=0.5,
            rounds=3,
        )
    )
    events = transcript.events
    exchange = MessageKind.PERMUTE_EXCHANGE
    forwards = 0
    for i, event in enumerate(events):
        if event.kind is not MessageKind.MASKED_FORWARD:
            continue
        forwards += 1
        lo, hi = sorted((event.sender, event.receiver))
        assert event.key.key_id == f"pair:c{lo}:c{hi}:r{event.round_no}"
        announces = [
            j for j in range(i)
            if events[j].round_no == event.round_no
            and events[j].kind is MessageKind.KEY_INDEX_ANNOUNCE
            and {events[j].sender, events[j].receiver} == {lo, hi}
        ]
        assert len(announces) == 1
        j = announces[0]
        a, b = events[j].sender, events[j].receiver
        assert [
            (e.round_no, e.kind, e.sender, e.receiver)
            for e in events[j - 4 : j]
        ] == [
            (event.round_no, exchange, a, SERVER),
            (event.round_no, exchange, SERVER, b),
            (event.round_no, exchange, b, SERVER),
            (event.round_no, exchange, SERVER, a),
        ]
    assert forwards > 0


def test_relay_jump_completes_sparse_topology():
    # sources 1-2 adjacent; 3 reachable only through the server
    from privagg.simnet import Topology

    topo = Topology(3, ((1, 2),), frozenset({1, 3}))
    runner, network = build_round(
        topo, (3, 9, 14), 32, force_initiator=1, force_initial_mask=11
    )
    result = runner.run()
    assert result.outcome is RoundOutcome.SUM
    assert result.total == 26
    relays = [
        e for e in network.events
        if e.kind in (MessageKind.RELAY_UP, MessageKind.RELAY_DOWN)
    ]
    assert len(relays) == 2  # one jump: up from the last holder, down to 3
    for event in relays:
        assert event.key is not None  # never plaintext
    assert result.visitation == (1, 2, 3)


def test_relay_jump_choice_requires_candidates():
    runner, _ = build_round(complete_topology(2), (1, 2), 16)
    runner.visitation = {1: None, 2: None}
    with pytest.raises(ProtocolError):
        runner.server_relay_jump_choice()


def test_finalize_reports_sum():
    result, _ = run_path_chain((3, 9, 14), 32, force_initial_mask=11)
    assert result.outcome is RoundOutcome.SUM
    assert result.total == 26  # oracle: 3 + 9 + 14
    assert result.visitation == (1, 2, 3)


def test_single_node_round_refused():
    result, network = run_path_chain((5,), 16)
    assert result.outcome is RoundOutcome.REFUSED
    refusals = [
        e for e in network.events
        if e.kind is MessageKind.OPERATION_REFUSED
    ]
    assert len(refusals) == 1


def test_false_alarm_when_other_values_zero():
    result, _ = run_path_chain((7, 0, 0), 32)
    assert result.outcome is RoundOutcome.REFUSED


def test_refusal_fires_iff_total_equals_initiator_value():
    # sweep small value vectors; refusal must track sum == x_initiator exactly
    for values in [(1, 2, 3), (4, 0, 0), (0, 0, 0), (2, 2, 0), (6, 3, 3)]:
        result, _ = run_path_chain(values, 64, seed=3)
        should_refuse = sum(values) == values[0]  # node 1 always initiates here
        assert (result.outcome is RoundOutcome.REFUSED) == should_refuse
        if not should_refuse:
            assert result.total == sum(values)


def test_exactly_once_participation():
    for seed in range(40):
        transcript = run_scenario(
            ScenarioConfig(
                n_sources=7,
                modulus=2**16,
                values=(1, 2, 3, 4, 5, 6, 7),
                seed=seed,
                edge_prob=0.4,
            )
        )
        visitation = transcript.result.visitation
        assert sorted(visitation) == list(range(1, 8))


def test_participation_guard_rejects_double_entry(monkeypatch):
    runner, _ = build_round(path_topology(3), (1, 2, 3), 16, force_initiator=1)
    # on the path 1-2-3 the lowest reported neighbour of node 2 is node 1
    monkeypatch.setattr(runner, "server_select_next", lambda reported: reported[0])
    with pytest.raises(ProtocolError, match="c1 asked to participate twice"):
        runner.run()


def test_second_run_on_same_runner_rejected():
    runner, network = build_round(path_topology(3), (3, 9, 14), 32)
    assert runner.run().outcome is RoundOutcome.SUM
    sent, round_no = len(network.events), network.round_no
    with pytest.raises(ProtocolError, match="already run its round"):
        runner.run()
    # rejected before it opens a round or sends anything
    assert (len(network.events), network.round_no) == (sent, round_no)


def test_mode_validation():
    with pytest.raises(ValueError):
        build_round(path_topology(2), (1, 2), 16, mode="broadcast")


def test_one_value_per_source_required():
    with pytest.raises(ProtocolError, match="expected 3 values, got 2"):
        build_round(path_topology(3), (1, 2), 16)


def test_only_index_announcements_are_plaintext():
    # private values ride only inside masked payloads of encrypted messages
    for seed in range(10):
        transcript = run_scenario(
            ScenarioConfig(
                n_sources=5,
                modulus=2**12,
                values=(3, 14, 15, 92, 65),
                seed=seed,
                edge_prob=0.5,
            )
        )
        for event in transcript.events:
            if event.key is None:
                assert event.kind is MessageKind.KEY_INDEX_ANNOUNCE

