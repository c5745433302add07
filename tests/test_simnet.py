"""Topology generation, delivery semantics, transcripts, scenario runs."""

import random
from collections import Counter

import pytest
from helpers import build_round, check_invariants, complete_topology, path_topology

from privagg import (
    ConfigError,
    Message,
    MessageKind,
    Network,
    NoLinkError,
    RoundOutcome,
    ScenarioConfig,
    Topology,
    generate_topology,
    run_scenario,
)
from privagg.keying import SERVER
from privagg.protocol import MODES


def test_full_density_gives_complete_graph():
    topo = generate_topology(5, 1.0, random.Random(0))
    assert len(topo.edges) == 10
    for s in topo.sources():
        assert len(topo.neighbors(s)) == 4
    assert len(topo.aggregator_links) == 1  # one link for the single component


def test_zero_density_attaches_every_source_to_server():
    topo = generate_topology(4, 0.0, random.Random(0))
    assert topo.edges == ()
    assert topo.aggregator_links == frozenset({1, 2, 3, 4})
    assert len(topo.augmented_links) == 4


def test_topology_generation_deterministic():
    t1 = generate_topology(8, 0.3, random.Random(42))
    t2 = generate_topology(8, 0.3, random.Random(42))
    assert t1 == t2
    t3 = generate_topology(8, 0.3, random.Random(43))
    assert t1 != t3  # this particular seed pair differs; frozen check


def test_topology_invariants_over_many_seeds():
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        p = rng.random()
        topo = generate_topology(n, p, rng)
        check_invariants(topo)
        assert topo.aggregator_links  # server linked to at least one source


def test_invalid_topology_arguments():
    with pytest.raises(ValueError):
        generate_topology(0, 0.5, random.Random(0))
    with pytest.raises(ValueError):
        generate_topology(3, 1.5, random.Random(0))
    with pytest.raises(ValueError):
        Topology(2, ((1, 3),), frozenset({1}))


def test_plaintext_delivery_readable_by_everyone():
    runner, network = build_round(path_topology(3), (1, 2, 3), 16)
    runner.establish_sessions()
    announce = network.events[0]
    assert announce.message.kind is MessageKind.KEY_INDEX_ANNOUNCE
    assert announce.readable_by == frozenset({SERVER, 1, 2, 3})


def test_pairwise_delivery_readable_by_endpoints_only():
    runner, network = build_round(
        path_topology(3), (3, 9, 14), 32, force_initiator=1
    )
    runner.run()
    forwards = [
        e for e in network.events if e.message.kind is MessageKind.MASKED_FORWARD
    ]
    assert forwards
    assert forwards[0].readable_by == frozenset({1, 2})
    assert forwards[1].readable_by == frozenset({2, 3})


def test_delivery_between_unlinked_sources_rejected():
    runner, network = build_round(path_topology(3), (1, 2, 3), 16)
    runner.establish_sessions()
    with pytest.raises(NoLinkError):
        network.deliver(Message(MessageKind.KEY_INDEX_ANNOUNCE, 1, 3, 1, None))


def test_confidentiality_soundness():
    # a principal reads an event iff it is plaintext or holds the key
    runner, network = build_round(
        complete_topology(4), (1, 2, 3, 4), 64, force_initiator=2
    )
    runner.run()
    principals = network.topology.principals()
    for event in network.events:
        key_id = event.message.key_id
        if key_id is None:
            assert event.readable_by == principals
        else:
            assert event.readable_by == network.directory.holders(key_id)
            assert event.message.sender in event.readable_by
            assert event.message.receiver in event.readable_by


def test_scenario_sum_outcome():
    transcript = run_scenario(
        ScenarioConfig(n_sources=3, modulus=32, values=(3, 9, 14), seed=7)
    )
    assert transcript.result.outcome is RoundOutcome.SUM
    assert transcript.result.total == 26


def test_scenario_single_source_refused():
    transcript = run_scenario(
        ScenarioConfig(n_sources=1, modulus=16, values=(5,), seed=0)
    )
    assert transcript.result.outcome is RoundOutcome.REFUSED


def test_scenario_replay_identical_transcript():
    config = ScenarioConfig(
        n_sources=5, modulus=2**16, values=(10, 20, 30, 40, 50), seed=99
    )
    first = run_scenario(config)
    second = run_scenario(config)
    assert first.serialize() == second.serialize()
    assert first.result == second.result


def test_scenario_multiple_rounds_accumulate():
    config = ScenarioConfig(
        n_sources=3, modulus=2**10, values=(1, 2, 3), seed=1, rounds=3
    )
    transcript = run_scenario(config)
    assert len(transcript.results) == 3
    assert {r.outcome for r in transcript.results} == {RoundOutcome.SUM}
    assert {r.total for r in transcript.results} == {6}
    rounds_seen = {e.round_no for e in transcript.events}
    assert rounds_seen == {1, 2, 3}
    steps = [e.step for e in transcript.events]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)


def test_scenario_sampled_values_within_range():
    config = ScenarioConfig(
        n_sources=4, modulus=2**16, value_range=(0, 99), seed=5, rounds=2
    )
    transcript = run_scenario(config)
    for result in transcript.results:
        if result.outcome is RoundOutcome.SUM:
            assert 0 <= result.total <= 4 * 99


def test_serialized_line_format():
    transcript = run_scenario(
        ScenarioConfig(n_sources=2, modulus=16, values=(3, 4), seed=2)
    )
    lines = transcript.serialize().splitlines()
    assert lines  # non-empty
    for i, line in enumerate(lines):
        fields = line.split("\t")
        assert len(fields) == 6
        assert int(fields[0]) == i
        assert fields[4] == "PLAIN" or ":" in fields[4]


def test_transcript_write(tmp_path):
    transcript = run_scenario(
        ScenarioConfig(n_sources=2, modulus=16, values=(3, 4), seed=2)
    )
    out = tmp_path / "trace.log"
    transcript.write(str(out))
    assert out.read_text() == transcript.serialize()


@pytest.mark.parametrize(
    "changes, field",
    [
        (dict(n_sources=0), "n_sources"),
        (dict(modulus=1), "modulus"),
        (dict(values=(1, 2)), "values"),
        (dict(values=(20, 1, 1)), "values"),
        (dict(values=(9, 9, 9)), "values"),
        (dict(values=None, value_range=None), "values"),
        (dict(values=None, value_range=(0, 10)), "values"),
        (dict(source_source_keys=0), "k"),
        (dict(source_source_keys=100), "k"),
        (dict(edge_prob=1.5), "p"),
        (dict(mode="flood"), "mode"),
        (dict(adversary="mitm"), "adversary"),
        (dict(rounds=0), "rounds"),
    ],
)
def test_config_validation_names_bad_field(changes, field):
    base = dict(n_sources=3, modulus=16, values=(1, 2, 3), seed=0)
    base.update(changes)
    with pytest.raises(ConfigError) as exc_info:
        ScenarioConfig(**base).validate()
    assert exc_info.value.fieldname == field


def test_round_events_matches_linear_scan():
    transcript = run_scenario(
        ScenarioConfig(
            n_sources=12, modulus=2**16, value_range=(0, 99), seed=3, rounds=5
        )
    )
    for round_no in range(0, 7):
        expected = [e for e in transcript.events if e.round_no == round_no]
        assert transcript.round_events(round_no) == expected
    assert sum(len(transcript.round_events(r)) for r in range(1, 6)) == len(
        transcript.events
    )


@pytest.mark.parametrize("mode", MODES)
def test_message_counts_match_closed_form(mode):
    """Per round: n index announcements, the initiation and its report, one
    directive plus one report per hop, 5 pairwise-setup messages and one
    forward per direct hop or 2 relay messages per jump, and 4 to finish."""
    n = 30
    mixed = False
    for seed in range(5):
        for adversary in ("none", "probe"):
            transcript = run_scenario(
                ScenarioConfig(
                    n_sources=n,
                    modulus=2**20,
                    value_range=(0, 99),
                    edge_prob=0.1,
                    seed=seed,
                    mode=mode,
                    adversary=adversary,
                    rounds=3,
                )
            )
            for round_no in range(1, 4):
                events = transcript.round_events(round_no)
                if adversary == "probe":
                    assert len(events) == n + 6
                    continue
                kinds = Counter(e.message.kind for e in events)
                d = kinds[MessageKind.MASKED_FORWARD]
                j = kinds[MessageKind.RELAY_UP]
                assert d + j == n - 1
                assert len(events) == 2 * n + 5 + 7 * d + 3 * j
                if mode == "strict-relay":
                    assert len(events) == 5 * n + 2
                mixed = mixed or (d > 0 and j > 0)
    assert mixed == (mode == "direct")
