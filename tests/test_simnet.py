"""Topology generation, delivery semantics, transcripts, scenario runs."""

import dataclasses
import gc
import random
from collections import Counter

import pytest
from helpers import build_round, check_invariants, complete_topology, path_topology

from privagg import ScenarioConfig, run_scenario
from privagg.cli import main, parse_config_text
from privagg.keying import SERVER, Permutation, SessionKey
from privagg.protocol import MODES, MessageKind, RoundOutcome
from privagg.simnet import (
    ConfigError,
    Network,
    NoLinkError,
    Topology,
    TraceEvent,
    generate_topology,
    parse_adversary,
)


def test_full_density_gives_complete_graph():
    topo = generate_topology(5, 1.0, random.Random(0))
    assert len(topo.edges) == 10
    for s in topo.sources():
        assert len(topo.sorted_neighbors(s)) == 4
    assert len(topo.server_links) == 1  # one link for the single component


def test_zero_density_attaches_every_source_to_server():
    topo = generate_topology(4, 0.0, random.Random(0))
    assert topo.edges == ()
    assert topo.server_links == (1, 2, 3, 4)  # one per component, in order


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
        assert topo.server_links  # server linked to at least one source


def test_invalid_topology_arguments():
    with pytest.raises(ValueError):
        generate_topology(0, 0.5, random.Random(0))
    with pytest.raises(ValueError):
        generate_topology(3, 1.5, random.Random(0))
    with pytest.raises(ValueError):
        Topology(2, ((1, 3),), frozenset({1}))


def test_topology_rejects_source_with_no_path_to_server():
    with pytest.raises(ValueError, match="source 2 cannot reach the server"):
        Topology(3, (), (1,))
    with pytest.raises(ValueError, match="source 4 cannot reach the server"):
        Topology(5, ((1, 2), (2, 3), (4, 5)), (3,))
    with pytest.raises(ValueError, match="source 1 cannot reach the server"):
        Topology(1, (), ())
    # a path through other sources is enough
    assert Topology(5, ((1, 2), (2, 3), (3, 4), (4, 5)), (5,)).server_links == (5,)


@pytest.mark.parametrize("n", [1, 8, 200])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_topology_queries_agree_with_neighbor_sets(n, p):
    topo = generate_topology(n, p, random.Random(n))
    ends = {a: [] for a in topo.sources()}
    for x, y in topo.edges:
        ends[x].append(y)
        ends[y].append(x)
    for a in range(-1, n + 2):
        peers = ()
        if 1 <= a <= n:
            peers = topo.sorted_neighbors(a)
            assert peers == tuple(sorted(ends[a]))
        for b in range(-1, n + 2):
            assert topo.has_edge(a, b) == (b in peers)


def test_topology_equality_ignores_edge_order_and_duplicates():
    edges = [(1, 2), (2, 3), (1, 4)]
    first = Topology(4, edges, frozenset({1}))
    second = Topology(4, [(4, 1), (3, 2), (2, 1), (1, 2), (3, 2)], frozenset({1}))
    assert first == second
    assert first.edges == second.edges == ((1, 2), (1, 4), (2, 3))
    assert Topology(4, edges, {1, 4}) != Topology(4, edges[:2], {1, 4})


_KEY = SessionKey(value=7, key_id="agg:c1:r1", scope=frozenset({1, SERVER}))
_EVENT = TraceEvent(0, 1, MessageKind.SUM_REPORT, 1, SERVER, 5, _KEY, _KEY.scope)


@pytest.mark.parametrize(
    "record, names, copy",
    [
        (_EVENT, TraceEvent._fields, TraceEvent._replace),
        (_KEY, [f.name for f in dataclasses.fields(SessionKey)], dataclasses.replace),
    ],
    ids=["TraceEvent", "SessionKey"],
)
def test_records_are_frozen_and_slotted(record, names, copy):
    # a frozen dataclass raises FrozenInstanceError, an AttributeError
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert not hasattr(record, "__dict__")
    assert copy(record) == record


def test_message_property_is_the_event_itself():
    """perfbench's correctness gate (perfbench/workloads.py, ``check``)
    reads ``e.message.kind``, ``.sender`` and ``.receiver``."""
    assert _EVENT.message is _EVENT


def test_delivered_records_equal_constructed_ones():
    runner, network = build_round(
        path_topology(3), (3, 9, 14), 32, force_initiator=1
    )
    runner.run()
    everyone = network.events[0].readable_by
    assert everyone == network.topology.principals()
    for event in network.events:
        rebuilt = TraceEvent(
            event.step,
            event.round_no,
            event.kind,
            event.sender,
            event.receiver,
            event.payload,
            event.key,
            event.readable_by,
        )
        assert event == rebuilt and type(event) is TraceEvent
        assert event._replace(step=-1)._replace(step=event.step) == event
        # a stored reference, never a copy
        if event.key is None:
            assert event.readable_by is everyone
        else:
            assert event.readable_by is event.key.scope


def test_one_gc_tracked_object_per_delivery():
    """A delivery allocates one object the cyclic collector tracks, its
    ``TraceEvent``; the step and payload ints are untracked and the
    plaintext readable-by set is shared."""
    runner, network = build_round(path_topology(3), (1, 2, 3), 16)
    deliver = network.deliver
    kind = MessageKind.KEY_INDEX_ANNOUNCE
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(1000):
            deliver(kind, 1, SERVER, i)
        grown = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    assert grown == 1000


_PAYLOAD_CASES = [
    (MessageKind.INITIATE_ROUND, None, "-"),
    (MessageKind.KEY_INDEX_ANNOUNCE, 7, "index=7"),
    (MessageKind.PERMUTE_EXCHANGE, Permutation((1, 0, 2)), "perm(n=3)"),
    (MessageKind.NEIGHBOR_REPORT, (2, 10), "neighbors=c2|c10"),
    (MessageKind.NEIGHBOR_REPORT, (), "neighbors="),
    (MessageKind.NEXT_HOP_DIRECTIVE, 4, "next=c4"),
    (MessageKind.NEXT_HOP_DIRECTIVE, SERVER, "next=server"),
    (MessageKind.MASKED_FORWARD, 11, "masked=11"),
    (MessageKind.RELAY_UP, 12, "masked=12"),
    (MessageKind.RELAY_DOWN, 13, "masked=13"),
    (MessageKind.FINAL_MASKED_VALUE, 14, "masked=14"),
    (MessageKind.COMPUTE_SUM_DIRECTIVE, 15, "masked=15"),
    (MessageKind.SUM_REPORT, 16, "sum=16"),
    (MessageKind.OPERATION_REFUSED, None, "operation cannot be performed"),
]


@pytest.mark.parametrize("kind, payload, text", _PAYLOAD_CASES)
def test_payload_summary_per_kind(kind, payload, text):
    assert {case[0] for case in _PAYLOAD_CASES} == set(MessageKind)
    event = TraceEvent(3, 1, kind, 1, SERVER, payload, None, frozenset({1}))
    assert event.line() == f"3\tc1\tserver\t{kind.value}\tPLAIN\t{text}"


def test_plaintext_delivery_readable_by_everyone():
    runner, network = build_round(path_topology(3), (1, 2, 3), 16)
    runner.establish_sessions()
    announce = network.events[0]
    assert announce.kind is MessageKind.KEY_INDEX_ANNOUNCE
    assert announce.readable_by == frozenset({SERVER, 1, 2, 3})


def test_pairwise_delivery_readable_by_endpoints_only():
    runner, network = build_round(
        path_topology(3), (3, 9, 14), 32, force_initiator=1
    )
    runner.run()
    forwards = [
        e for e in network.events if e.kind is MessageKind.MASKED_FORWARD
    ]
    assert forwards
    assert forwards[0].readable_by == frozenset({1, 2})
    assert forwards[1].readable_by == frozenset({2, 3})


def test_delivery_between_unlinked_sources_rejected():
    runner, network = build_round(path_topology(3), (1, 2, 3), 16)
    runner.establish_sessions()
    with pytest.raises(NoLinkError):
        network.deliver(MessageKind.KEY_INDEX_ANNOUNCE, 1, 3, 1)
    assert len(network.events) == 3  # only the index announcements


def test_confidentiality_soundness():
    # a principal reads an event iff it is plaintext or holds the key: the
    # two sources of a pair key, or one source and the server
    runner, network = build_round(
        complete_topology(4), (1, 2, 3, 4), 64, force_initiator=2
    )
    runner.run()
    principals = network.topology.principals()
    kinds = set()
    for event in network.events:
        kind = "plain" if event.key is None else event.key.key_id.split(":", 1)[0]
        kinds.add(kind)
        if kind == "plain":
            assert event.readable_by == principals
        elif kind == "pair":
            assert event.readable_by == {event.sender, event.receiver}
            assert SERVER not in event.readable_by
        else:
            assert kind == "agg"
            source = event.receiver if event.sender == SERVER else event.sender
            assert event.key.key_id.startswith(f"agg:c{source}:")
            assert event.readable_by == {source, SERVER}
    assert kinds == {"plain", "pair", "agg"}


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


def _reference_line(event):
    """One trace line rendered on its own, every field formatted here."""
    kind, payload = event.kind, event.payload

    def label(node_id):
        return "server" if node_id == SERVER else f"c{node_id}"

    if kind is MessageKind.INITIATE_ROUND:
        text = "-"
    elif kind is MessageKind.KEY_INDEX_ANNOUNCE:
        text = f"index={payload}"
    elif kind is MessageKind.PERMUTE_EXCHANGE:
        text = f"perm(n={len(payload.order)})"
    elif kind is MessageKind.NEIGHBOR_REPORT:
        text = "neighbors=" + "|".join(label(peer) for peer in payload)
    elif kind is MessageKind.NEXT_HOP_DIRECTIVE:
        text = f"next={label(payload)}"
    elif kind is MessageKind.SUM_REPORT:
        text = f"sum={payload}"
    elif kind is MessageKind.OPERATION_REFUSED:
        text = "operation cannot be performed"
    else:
        assert kind in (
            MessageKind.MASKED_FORWARD,
            MessageKind.RELAY_UP,
            MessageKind.RELAY_DOWN,
            MessageKind.FINAL_MASKED_VALUE,
            MessageKind.COMPUTE_SUM_DIRECTIVE,
        )
        text = f"masked={payload}"
    return "\t".join(
        (
            str(event.step),
            label(event.sender),
            label(event.receiver),
            kind.value,
            "PLAIN" if event.key is None else event.key.key_id,
            text,
        )
    )


def test_isolated_source_reports_no_neighbors():
    transcript = run_scenario(
        ScenarioConfig(n_sources=3, modulus=64, values=(1, 2, 3), edge_prob=0.0)
    )
    reports = [
        line
        for line in transcript.serialize().splitlines()
        if "\tNeighborReport\t" in line
    ]
    assert len(reports) == 3
    assert all(line.endswith("\tneighbors=") for line in reports)


def test_serialize_matches_per_event_reference_across_transcripts():
    """Label tables are per call: a larger transcript rendered before or
    after a smaller one leaves no trace in either."""
    for n, p in ((3, 0.5), (300, 0.1), (3, 1.0), (1, 0.0)):
        transcript = run_scenario(
            ScenarioConfig(
                n_sources=n, modulus=2**32, value_range=(0, 99), edge_prob=p, seed=n
            )
        )
        expected = [_reference_line(event) for event in transcript.events]
        assert transcript.serialize().splitlines() == expected


def test_transcript_write(tmp_path):
    text = "n_sources = 2\nmodulus = 16\nvalues = 3,4\nseed = 2\n"
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    out = tmp_path / "trace.log"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    transcript = run_scenario(parse_config_text(text))
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


@pytest.mark.parametrize(
    "spec, parsed",
    [
        ("none", ("none", None)),
        ("probe", ("probe", None)),
        ("probe_ablation", ("probe_ablation", None)),
        ("collusion", ("collusion", None)),
        ("collusion:2", ("collusion", 2)),
        ("link:0", ("link", 0.0)),
        ("link:0.25", ("link", 0.25)),
    ],
)
def test_adversary_spec_parses(spec, parsed):
    assert parse_adversary(spec) == parsed
    ScenarioConfig(n_sources=3, modulus=16, values=(1, 2, 3), adversary=spec).validate()


@pytest.mark.parametrize(
    "spec",
    [
        "probe:7",
        "none:x",
        "probe_ablation:1",
        "collusion:",
        "collusion:x",
        "link",
        "link:",
        "link:abc",
        "link:1.5",
        "link:nan",
        "mitm:1",
    ],
)
def test_adversary_spec_rejects_bad_parameter(spec):
    config = ScenarioConfig(n_sources=3, modulus=16, values=(1, 2, 3), adversary=spec)
    with pytest.raises(ConfigError) as exc_info:
        config.validate()
    assert exc_info.value.fieldname == "adversary"


def test_transcript_is_built_once_and_frozen():
    transcript = run_scenario(
        ScenarioConfig(n_sources=4, modulus=64, values=(1, 2, 3, 4), rounds=2)
    )
    assert isinstance(transcript.events, tuple)
    assert isinstance(transcript.results, tuple)
    assert len(transcript.results) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        transcript.events = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        transcript.results = ()


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
                kinds = Counter(e.kind for e in events)
                d = kinds[MessageKind.MASKED_FORWARD]
                j = kinds[MessageKind.RELAY_UP]
                assert d + j == n - 1
                assert len(events) == 2 * n + 5 + 7 * d + 3 * j
                if mode == "strict-relay":
                    assert len(events) == 5 * n + 2
                mixed = mixed or (d > 0 and j > 0)
    assert mixed == (mode == "direct")
