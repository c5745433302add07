"""Property tests over random scenario configurations.

Examples are derandomized, so every run checks the same configurations and
the suite stays deterministic.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from privagg import ScenarioConfig, run_scenario
from privagg.keying import SERVER
from privagg.protocol import MASKED_VALUE_KINDS, MODES, MessageKind, RoundOutcome

MODULUS = 2**16

HOP_KINDS = frozenset(
    {MessageKind.MASKED_FORWARD, MessageKind.RELAY_UP, MessageKind.RELAY_DOWN}
)

PROPERTY_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=60, database=None
)


@st.composite
def scenarios(draw, modes=MODES):
    n = draw(st.integers(2, 40))
    return ScenarioConfig(
        n_sources=n,
        modulus=MODULUS,
        values=tuple(draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))),
        edge_prob=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
        mode=draw(st.sampled_from(modes)),
        rounds=draw(st.integers(1, 3)),
        total_keys=20,
        source_source_keys=8,
    )


@PROPERTY_SETTINGS
@given(scenarios())
def test_sum_correct_or_refused_only_on_false_alarm(config):
    for result in run_scenario(config).results:
        if result.outcome is RoundOutcome.SUM:
            assert result.total == sum(config.values)
        else:
            assert result.outcome is RoundOutcome.REFUSED
            assert sum(config.values) == config.values[result.initiator - 1]


@PROPERTY_SETTINGS
@given(scenarios())
def test_hops_readable_by_their_endpoints_only(config):
    for event in run_scenario(config).events:
        msg = event.message
        if msg.kind in HOP_KINDS:
            assert event.readable_by == {msg.sender, msg.receiver}


@PROPERTY_SETTINGS
@given(scenarios(modes=("strict-relay",)))
def test_strict_relay_chain_traffic_readable_by_its_own_source_only(config):
    for event in run_scenario(config).events:
        msg = event.message
        if msg.kind in MASKED_VALUE_KINDS:
            endpoints = {msg.sender, msg.receiver}
            assert SERVER in endpoints
            assert event.readable_by == endpoints


@PROPERTY_SETTINGS
@given(scenarios())
def test_message_counts_match_closed_form(config):
    n = config.n_sources
    transcript = run_scenario(config)
    for round_no in range(1, config.rounds + 1):
        events = transcript.round_events(round_no)
        kinds = Counter(e.message.kind for e in events)
        d = kinds[MessageKind.MASKED_FORWARD]
        j = kinds[MessageKind.RELAY_UP]
        assert d + j == n - 1
        assert len(events) == 2 * n + 5 + 7 * d + 3 * j
