"""Attack analyses: views, collusion, server probe, link compromise."""

import math
import random
from dataclasses import replace

import pytest

from privagg import (
    AttackNotApplicableError,
    MessageKind,
    RoundOutcome,
    ScenarioConfig,
    empirical_disclosure_rate,
    mask_initial,
    observed_masked_values,
    probe_all_initiators,
    run_collusion_attack,
    run_link_compromise,
    run_scenario,
    run_server_probe,
    semi_honest_view,
)
from privagg import adversary
from privagg.adversary import chain_hops, links_used
from privagg.protocol import ProtocolError

PATH_CHAIN = ScenarioConfig(
    n_sources=3,
    modulus=32,
    values=(3, 9, 14),
    edge_prob=1.0,
    seed=13,
    force_initiator=1,
)


def ordered_chain_transcript(mode="direct", seed=13, values=(3, 9, 14), modulus=32):
    config = replace(
        PATH_CHAIN, mode=mode, seed=seed, values=values, modulus=modulus
    )
    transcript = run_scenario(config)
    return transcript


def test_middle_node_sees_exactly_two_masked_values():
    transcript = ordered_chain_transcript()
    middle = transcript.result.visitation[1]
    observed = observed_masked_values(transcript, {middle})
    assert len(observed) == 2


def test_initiator_view_includes_reported_sum():
    transcript = ordered_chain_transcript()
    initiator = transcript.result.initiator
    view = semi_honest_view(transcript, {initiator})
    reports = [e for e in view if e.message.kind is MessageKind.SUM_REPORT]
    assert reports and reports[0].message.payload == 26
    # and hence the sum of everyone else's values
    assert (26 - 3) % 32 == 23


def test_observed_values_uniform_over_initial_mask():
    # exhaustive enumeration at M=17: for any fixed input vector, each
    # masked value a node observes hits every residue exactly once
    m = 17
    for values in [(3, 9, 4), (1, 2, 3), (16, 0, 0)]:
        first_counts = [0] * m
        second_counts = [0] * m
        for r in range(m):
            transcript = run_scenario(
                replace(
                    PATH_CHAIN,
                    modulus=m,
                    values=values,
                    force_initial_mask=r,
                )
            )
            middle = transcript.result.visitation[1]
            observed = observed_masked_values(transcript, {middle})
            first_counts[observed[0]] += 1
            second_counts[observed[1]] += 1
        assert first_counts == [1] * m
        assert second_counts == [1] * m


def test_collusion_recovers_middle_value_exactly():
    transcript = ordered_chain_transcript()
    target = transcript.result.visitation[1]
    outcome = run_collusion_attack(transcript, target)
    assert outcome.success
    assert outcome.disclosed == {target: (3, 9, 14)[target - 1]}


def test_collusion_strict_relay_recovers_nothing():
    transcript = ordered_chain_transcript(mode="strict-relay")
    target = transcript.result.visitation[1]
    outcome = run_collusion_attack(transcript, target)
    assert not outcome.success
    assert outcome.disclosed == {}


def test_collusion_first_visited_not_applicable():
    transcript = ordered_chain_transcript()
    first = transcript.result.visitation[0]
    with pytest.raises(AttackNotApplicableError):
        run_collusion_attack(transcript, first)
    last = transcript.result.visitation[-1]
    with pytest.raises(AttackNotApplicableError):
        run_collusion_attack(transcript, last)


def test_collusion_exact_over_random_rounds():
    for seed in range(60):
        values = tuple(random.Random(seed).randrange(500) for _ in range(5))
        transcript = run_scenario(
            ScenarioConfig(
                n_sources=5, modulus=2**16, values=values, edge_prob=1.0, seed=seed
            )
        )
        visitation = transcript.result.visitation
        for target in visitation[1:-1]:
            outcome = run_collusion_attack(transcript, target)
            assert outcome.disclosed[target] == values[target - 1]


def test_single_node_view_consistent_with_every_candidate_input():
    # indistinguishability: nothing in the middle node's view rules out any
    # candidate value for the initiator's input
    m = 17
    transcript = ordered_chain_transcript(modulus=m, values=(3, 9, 4))
    middle = transcript.result.visitation[1]
    observed_first = observed_masked_values(transcript, {middle})[0]
    for candidate in range(m):
        consistent = any(
            mask_initial(candidate, r, m) == observed_first for r in range(m)
        )
        assert consistent


def test_server_probe_defense_blocks_disclosure():
    config = replace(PATH_CHAIN, adversary="probe")
    outcome = run_server_probe(config)
    assert outcome.defense_triggered
    assert not outcome.success
    assert outcome.disclosed == {}


def test_server_probe_ablation_discloses_initiator_value():
    config = replace(PATH_CHAIN, adversary="probe_ablation")
    outcome = run_server_probe(config)
    assert outcome.success
    assert outcome.disclosed == {1: 3}
    assert not outcome.defense_triggered


def test_server_probe_requires_probe_scenario():
    with pytest.raises(ValueError):
        run_server_probe(PATH_CHAIN)


def test_server_probe_without_sum_raises(monkeypatch):
    config = replace(PATH_CHAIN, adversary="probe_ablation")
    transcript = run_scenario(config)
    transcript.results[-1] = replace(transcript.result, total=None)
    assert transcript.result.outcome is RoundOutcome.SUM
    monkeypatch.setattr(adversary, "run_scenario", lambda _config: transcript)
    with pytest.raises(ProtocolError, match="without a sum"):
        run_server_probe(config)


def test_probe_sweep_all_initiators():
    config = ScenarioConfig(
        n_sources=5,
        modulus=2**12,
        values=(11, 22, 33, 44, 55),
        edge_prob=0.8,
        seed=21,
        adversary="probe",
    )
    with_defense = probe_all_initiators(config)
    assert len(with_defense) == 5
    assert all(o.defense_triggered and not o.disclosed for o in with_defense.values())
    ablated = probe_all_initiators(replace(config, adversary="probe_ablation"))
    assert {sid: o.disclosed[sid] for sid, o in ablated.items()} == {
        1: 11, 2: 22, 3: 33, 4: 44, 5: 55
    }


def test_link_compromise_zero_probability_discloses_nothing():
    transcript = ordered_chain_transcript()
    outcome = run_link_compromise(transcript, 0.0, random.Random(1))
    assert outcome.disclosed == {} and not outcome.success


def test_link_compromise_full_probability_discloses_all_but_initiator():
    transcript = run_scenario(
        ScenarioConfig(
            n_sources=4,
            modulus=2**10,
            values=(5, 6, 7, 8),
            edge_prob=1.0,
            seed=3,
        )
    )
    outcome = run_link_compromise(transcript, 1.0, random.Random(2))
    initiator = transcript.result.initiator
    assert set(outcome.disclosed) == set(transcript.result.visitation) - {initiator}
    for node, value in outcome.disclosed.items():
        assert value == (5, 6, 7, 8)[node - 1]


def test_link_compromise_rejects_bad_probability():
    transcript = ordered_chain_transcript()
    with pytest.raises(ValueError):
        run_link_compromise(transcript, 1.5, random.Random(0))


def test_middle_node_disclosure_rate_matches_b_squared():
    transcript = ordered_chain_transcript()
    target = transcript.result.visitation[1]
    b = 0.3
    trials = 20_000
    rate = empirical_disclosure_rate(
        transcript, target, b, trials, random.Random(77)
    )
    sigma = math.sqrt(b**2 * (1 - b**2) / trials)
    assert abs(rate - b**2) < 3 * sigma


def test_chain_hops_structure():
    transcript = ordered_chain_transcript()
    hops = chain_hops(transcript)
    assert [h.node for h in hops] == list(transcript.result.visitation)
    assert hops[0].inbound is None  # initiator never receives a chain value
    assert all(h.outbound is not None for h in hops)
    assert all(h.inbound is not None for h in hops[1:])
    assert links_used(transcript)  # round used at least one link
