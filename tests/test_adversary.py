"""Attack analyses: views, collusion, server probe, link compromise."""

import math
import random
from dataclasses import replace

import pytest

from privagg import ScenarioConfig, adversary, run_scenario
from privagg.adversary import (
    AttackNotApplicableError,
    chain_hops,
    empirical_disclosure_rate,
    links_used,
    observed_masked_values,
    probe_all_initiators,
    run_collusion_attack,
    run_link_compromise,
    run_server_probe,
    semi_honest_view,
)
from privagg.masking import mask_initial
from privagg.protocol import MODES, MessageKind, ProtocolError, RoundOutcome
from privagg.simnet import Transcript

from helpers import (
    reference_chain_hops,
    reference_collusion,
    reference_disclosure_rate,
    reference_link_compromise,
    reference_links_used,
)

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
    reports = [e for e in view if e.kind is MessageKind.SUM_REPORT]
    assert reports and reports[0].payload == 26
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
    transcript = replace(
        transcript, results=(replace(transcript.result, total=None),)
    )
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


def equivalence_transcripts(mode, n):
    """Seeds 0-4 with 1-3 rounds each; p=0.3 mixes direct hops and relay
    jumps in direct mode."""
    for seed in range(5):
        for rounds in (1, 2, 3):
            yield run_scenario(
                ScenarioConfig(
                    n_sources=n,
                    modulus=2**20,
                    value_range=(0, 99),
                    edge_prob=0.3,
                    seed=seed,
                    mode=mode,
                    rounds=rounds,
                )
            )


def outcome_or_error(attack, *args):
    try:
        return attack(*args)
    except AttackNotApplicableError as exc:
        return type(exc), str(exc)


EQUIVALENCE_CASES = pytest.mark.parametrize(
    "mode,n", [(mode, n) for mode in MODES for n in (2, 3, 30)]
)


@EQUIVALENCE_CASES
def test_indexed_chain_matches_per_call_scan(mode, n):
    for transcript in equivalence_transcripts(mode, n):
        for round_index in range(len(transcript.results)):
            assert chain_hops(transcript, round_index) == reference_chain_hops(
                transcript, round_index
            )
            assert links_used(transcript, round_index) == reference_links_used(
                transcript, round_index
            )


@EQUIVALENCE_CASES
def test_indexed_collusion_matches_per_target_scan(mode, n):
    for transcript in equivalence_transcripts(mode, n):
        for target in range(n + 2):
            assert outcome_or_error(
                run_collusion_attack, transcript, target
            ) == outcome_or_error(reference_collusion, transcript, target)


@EQUIVALENCE_CASES
def test_indexed_link_compromise_matches_reference(mode, n):
    for transcript in equivalence_transcripts(mode, n):
        for b in (0.0, 0.5, 1.0):
            rng, ref_rng = random.Random(b), random.Random(b)
            assert run_link_compromise(transcript, b, rng) == (
                reference_link_compromise(transcript, b, ref_rng)
            )
            assert rng.getstate() == ref_rng.getstate()  # same number of draws


@EQUIVALENCE_CASES
def test_same_stream_monte_carlo_is_bit_identical(mode, n):
    for transcript in equivalence_transcripts(mode, n):
        hops = chain_hops(transcript)
        targets = [h.node for h in hops if h.inbound and h.outbound]
        assert targets  # every non-initiator has both hops
        for target in (targets[0], targets[-1]):
            for b in (0.0, 0.3, 0.5, 1.0):
                for trials in (1, 1000):
                    rng = random.Random(f"{target}:{b}:{trials}")
                    ref_rng = random.Random(f"{target}:{b}:{trials}")
                    rate = empirical_disclosure_rate(
                        transcript, target, b, trials, rng
                    )
                    expected = reference_disclosure_rate(
                        transcript, target, b, trials, ref_rng
                    )
                    assert rate.hex() == expected.hex()
                    assert rng.getstate() == ref_rng.getstate()


# Where a target's two links can sit among the round's used links, as
# (lo, hi, n_links) with lo <= hi their canonical positions; each case is a
# boundary of the Monte Carlo's skip layout.
SKIP_BOUNDARIES = {
    "one shared link": lambda lo, hi, n_links: lo == hi,
    "no link before": lambda lo, hi, n_links: lo == 0,
    "one link before": lambda lo, hi, n_links: lo == 1,
    "no link after": lambda lo, hi, n_links: hi == n_links - 1,
    "one link after": lambda lo, hi, n_links: hi == n_links - 2,
    "no link between": lambda lo, hi, n_links: hi == lo + 1,
    "one link between": lambda lo, hi, n_links: hi == lo + 2,
    "over 100 links between": lambda lo, hi, n_links: hi - lo > 100,
}


def test_skip_layout_matches_reference_at_every_boundary():
    covered = set()
    for mode in MODES:
        for n in (5, 300):
            transcript = run_scenario(
                ScenarioConfig(
                    n_sources=n,
                    modulus=2**20,
                    value_range=(0, 99),
                    edge_prob=0.3 if n == 5 else 0.02,
                    seed=1,
                    mode=mode,
                )
            )
            links = links_used(transcript)
            for hop in chain_hops(transcript)[1:]:
                lo, hi = sorted(
                    links.index(tuple(sorted((e.sender, e.receiver))))
                    for e in (hop.inbound, hop.outbound)
                )
                cases = {
                    name
                    for name, holds in SKIP_BOUNDARIES.items()
                    if holds(lo, hi, len(links))
                } - covered
                if not cases:
                    continue
                covered |= cases
                for b in (0.5, 0.9):
                    for trials in (1, 2, 7):
                        seed = f"{mode}:{n}:{hop.node}:{b}:{trials}"
                        rng, ref_rng = random.Random(seed), random.Random(seed)
                        rate = empirical_disclosure_rate(
                            transcript, hop.node, b, trials, rng
                        )
                        expected = reference_disclosure_rate(
                            transcript, hop.node, b, trials, ref_rng
                        )
                        assert rate.hex() == expected.hex(), (seed, lo, hi)
                        assert rng.getstate() == ref_rng.getstate(), (seed, lo, hi)
    assert covered == set(SKIP_BOUNDARIES)


def test_skips_consume_the_stream_like_random():
    """The Monte Carlo's skips rely on this: ``getrandbits(64 * k)`` takes
    the same Mersenne Twister words as ``k`` calls to ``random()``, so the
    generator ends in the same state."""
    for seed in range(50):
        a, b = random.Random(seed), random.Random(seed)
        for k in (1, 2, 3, 10, 311, 1000):
            a.getrandbits(64 * k)
            for _ in range(k):
                b.random()
            assert a.getstate() == b.getstate(), (seed, k)
            assert a.random() == b.random(), (seed, k)


def test_random_words_decode_to_random():
    """Topology generation relies on this: the little-endian bytes of
    ``getrandbits(64 * k)`` hold ``k`` pairs of 32-bit words, each pair's
    first word in the lower half, and ``random()`` is
    ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``, whose top byte is the top
    byte of ``w0``."""
    for seed in range(50):
        a, b = random.Random(seed), random.Random(seed)
        for k in (1, 2, 7, 1000):
            raw = a.getrandbits(64 * k).to_bytes(8 * k, "little")
            for j in range(k):
                w0 = int.from_bytes(raw[8 * j : 8 * j + 4], "little")
                w1 = int.from_bytes(raw[8 * j + 4 : 8 * j + 8], "little")
                x = b.random()
                assert ((w0 >> 5) * 2**26 + (w1 >> 6)) * 2.0**-53 == x, (seed, k)
                assert raw[8 * j + 3] == int(x * 2**53) >> 45, (seed, k)
            assert a.getstate() == b.getstate(), (seed, k)


def test_strict_relay_target_hops_share_one_link():
    transcript = ordered_chain_transcript(mode="strict-relay")
    target = transcript.result.visitation[1]
    hop = chain_hops(transcript)[1]
    links = {
        tuple(sorted((e.sender, e.receiver)))
        for e in (hop.inbound, hop.outbound)
    }
    assert len(links) == 1
    # one link decides exposure, so the rate is b, not b squared
    rate = empirical_disclosure_rate(transcript, target, 0.5, 4000, random.Random(3))
    assert abs(rate - 0.5) < 0.05


@pytest.fixture
def round_event_calls(monkeypatch):
    calls = []
    original = Transcript.round_events

    def counted(self, round_no):
        calls.append(round_no)
        return original(self, round_no)

    monkeypatch.setattr(Transcript, "round_events", counted)
    return calls


def test_all_target_attacks_scan_the_round_once(round_event_calls):
    transcript = run_scenario(
        ScenarioConfig(
            n_sources=60, modulus=2**20, value_range=(0, 99), edge_prob=0.5, seed=4
        )
    )
    middle = transcript.result.visitation[1:-1]
    outcomes = [run_collusion_attack(transcript, t) for t in middle]
    assert all(o.success for o in outcomes)
    assert round_event_calls == [1]
    run_link_compromise(transcript, 0.5, random.Random(0))
    empirical_disclosure_rate(transcript, middle[0], 0.5, 10, random.Random(0))
    links_used(transcript)
    assert round_event_calls == [1]


def test_chain_hops_reads_the_requested_round():
    transcript = run_scenario(
        ScenarioConfig(
            n_sources=8, modulus=2**20, value_range=(0, 99), seed=2, rounds=3
        )
    )
    assert isinstance(transcript.events, tuple)
    for round_index, round_no in ((0, 1), (1, 2), (-2, 2), (2, 3), (-1, 3)):
        hops = chain_hops(transcript, round_index)
        visitation = transcript.results[round_no - 1].visitation
        assert [h.node for h in hops] == list(visitation)
        events = [e for h in hops for e in (h.inbound, h.outbound) if e]
        assert {e.round_no for e in events} == {round_no}


@pytest.mark.parametrize("round_index", [3, -4])
def test_out_of_range_round_index_raises_after_caching(round_index):
    transcript = run_scenario(
        ScenarioConfig(n_sources=5, modulus=2**20, value_range=(0, 99), rounds=3)
    )
    for cached in range(3):
        links_used(transcript, cached)
    with pytest.raises(IndexError):
        links_used(transcript, round_index)
    with pytest.raises(IndexError):
        chain_hops(transcript, round_index)


def test_replaced_round_result_rebuilds_the_index(round_event_calls):
    transcript = ordered_chain_transcript()
    target = transcript.result.visitation[1]
    assert run_collusion_attack(transcript, target).success
    cut = replace(transcript.result, visitation=transcript.result.visitation[:1])
    replaced = replace(transcript, results=(cut,))
    with pytest.raises(AttackNotApplicableError, match="did not participate"):
        run_collusion_attack(replaced, target)
    assert run_collusion_attack(transcript, target).success
    assert round_event_calls == [1, 1]
