"""Key pre-distribution: permuted banks, session agreement, index secrecy."""

import dataclasses
import itertools
import random

import pytest
from helpers import build_network, complete_topology

from privagg.keying import (
    IndexRangeError,
    KeyBank,
    KeyBankConfig,
    KeyDirectory,
    Permutation,
    SessionKey,
    SourceKeyring,
    UnknownSourceError,
    pairwise_key_value,
)
from privagg.protocol import RoundRunner
from privagg.simnet import ScenarioConfig, run_scenario


def make_directory(total=100, source_source=30, seed=1):
    config = KeyBankConfig(total, source_source)
    bank = KeyBank.generate(config, random.Random(seed))
    return KeyDirectory(bank)


def test_bank_split_sizes():
    config = KeyBankConfig(100, 30)
    bank = KeyBank.generate(config, random.Random(0))
    assert len(bank.aggregator_keys) == 70
    assert len(bank.source_keys) == 30


def test_config_rejects_bad_split():
    with pytest.raises(ValueError):
        KeyBankConfig(10, 10)
    with pytest.raises(ValueError):
        KeyBankConfig(10, 0)


def test_directory_takes_permutation_sizes_from_the_bank():
    directory = make_directory(total=30, source_source=5, seed=0)
    directory.provision_source(1, random.Random(1))
    directory.provision_source(2, random.Random(2))
    assert len(directory.aggregator_permutation(1)) == 25
    exchange = directory.establish_pairwise_key(1, 2, 1, random.Random(3))
    assert len(exchange.initiator_perm) == 5
    assert len(exchange.responder_perm) == 5


def test_provision_bank_sizes_both_ends():
    directory = make_directory()
    keyring = directory.provision_source(1, random.Random(2))
    assert len(keyring.aggregator_bank) == 70
    assert len(directory.aggregator_permutation(1)) == 70


def test_provision_deterministic_under_seed():
    d1 = make_directory()
    d2 = make_directory()
    k1 = d1.provision_source(7, random.Random(42))
    k2 = d2.provision_source(7, random.Random(42))
    assert k1.aggregator_bank == k2.aggregator_bank
    assert d1.aggregator_permutation(7) == d2.aggregator_permutation(7)


def test_provision_orderings_distinct_over_many_sources():
    # permutations of a 70-key bank collide with probability 1/70!; over
    # 10^4 independent provisionings we expect no collision at all
    directory = make_directory()
    rng = random.Random(3)
    seen = set()
    for sid in range(1, 10_001):
        directory.provision_source(sid, rng)
        seen.add(directory.aggregator_permutation(sid).order)
    assert len(seen) == 10_000


def test_provision_twice_rejected():
    directory = make_directory()
    directory.provision_source(1, random.Random(0))
    with pytest.raises(Exception):
        directory.provision_source(1, random.Random(1))


def test_permutation_bijectivity_over_draws():
    rng = random.Random(4)
    for _ in range(1000):
        perm = Permutation.random(23, rng)
        assert sorted(perm.order) == list(range(23))


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))


def test_permutation_draws_match_random_shuffle():
    """The draws are part of the transcript contract: every ordering is the
    list ``random.Random.shuffle`` makes on a twin generator, and leaves
    the generator in the same state."""
    for seed in range(200):
        a, b = random.Random(seed), random.Random(seed)
        for size in range(1, 101):
            perm = Permutation.random(size, a)
            order = list(range(size))
            b.shuffle(order)
            assert list(perm.order) == order, (seed, size)
            assert a.getstate() == b.getstate(), (seed, size)
            assert Permutation(perm.order) == perm


def test_index_draws_match_random_randint():
    directory = make_directory()
    directory.provision_source(1, random.Random(0))
    directory.provision_source(2, random.Random(1))
    keyring = directory.keyring(1)
    for seed in range(200):
        a, b = random.Random(seed), random.Random(seed)
        index, _ = keyring.select_aggregator_key(1, a)
        assert index == b.randint(1, 70)
        assert a.getstate() == b.getstate()
        exchange = directory.establish_pairwise_key(1, 2, 1, a)
        for perm in (exchange.initiator_perm, exchange.responder_perm):
            order = list(range(30))
            b.shuffle(order)
            assert list(perm.order) == order
        assert exchange.index == b.randint(1, 30)
        assert a.getstate() == b.getstate()


def test_index_draw_from_empty_bank_rejected():
    with pytest.raises(ValueError):
        SourceKeyring(1, (), ()).select_aggregator_key(1, random.Random(0))


def test_select_resolve_round_trip_exhaustive():
    directory = make_directory(total=12, source_source=4)
    directory.provision_source(1, random.Random(5))
    keyring = directory.keyring(1)
    for index in range(1, 9):  # bank size 12 - 4 = 8
        assert (
            directory.resolve_aggregator_key(1, index)
            == keyring.aggregator_bank[index - 1]
        )


def test_select_draws_index_in_range():
    directory = make_directory()
    directory.provision_source(1, random.Random(6))
    rng = random.Random(7)
    for _ in range(200):
        index, key = directory.keyring(1).select_aggregator_key(1, rng)
        assert 1 <= index <= 70
        assert key.value == directory.resolve_aggregator_key(1, index)


def test_same_index_different_sources_different_keys():
    directory = make_directory()
    directory.provision_source(1, random.Random(8))
    directory.provision_source(2, random.Random(9))
    # orderings differ (seeds distinct), so some index must map to
    # different keys; with 70 keys the first index almost surely does
    k1 = directory.resolve_aggregator_key(1, 1)
    k2 = directory.resolve_aggregator_key(2, 1)
    assert k1 != k2


def test_resolve_errors():
    directory = make_directory()
    directory.provision_source(1, random.Random(10))
    with pytest.raises(UnknownSourceError):
        directory.resolve_aggregator_key(99, 1)
    with pytest.raises(IndexRangeError):
        directory.resolve_aggregator_key(1, 0)
    with pytest.raises(IndexRangeError):
        directory.resolve_aggregator_key(1, 71)


def _provisioned_directory(n_sources, seed, total=20, source_source=8):
    directory = make_directory(total, source_source, seed)
    provision_rng = random.Random(seed + 1)
    for sid in range(1, n_sources + 1):
        directory.provision_source(sid, provision_rng)
    return directory


def test_pairwise_agreement_over_random_pairs():
    rng = random.Random(11)
    for trial in range(300):
        directory = _provisioned_directory(4, seed=1000 + trial)
        a, b = rng.sample(range(1, 5), 2)
        exchange = directory.establish_pairwise_key(a, b, 1, rng)
        # each endpoint derives the key from its own ordering plus the
        # ordering it received; both must land on the same raw key
        a_side = pairwise_key_value(
            directory.bank.source_keys,
            exchange.initiator_perm,
            exchange.responder_perm,
            exchange.index,
        )
        b_side = pairwise_key_value(
            directory.bank.source_keys,
            exchange.initiator_perm,
            exchange.responder_perm,
            exchange.index,
        )
        assert a_side == b_side == exchange.key.value
        assert exchange.key.scope == {a, b}
        assert 1 <= exchange.index <= 8


def test_pairwise_rejects_unprovisioned_source():
    directory = _provisioned_directory(2, seed=0)
    for a, b in ((1, 3), (3, 1)):
        with pytest.raises(UnknownSourceError):
            directory.establish_pairwise_key(a, b, 1, random.Random(2))


def test_bystander_guess_misses_without_orderings():
    # a third source holds the same raw bank but neither ordering; guessing
    # by the announced index against its own (canonical) ordering should
    # succeed only ~1/k of the time
    k = 8
    rng = random.Random(12)
    hits = 0
    trials = 4000
    for trial in range(trials):
        directory = _provisioned_directory(3, seed=50_000 + trial)
        exchange = directory.establish_pairwise_key(1, 2, 1, rng)
        guess = directory.bank.source_keys[exchange.index - 1]
        hits += guess == exchange.key.value
    rate = hits / trials
    assert abs(rate - 1 / k) < 0.03  # ~5 sigma for 4000 trials


def test_index_alone_pins_key_with_probability_one_over_bank():
    # exhaustive: over all orderings of a 5-key bank, a fixed announced
    # index maps to each key in exactly 1/5 of the orderings
    bank = (100, 200, 300, 400, 500)
    index = 3
    counts = {key: 0 for key in bank}
    perms = list(itertools.permutations(range(5)))
    for order in perms:
        perm = Permutation(order)
        counts[bank[perm.slot(index)]] += 1
    assert all(count == len(perms) // 5 for count in counts.values())


def test_fresh_index_sequence_reproducible():
    directory = make_directory()
    directory.provision_source(1, random.Random(13))
    seq1 = [
        directory.keyring(1).select_aggregator_key(1, random.Random(99))[0]
        for _ in range(1)
    ]
    seq2 = [
        directory.keyring(1).select_aggregator_key(1, random.Random(99))[0]
        for _ in range(1)
    ]
    assert seq1 == seq2
    rng = random.Random(100)
    keyring = directory.keyring(1)
    indices = [keyring.select_aggregator_key(1, rng)[0] for _ in range(50)]
    assert len(set(indices)) > 1  # fresh draws, not a constant


def _rounds_by_key_id(events):
    """Round numbers each key id is used in; every keyed event's id must
    name its own round."""
    rounds = {}
    for event in events:
        key = event.key
        if key is not None:
            assert key.key_id.endswith(f":r{event.round_no}")
            rounds.setdefault(key.key_id, set()).add(event.round_no)
    return rounds


def test_sessions_dropped_between_rounds():
    transcript = run_scenario(
        ScenarioConfig(
            n_sources=6, modulus=2**16, value_range=(0, 9), rounds=4, seed=14
        )
    )
    rounds = _rounds_by_key_id(transcript.events)
    assert {r for used in rounds.values() for r in used} == {1, 2, 3, 4}
    assert {key_id.split(":", 1)[0] for key_id in rounds} == {"agg", "pair"}
    assert all(len(used) == 1 for used in rounds.values())


def test_session_keys_belong_to_their_round():
    network = build_network(complete_topology(4), seed=16)
    for round_no in range(1, 4):
        RoundRunner(
            network,
            (1, 2, 3, 4),
            64,
            rng=random.Random(f"round:{round_no}"),
            keying_rng=random.Random(f"keying:{round_no}"),
        ).run()
    rounds = _rounds_by_key_id(network.events)
    assert rounds["agg:c1:r3"] == {3}
    assert all(len(used) == 1 for used in rounds.values())
    # the directory and the keyrings hold provisioned material only
    directory = network.directory
    keyrings = [directory.keyring(sid) for sid in network.topology.sources()]
    held = [*vars(directory).values(), *directory._keyrings.values()]
    for keyring in keyrings:
        held += [getattr(keyring, f.name) for f in dataclasses.fields(keyring)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            keyring.source_id = 0
    assert not any(isinstance(value, SessionKey) for value in held)
    assert [f.name for f in dataclasses.fields(SourceKeyring)] == [
        "source_id",
        "aggregator_bank",
        "source_bank",
    ]


def test_pairwise_key_value_reads_composed_slot():
    rng = random.Random(5)
    bank = tuple(rng.randrange(2**32) for _ in range(8))
    for _ in range(50):
        first = Permutation.random(8, rng)
        second = Permutation.random(8, rng)
        for index in range(1, 9):
            expected = bank[first.order[second.order[index - 1]]]
            assert pairwise_key_value(bank, first, second, index) == expected


def test_pairwise_key_value_errors():
    rng = random.Random(6)
    bank = tuple(range(8))
    first = Permutation.random(8, rng)
    with pytest.raises(ValueError, match="different sizes"):
        pairwise_key_value(bank, first, Permutation.random(7, rng), 1)
    for index in (0, 9):
        with pytest.raises(IndexRangeError):
            pairwise_key_value(bank, first, Permutation.random(8, rng), index)
