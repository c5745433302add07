"""Key pre-distribution: permuted banks, session agreement, index secrecy."""

import itertools
import random

import pytest
from helpers import build_network, complete_topology

from privagg.keying import (
    IndexRangeError,
    KeyBank,
    KeyBankConfig,
    KeyDirectory,
    PairEstablishmentError,
    Permutation,
    UnknownSourceError,
    pairwise_key_value,
)
from privagg.protocol import RoundRunner


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
    directory.begin_round(1)
    for sid in (1, 2):
        directory.keyring(sid).select_aggregator_key(random.Random(sid))
    exchange = directory.establish_pairwise_key(1, 2, random.Random(3))
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


def test_select_resolve_round_trip_exhaustive():
    directory = make_directory(total=12, source_source=4)
    directory.provision_source(1, random.Random(5))
    directory.begin_round(1)
    keyring = directory.keyring(1)
    for index in range(1, 9):  # bank size 12 - 4 = 8
        assert (
            directory.resolve_aggregator_key(1, index)
            == keyring.aggregator_key_at(index)
        )


def test_select_draws_index_in_range():
    directory = make_directory()
    directory.provision_source(1, random.Random(6))
    directory.begin_round(1)
    rng = random.Random(7)
    for _ in range(200):
        index, key = directory.keyring(1).select_aggregator_key(rng)
        assert 1 <= index <= 70
        assert key.value == directory.resolve_aggregator_key(1, index)


def test_same_index_different_sources_different_keys():
    directory = make_directory()
    directory.provision_source(1, random.Random(8))
    directory.provision_source(2, random.Random(9))
    directory.begin_round(1)
    # orderings differ (seeds distinct), so some index must map to
    # different keys; with 70 keys the first index almost surely does
    k1 = directory.resolve_aggregator_key(1, 1)
    k2 = directory.resolve_aggregator_key(2, 1)
    assert k1 != k2


def test_resolve_errors():
    directory = make_directory()
    directory.provision_source(1, random.Random(10))
    directory.begin_round(1)
    with pytest.raises(UnknownSourceError):
        directory.resolve_aggregator_key(99, 1)
    with pytest.raises(IndexRangeError):
        directory.resolve_aggregator_key(1, 0)
    with pytest.raises(IndexRangeError):
        directory.resolve_aggregator_key(1, 71)


def _directory_with_sessions(n_sources, seed, total=20, source_source=8):
    directory = make_directory(total, source_source, seed)
    provision_rng = random.Random(seed + 1)
    session_rng = random.Random(seed + 2)
    for sid in range(1, n_sources + 1):
        directory.provision_source(sid, provision_rng)
    directory.begin_round(1)
    for sid in range(1, n_sources + 1):
        directory.keyring(sid).select_aggregator_key(session_rng)
    return directory


def test_pairwise_agreement_over_random_pairs():
    rng = random.Random(11)
    for trial in range(300):
        directory = _directory_with_sessions(4, seed=1000 + trial)
        a, b = rng.sample(range(1, 5), 2)
        exchange = directory.establish_pairwise_key(a, b, rng)
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
        assert directory.keyring(a).pair_sessions[b].value == a_side
        assert directory.keyring(b).pair_sessions[a].value == b_side
        assert 1 <= exchange.index <= 8


def test_pairwise_requires_server_sessions():
    directory = make_directory(20, 8)
    directory.provision_source(1, random.Random(0))
    directory.provision_source(2, random.Random(1))
    directory.begin_round(1)
    with pytest.raises(PairEstablishmentError):
        directory.establish_pairwise_key(1, 2, random.Random(2))


def test_bystander_guess_misses_without_orderings():
    # a third source holds the same raw bank but neither ordering; guessing
    # by the announced index against its own (canonical) ordering should
    # succeed only ~1/k of the time
    k = 8
    rng = random.Random(12)
    hits = 0
    trials = 4000
    for trial in range(trials):
        directory = _directory_with_sessions(3, seed=50_000 + trial)
        exchange = directory.establish_pairwise_key(1, 2, rng)
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
    directory.begin_round(1)
    seq1 = [
        directory.keyring(1).select_aggregator_key(random.Random(99))[0]
        for _ in range(1)
    ]
    seq2 = [
        directory.keyring(1).select_aggregator_key(random.Random(99))[0]
        for _ in range(1)
    ]
    assert seq1 == seq2
    rng = random.Random(100)
    indices = [directory.keyring(1).select_aggregator_key(rng)[0] for _ in range(50)]
    assert len(set(indices)) > 1  # fresh draws, not a constant


def test_sessions_dropped_between_rounds():
    directory = _directory_with_sessions(2, seed=14)
    directory.establish_pairwise_key(1, 2, random.Random(15))
    assert directory.keyring(1).pair_sessions
    directory.begin_round(2)
    assert not directory.keyring(1).pair_sessions
    assert directory.keyring(1).aggregator_session is None


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
    keyed = [e for e in network.events if e.message.key_id is not None]
    assert {e.round_no for e in keyed} == {1, 2, 3}
    for event in keyed:
        assert event.message.key_id.endswith(f":r{event.round_no}")
    held = set()
    for sid in network.topology.sources():
        keyring = network.directory.keyring(sid)
        held.add(keyring.aggregator_session.key_id)
        held.update(key.key_id for key in keyring.pair_sessions.values())
    assert "agg:c1:r3" in held
    assert all(key_id.endswith(":r3") for key_id in held)


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
