"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with output streaming to see the lines:  pytest -s tests/test_acceptance.py
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace

from privagg import ScenarioConfig, run_scenario
from privagg.adversary import (
    chain_hops,
    empirical_disclosure_rate,
    probe_all_initiators,
    run_collusion_attack,
)
from privagg.analysis import (
    DisclosureModel,
    chain_disclosure_probability,
    disclosure_probability,
    probability_grid,
)
from privagg.cpda import (
    Cluster,
    benchmark_kernel,
    cluster_round,
    default_seeds,
    next_prime,
)
from privagg.keying import (
    KeyBank,
    KeyBankConfig,
    KeyDirectory,
    Permutation,
    pairwise_key_value,
)
from privagg.protocol import RoundOutcome


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (> {budget_s}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_sum_correctness_property():
    with criterion(1, "sum correctness over random scenarios", 10.0):
        rng = random.Random(0xACCE551)
        for trial in range(1000):
            n = rng.randint(2, 50)
            modulus = rng.choice([2**16, 2**32])
            values = tuple(rng.randrange(modulus // n) for _ in range(n))
            config = ScenarioConfig(
                n_sources=n,
                modulus=modulus,
                values=values,
                edge_prob=rng.random(),
                seed=trial,
                total_keys=40,
                source_source_keys=16,
            )
            transcript = run_scenario(config)
            result = transcript.result
            if result.outcome is RoundOutcome.SUM:
                assert result.total == sum(values)
            else:
                # a refusal is legitimate only in the false-alarm case
                assert result.outcome is RoundOutcome.REFUSED
                assert sum(values) == values[result.initiator - 1]


def test_criterion_2_masking_indistinguishability_exhaustive():
    with criterion(2, "masked values uniform over the initial mask", 1.0):
        m = 17
        base = ScenarioConfig(
            n_sources=3,
            modulus=m,
            values=(3, 9, 4),
            edge_prob=1.0,
            seed=5,
            force_initiator=1,
            total_keys=12,
            source_source_keys=4,
        )
        for values in [(3, 9, 4), (0, 0, 0), (1, 2, 3), (16, 0, 0), (5, 5, 5)]:
            r1_counts = [0] * m
            r2_counts = [0] * m
            for r in range(m):
                transcript = run_scenario(
                    replace(base, values=values, force_initial_mask=r)
                )
                hops = chain_hops(transcript)
                r1_counts[hops[1].inbound.payload] += 1
                r2_counts[hops[2].inbound.payload] += 1
            assert r1_counts == [1] * m, f"R_1 not uniform for {values}"
            assert r2_counts == [1] * m, f"R_2 not uniform for {values}"


def test_criterion_3_collusion_exact_and_strict_relay_immune():
    with criterion(3, "collusion exact in direct mode, empty in strict-relay", 10.0):
        rng = random.Random(0xC0111)
        for trial in range(1000):
            n = rng.randint(3, 8)
            values = tuple(rng.randrange(1000) for _ in range(n))
            mode = "direct" if trial % 2 == 0 else "strict-relay"
            transcript = run_scenario(
                ScenarioConfig(
                    n_sources=n,
                    modulus=2**16,
                    values=values,
                    edge_prob=1.0,
                    seed=trial,
                    mode=mode,
                    total_keys=20,
                    source_source_keys=8,
                )
            )
            visitation = transcript.result.visitation
            for target in visitation[1:-1]:
                outcome = run_collusion_attack(transcript, target)
                if mode == "direct":
                    assert outcome.success
                    assert outcome.disclosed[target] == values[target - 1]
                else:
                    assert not outcome.success and outcome.disclosed == {}


def test_criterion_4_server_probe_defense():
    with criterion(4, "server probe blocked; ablation discloses; false alarm", 1.0):
        values = (11, 22, 33, 44, 55)
        config = ScenarioConfig(
            n_sources=5,
            modulus=2**12,
            values=values,
            edge_prob=0.7,
            seed=9,
            adversary="probe",
            total_keys=20,
            source_source_keys=8,
        )
        defended = probe_all_initiators(config)
        assert all(
            o.defense_triggered and not o.disclosed for o in defended.values()
        ), "defense let a probe through"
        ablated = probe_all_initiators(
            replace(config, adversary="probe_ablation")
        )
        assert {sid: o.disclosed[sid] for sid, o in ablated.items()} == {
            sid: values[sid - 1] for sid in range(1, 6)
        }, "ablation should disclose every initiator's value"
        false_alarm = run_scenario(
            ScenarioConfig(
                n_sources=3,
                modulus=32,
                values=(7, 0, 0),
                edge_prob=1.0,
                seed=1,
                force_initiator=1,
                total_keys=12,
                source_source_keys=4,
            )
        )
        assert false_alarm.result.outcome is RoundOutcome.REFUSED


def test_criterion_5_key_establishment():
    with criterion(5, "pairwise agreement, bijectivity, index secrecy", 5.0):
        # agreement on 10^3 random pairs
        for trial in range(1000):
            seed_rng = random.Random(trial)
            config = KeyBankConfig(20, 8)
            bank = KeyBank.generate(config, seed_rng)
            directory = KeyDirectory(bank)
            for sid in (1, 2):
                directory.provision_source(sid, seed_rng)
            exchange = directory.establish_pairwise_key(1, 2, 1, seed_rng)
            # each endpoint composes its own ordering with the one it received
            orderings = (exchange.initiator_perm, exchange.responder_perm)
            a_side, b_side = (
                pairwise_key_value(
                    directory.keyring(sid).source_bank, *orderings, exchange.index
                )
                for sid in (1, 2)
            )
            assert a_side == b_side == exchange.key.value
        # bijectivity on 10^3 draws
        rng = random.Random(7)
        for _ in range(1000):
            perm = Permutation.random(70, rng)
            assert sorted(perm.order) == list(range(70))
        # exhaustive index secrecy at bank size 5: a guesser without the
        # permutation identifies the key with probability exactly 1/5
        bank5 = (10, 20, 30, 40, 50)
        for index in range(1, 6):
            hits = sum(
                bank5[Permutation(order).slot(index)] == bank5[index - 1]
                for order in itertools.permutations(range(5))
            )
            assert hits * 5 == math.factorial(5)


def test_criterion_6_disclosure_formula_reproduction():
    with criterion(6, "formula values, monotone curves, Monte Carlo b^2", 30.0):
        assert abs(chain_disclosure_probability(0.1) - 0.19) < 1e-12
        cpda_point = disclosure_probability(
            DisclosureModel(b=0.1, min_cluster=3, max_cluster=3)
        )
        assert abs(cpda_point - 0.029701) < 1e-12
        grid = probability_grid(0.0, 1.0, 0.01)
        assert len(grid) == 101
        prev_cpda = prev_ours = -1.0
        for b in grid:
            cpda_val = disclosure_probability(
                DisclosureModel(b=b, min_cluster=3, max_cluster=3)
            )
            ours_val = chain_disclosure_probability(b)
            assert cpda_val >= prev_cpda and ours_val >= prev_ours
            prev_cpda, prev_ours = cpda_val, ours_val
            # the two-member specialization collapses to the chain value
            assert (
                disclosure_probability(
                    DisclosureModel(b=b, min_cluster=2, max_cluster=2)
                )
                == ours_val
            )
        # Monte Carlo: middle-node exposure frequency matches b^2 within 3 sigma
        transcript = run_scenario(
            ScenarioConfig(
                n_sources=3,
                modulus=2**16,
                values=(5, 9, 12),
                edge_prob=1.0,
                seed=42,
                total_keys=12,
                source_source_keys=4,
            )
        )
        target = transcript.result.visitation[1]
        trials = 100_000
        for b in (0.1, 0.3):
            rate = empirical_disclosure_rate(
                transcript, target, b, trials, random.Random(f"mc:{b}")
            )
            sigma = math.sqrt(b**2 * (1 - b**2) / trials)
            assert abs(rate - b**2) < 3 * sigma, f"b={b}: {rate} vs {b**2}"


def test_criterion_7_computation_shape_and_kernel_correctness():
    with criterion(7, "flat chain cost, growing cluster cost, kernel oracle", 30.0):
        for n in range(2, 51):
            assert benchmark_kernel("ours", n, repetitions=1).op_count == n + 1
        cluster_counts = [
            benchmark_kernel("cpda", m, repetitions=1).op_count for m in (3, 4, 5)
        ]
        assert cluster_counts[0] < cluster_counts[1] < cluster_counts[2]
        ours_bench = benchmark_kernel("ours", 5, repetitions=201, seed=1)
        cpda_bench = benchmark_kernel("cpda", 5, repetitions=201, seed=1)
        assert cpda_bench.wall_ns_median >= 5 * ours_bench.wall_ns_median, (
            f"cluster kernel only {cpda_bench.wall_ns_median}ns vs "
            f"chain {ours_bench.wall_ns_median}ns"
        )
        rng = random.Random(0xC7DA)
        for _ in range(1000):
            m = rng.randint(3, 5)
            bound = rng.choice([100, 10_000, 2**20])
            values = tuple(rng.randrange(bound) for _ in range(m))
            q = next_prime(bound * m)
            total = cluster_round(
                Cluster(values=values, seeds=default_seeds(m)), rng, q
            )
            assert total == sum(values)


def test_criterion_8_determinism():
    with criterion(8, "byte-identical replay, seed-sensitive initiator", 5.0):
        config = ScenarioConfig(
            n_sources=6,
            modulus=2**16,
            values=(1, 2, 3, 4, 5, 6),
            edge_prob=0.6,
            seed=123,
            rounds=2,
            total_keys=20,
            source_source_keys=8,
        )
        first = run_scenario(config)
        second = run_scenario(config)
        assert first.serialize() == second.serialize()
        base_initiator = first.results[0].initiator
        initiators = {
            run_scenario(replace(config, seed=123 + i)).results[0].initiator
            for i in range(1, 21)
        }
        assert any(i != base_initiator for i in initiators)
