"""Polynomial-shares cluster kernel: correctness, privacy sanity, benchmarks."""

import random

import pytest

from privagg.cpda import (
    Cluster,
    assemble_cluster_sum,
    bench_csv,
    benchmark_kernel,
    cluster_op_count,
    cluster_round,
    compute_shares,
    next_prime,
    share_row,
)
from privagg import cpda
from privagg.cpda import BENCH_CSV_HEADER, SingularSystemError, _solve_mod, default_seeds


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(14) == 17
    assert next_prime(2**16) == 65537


def test_share_row_constant_polynomial():
    # all coefficients zero: every share equals the value itself
    assert share_row(9, (0, 0), (1, 2, 3), 101) == (9, 9, 9)


def test_share_row_linear_polynomial():
    # zero value, single unit coefficient: shares are the seeds
    assert share_row(0, (1,), (1, 2, 3), 101) == (1, 2, 3)


def test_compute_shares_matches_direct_polynomial_evaluation():
    q = next_prime(10_000)
    seeds = (2, 5, 9, 11)
    rng = random.Random(8)
    for trial in range(50):
        x = rng.randrange(q)
        shares = compute_shares(x, seeds, random.Random(trial), q)
        mirror = random.Random(trial)
        coeffs = tuple(mirror.randrange(q) for _ in range(3))
        for s, share in zip(seeds, shares):
            expected = (x + sum(c * s ** (l + 1) for l, c in enumerate(coeffs))) % q
            assert share == expected


def test_assemble_recovers_cluster_sum():
    q = next_prime(1000)
    seeds = (1, 2, 3)
    rng = random.Random(3)
    matrix = [compute_shares(x, seeds, rng, q) for x in (4, 5, 6)]
    assert assemble_cluster_sum(matrix, seeds, q) == 15


def test_assemble_zero_values():
    q = next_prime(100)
    seeds = (1, 2, 3)
    rng = random.Random(4)
    matrix = [compute_shares(0, seeds, rng, q) for _ in range(3)]
    assert assemble_cluster_sum(matrix, seeds, q) == 0


def test_assemble_constant_shares():
    # all coefficients zero: every column sums to the cluster sum already
    q = next_prime(100)
    seeds = (1, 2, 3)
    matrix = [share_row(x, (0, 0), seeds, q) for x in (4, 5, 6)]
    column_sums = {sum(row[j] for row in matrix) % q for j in range(3)}
    assert column_sums == {15}
    assert assemble_cluster_sum(matrix, seeds, q) == 15


def test_cluster_round_random_instances():
    rng = random.Random(10)
    for _ in range(200):
        m = rng.randint(3, 5)
        bound = rng.choice([100, 10_000, 2**20])
        values = tuple(rng.randrange(bound) for _ in range(m))
        q = next_prime(bound * m)
        cluster = Cluster(values=values, seeds=default_seeds(m))
        assert cluster_round(cluster, rng, q) == sum(values)


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(values=(1, 2), seeds=(1, 2))  # below minimum size
    with pytest.raises(ValueError):
        Cluster(values=(1, 2, 3), seeds=(1, 2, 2))  # duplicate seed
    with pytest.raises(ValueError):
        Cluster(values=(1, 2, 3), seeds=(0, 1, 2))  # zero seed
    with pytest.raises(ValueError):
        Cluster(values=(1, 2, 3), seeds=(1, 2))  # seed count mismatch


def test_singular_system_detected():
    # duplicate seed rows make the system singular; the solver must say so
    with pytest.raises(SingularSystemError):
        _solve_mod([[1, 1], [1, 1]], [3, 4], 7)


def test_cluster_round_rejects_seeds_that_vanish_or_collide_mod_q():
    q = 11
    # a seed of 0 mod q hands every member's raw value to that seed's holder
    with pytest.raises(ValueError, match=f"seed {q} is congruent to 0 mod {q}"):
        cluster_round(Cluster((1, 2, 3), (1, 2, q)), random.Random(0), q)
    # distinct seeds that agree mod q make the Vandermonde solve singular
    with pytest.raises(ValueError, match=f"seed {q + 1} is congruent to 1 mod {q}"):
        cluster_round(Cluster((1, 2, 3), (1, 2, q + 1)), random.Random(0), q)


def test_single_column_consistent_with_every_value():
    # what one member receives pins nothing down: over a tiny field, every
    # candidate value admits the same number of coefficient explanations
    q = 7
    seeds = (1, 2, 3)
    rng = random.Random(6)
    shares = compute_shares(5, seeds, rng, q)
    for j, s in enumerate(seeds):
        observed = shares[j]
        counts = []
        for candidate in range(q):
            solutions = sum(
                (candidate + r1 * s + r2 * s * s) % q == observed
                for r1 in range(q)
                for r2 in range(q)
            )
            counts.append(solutions)
        assert counts == [q] * q


def test_cluster_op_count_closed_form():
    # Tallies of m = 3..11, counted operation by operation on an instrumented
    # copy of the kernel with default seeds.
    tallies = [117, 274, 530, 909, 1435, 2132, 3024, 4135, 5489]
    assert [cluster_op_count(m) for m in range(3, 12)] == tallies


def test_benchmark_chain_op_count_is_n_plus_one():
    for n in (1, 2, 7, 25, 50):
        result = benchmark_kernel("ours", n, repetitions=3)
        assert result.op_count == n + 1


def test_benchmark_cluster_op_count_increases():
    results = [benchmark_kernel("cpda", m, repetitions=3) for m in (3, 4, 5)]
    counts = [r.op_count for r in results]
    assert counts[0] < counts[1] < counts[2]


def test_benchmark_deterministic_op_count():
    a = benchmark_kernel("cpda", 4, repetitions=2, seed=0)
    b = benchmark_kernel("cpda", 4, repetitions=5, seed=9)
    assert a.op_count == b.op_count


def test_benchmark_rejects_wrong_kernel_sum(monkeypatch):
    monkeypatch.setattr(cpda, "_chain_kernel", lambda values, rng, modulus: -1)
    with pytest.raises(RuntimeError, match="chain kernel"):
        benchmark_kernel("ours", 3, repetitions=1)
    monkeypatch.setattr(cpda, "cluster_round", lambda cluster, rng, q: -1)
    with pytest.raises(RuntimeError, match="cluster kernel"):
        benchmark_kernel("cpda", 3, repetitions=1)


def test_benchmark_validation():
    with pytest.raises(ValueError):
        benchmark_kernel("ours", 5, repetitions=0)
    with pytest.raises(ValueError):
        benchmark_kernel("cpda", 2, repetitions=3)
    with pytest.raises(ValueError):
        benchmark_kernel("cpda", 6, repetitions=3)
    with pytest.raises(ValueError):
        benchmark_kernel("theirs", 3, repetitions=3)
    with pytest.raises(ValueError):
        benchmark_kernel("ours", 0, repetitions=3)


def test_bench_csv_schema():
    results = [
        benchmark_kernel("ours", 5, repetitions=3),
        benchmark_kernel("cpda", 5, repetitions=3),
    ]
    lines = bench_csv(results).strip().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 3
    ours = lines[1].split(",")
    assert ours[0] == "ours" and int(ours[2]) == 6
    assert int(ours[3]) >= 0 and int(ours[4]) == 3
