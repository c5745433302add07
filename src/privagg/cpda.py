"""Cluster aggregation kernel built on polynomial shares, plus benchmarks.

This reconstructs the computational core of the CPDA family of cluster-based
private aggregation schemes, for use as a timing and operation-count
baseline only.  Each cluster member i hides its value x_i as the constant
term of a random polynomial and hands member j the evaluation at j's public
seed:

    v_i_j = x_i + r_i_1 * s_j + ... + r_i_(m-1) * s_j**(m-1)   (mod q)

Member j sums its column of the exchanged share matrix, which yields the
evaluation of the summed polynomial at s_j.  Solving the resulting m-by-m
Vandermonde system recovers the summed constant term, i.e. the cluster sum,
while any single column stays consistent with every possible x_i.

Cluster formation, message transport, and encryption are out of scope; the
kernel exists so the flat per-node cost of the masked chain can be compared
against the superlinear per-member cost of the cluster computation.
Operation counts come from the kernel's closed form (``cluster_op_count``),
not from a tally taken while it runs.  They count modular multiplications
and additions; each inversion inside the solver counts as one
multiplication.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from functools import partial

from .masking import chain_add, mask_initial, unmask

BENCH_CSV_HEADER = "scheme,n_nodes,op_count,wall_ns_median,repetitions"

SCHEMES = ("ours", "cpda")

CPDA_MIN_CLUSTER = 3
CPDA_MAX_CLUSTER = 5

DEFAULT_VALUE_BOUND = 2**16


class SingularSystemError(Exception):
    """The share system had no unique solution: two seeds are congruent mod q."""


@dataclass(frozen=True)
class Cluster:
    """One aggregation cluster: member values and their public seeds."""

    values: tuple[int, ...]
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) < CPDA_MIN_CLUSTER:
            raise ValueError(
                f"cluster needs at least {CPDA_MIN_CLUSTER} members"
            )
        if len(self.seeds) != len(self.values):
            raise ValueError("need one seed per member")
        if len(set(self.seeds)) != len(self.seeds) or 0 in self.seeds:
            raise ValueError("seeds must be pairwise distinct and nonzero")


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n (trial division)."""
    candidate = max(n + 1, 2)
    while any(candidate % d == 0 for d in range(2, math.isqrt(candidate) + 1)):
        candidate += 1
    return candidate


def default_seeds(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1))


def share_row(
    x: int, coeffs: tuple[int, ...], seeds: tuple[int, ...], q: int
) -> tuple[int, ...]:
    """Evaluate member's share polynomial at every seed.

    ``coeffs`` are the random degree-1..m-1 coefficients; the constant term
    is the private value x.  A seed that is 0 mod q would hand out x itself,
    and two seeds congruent mod q would make the solve singular, so both are
    rejected by name.
    """
    if not 0 <= x < q:
        raise ValueError(f"value {x} outside [0, {q})")
    seen = {0: 0}
    for s in seeds:
        if s % q in seen:
            raise ValueError(f"seed {s} is congruent to {seen[s % q]} mod {q}")
        seen[s % q] = s
    row = []
    for s in seeds:
        acc = x
        power = 1
        for c in coeffs:
            power = power * s % q
            acc = (acc + c * power) % q
        row.append(acc)
    return tuple(row)


def compute_shares(
    x: int, seeds: tuple[int, ...], rng: random.Random, q: int
) -> tuple[int, ...]:
    """Draw fresh random coefficients and emit the member's share row."""
    coeffs = tuple(rng.randrange(q) for _ in range(len(seeds) - 1))
    return share_row(x, coeffs, seeds, q)


def _solve_mod(matrix: list[list[int]], rhs: list[int], q: int) -> list[int]:
    """Gaussian elimination over the field of integers mod prime q.

    Zero factors are multiplied through rather than skipped, so the work
    depends only on the dimension, never on the values; that is what lets
    ``cluster_op_count`` give the solve's cost as a closed form.
    """
    m = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] % q != 0), None)
        if pivot is None:
            raise SingularSystemError("share system is singular")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], q - 2, q)
        for j in range(col, m + 1):
            a[col][j] = a[col][j] * inv % q
        for r in range(m):
            if r == col:
                continue
            factor = a[r][col]
            for j in range(col, m + 1):
                a[r][j] = (a[r][j] - factor * a[col][j]) % q
    return [a[i][m] for i in range(m)]


def assemble_cluster_sum(
    share_matrix: list[tuple[int, ...]], seeds: tuple[int, ...], q: int
) -> int:
    """Column-sum the exchanged shares and solve for the summed constant term.

    ``share_matrix[i][j]`` is the value member i computed for member j.
    """
    m = len(seeds)
    if len(share_matrix) != m or any(len(row) != m for row in share_matrix):
        raise ValueError("share matrix must be m x m")
    column_sums = []
    for j in range(m):
        acc = 0
        for i in range(m):
            acc = (acc + share_matrix[i][j]) % q
        column_sums.append(acc)
    vandermonde = []
    for s in seeds:
        row = [1]
        for _ in range(m - 1):
            row.append(row[-1] * s % q)
        vandermonde.append(row)
    solution = _solve_mod(vandermonde, column_sums, q)
    return solution[0]


def cluster_round(cluster: Cluster, rng: random.Random, q: int) -> int:
    """Full kernel for one cluster: share, exchange, assemble."""
    matrix = [compute_shares(x, cluster.seeds, rng, q) for x in cluster.values]
    return assemble_cluster_sum(matrix, cluster.seeds, q)


def cluster_op_count(m: int) -> int:
    """Modular operations in one ``cluster_round`` of m members.

    The closed form ``4m**3 + 3m(m-1)/2`` is the sum of four steps:

    - share: each of m members evaluates m-1 coefficients at m seeds, one
      power step, one product and one sum each: ``3m**2 (m-1)``;
    - sum the columns: ``m**2`` additions;
    - build the Vandermonde rows: m-1 powers per seed, ``m (m-1)``;
    - solve: per column one inversion (counted as one multiplication) and
      ``m + 1 - col`` normalising multiplications, then ``m + 1 - col``
      multiply-subtracts in each of the other m-1 rows, which sums to
      ``m + (2m-1)(m**2 + 3m)/2``.
    """
    return 4 * m**3 + 3 * m * (m - 1) // 2


def _chain_kernel(
    values: tuple[int, ...], rng: random.Random, modulus: int
) -> int:
    """Masked-chain kernel; returns the sum.

    Every call into the masking core is exactly one modular addition, so the
    kernel costs n + 1 of them: n folds plus one unmask.
    """
    mask = rng.randrange(modulus)
    running = mask_initial(values[0], mask, modulus)
    for x in values[1:]:
        running = chain_add(running, x, modulus)
    return unmask(running, mask, modulus)


@dataclass(frozen=True)
class BenchResult:
    scheme: str
    n_nodes: int
    op_count: int
    wall_ns_median: int
    repetitions: int

    def csv_row(self) -> str:
        return (
            f"{self.scheme},{self.n_nodes},{self.op_count},"
            f"{self.wall_ns_median},{self.repetitions}"
        )


def benchmark_kernel(
    scheme: str,
    n_nodes: int,
    repetitions: int,
    seed: int = 0,
    value_bound: int = DEFAULT_VALUE_BOUND,
) -> BenchResult:
    """Time the pure per-round kernel and give its modular operation count.

    The chain kernel costs exactly n+1 modular additions regardless of
    topology; the cluster kernel's cost grows superlinearly in the cluster
    size, which is why the comparison caps it at five members.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if scheme == "ours":
        if n_nodes < 1:
            raise ValueError("chain kernel needs at least one node")
    else:
        if not CPDA_MIN_CLUSTER <= n_nodes <= CPDA_MAX_CLUSTER:
            raise ValueError(
                f"cluster kernel supports {CPDA_MIN_CLUSTER}..{CPDA_MAX_CLUSTER} members"
            )
    values_rng = random.Random(f"{seed}:values")
    values = tuple(values_rng.randrange(value_bound) for _ in range(n_nodes))
    if scheme == "ours":
        name = "chain"
        kernel = partial(_chain_kernel, values, modulus=value_bound * n_nodes)
        expected, op_count = sum(values), n_nodes + 1
    else:
        name = "cluster"
        q = next_prime(value_bound * n_nodes)
        cluster = Cluster(values=values, seeds=default_seeds(n_nodes))
        kernel = partial(cluster_round, cluster, q=q)
        expected, op_count = sum(values) % q, cluster_op_count(n_nodes)
    timings = []
    for rep in range(repetitions):
        rng = random.Random(f"{seed}:rep:{rep}")
        start = time.perf_counter_ns()
        total = kernel(rng)
        timings.append(time.perf_counter_ns() - start)
        if total != expected:
            raise RuntimeError(f"{name} kernel sum {total} != {expected}")
    return BenchResult(
        scheme=scheme,
        n_nodes=n_nodes,
        op_count=op_count,
        wall_ns_median=int(statistics.median(timings)),
        repetitions=repetitions,
    )


def bench_csv(results: list[BenchResult]) -> str:
    lines = [BENCH_CSV_HEADER]
    lines.extend(result.csv_row() for result in results)
    return "\n".join(lines) + "\n"
