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
Operation counts tally modular multiplications and additions; modular
inversions inside the solver are tallied as single multiplications.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from .masking import chain_add, mask_initial, unmask

BENCH_CSV_HEADER = "scheme,n_nodes,op_count,wall_ns_median,repetitions"

SCHEMES = ("ours", "cpda")

CPDA_MIN_CLUSTER = 3
CPDA_MAX_CLUSTER = 5

DEFAULT_VALUE_BOUND = 2**16


class SingularSystemError(Exception):
    """The share system had no unique solution (impossible for distinct seeds)."""


@dataclass
class OpCounter:
    """Tally of modular additions and multiplications."""

    adds: int = 0
    muls: int = 0

    @property
    def total(self) -> int:
        return self.adds + self.muls


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
    while True:
        if candidate % 2 == 0 and candidate != 2:
            candidate += 1
            continue
        i = 3
        is_prime = candidate == 2 or candidate % 2 != 0
        while is_prime and i * i <= candidate:
            if candidate % i == 0:
                is_prime = False
            i += 2
        if is_prime:
            return candidate
        candidate += 1


def default_seeds(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1))


def share_row(
    x: int,
    coeffs: tuple[int, ...],
    seeds: tuple[int, ...],
    q: int,
    ops: OpCounter | None = None,
) -> tuple[int, ...]:
    """Evaluate member's share polynomial at every seed.

    ``coeffs`` are the random degree-1..m-1 coefficients; the constant term
    is the private value x.
    """
    if not 0 <= x < q:
        raise ValueError(f"value {x} outside [0, {q})")
    row = []
    for s in seeds:
        acc = x % q
        power = 1
        for c in coeffs:
            power = power * s % q
            acc = (acc + c * power) % q
            if ops is not None:
                ops.muls += 2
                ops.adds += 1
        row.append(acc)
    return tuple(row)


def compute_shares(
    x: int,
    seeds: tuple[int, ...],
    rng: random.Random,
    q: int,
    ops: OpCounter | None = None,
) -> tuple[int, ...]:
    """Draw fresh random coefficients and emit the member's share row."""
    coeffs = tuple(rng.randrange(q) for _ in range(len(seeds) - 1))
    return share_row(x, coeffs, seeds, q, ops)


def _solve_mod(
    matrix: list[list[int]], rhs: list[int], q: int, ops: OpCounter | None
) -> list[int]:
    """Gaussian elimination over the field of integers mod prime q.

    Elimination work is constant for a given system size (zero factors are
    multiplied through rather than skipped) so the operation count depends
    only on the dimension, never on the values.
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
        if ops is not None:
            ops.muls += 1  # inversion tallied as one multiplication
        for j in range(col, m + 1):
            a[col][j] = a[col][j] * inv % q
            if ops is not None:
                ops.muls += 1
        for r in range(m):
            if r == col:
                continue
            factor = a[r][col]
            for j in range(col, m + 1):
                a[r][j] = (a[r][j] - factor * a[col][j]) % q
                if ops is not None:
                    ops.muls += 1
                    ops.adds += 1
    return [a[i][m] for i in range(m)]


def assemble_cluster_sum(
    share_matrix: list[tuple[int, ...]],
    seeds: tuple[int, ...],
    q: int,
    ops: OpCounter | None = None,
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
            if ops is not None:
                ops.adds += 1
        column_sums.append(acc)
    vandermonde = []
    for s in seeds:
        row = [1]
        for _ in range(m - 1):
            row.append(row[-1] * s % q)
            if ops is not None:
                ops.muls += 1
        vandermonde.append(row)
    solution = _solve_mod(vandermonde, column_sums, q, ops)
    return solution[0]


def cluster_round(
    cluster: Cluster,
    rng: random.Random,
    q: int,
    ops: OpCounter | None = None,
) -> int:
    """Full kernel for one cluster: share, exchange, assemble."""
    matrix = [
        compute_shares(x, cluster.seeds, rng, q, ops) for x in cluster.values
    ]
    return assemble_cluster_sum(matrix, cluster.seeds, q, ops)


def _chain_kernel(
    values: tuple[int, ...], rng: random.Random, modulus: int
) -> tuple[int, int]:
    """Masked-chain kernel; returns (sum, op count).

    Every call into the masking core is exactly one modular addition, so the
    count is the number of calls: n folds plus one unmask.
    """
    mask = rng.randrange(modulus)
    running = mask_initial(values[0], mask, modulus)
    for x in values[1:]:
        running = chain_add(running, x, modulus)
    return unmask(running, mask, modulus), len(values) + 1


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
    """Time the pure per-round kernel and count its modular operations.

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
    timings = []
    op_count = 0
    if scheme == "ours":
        modulus = value_bound * n_nodes
        expected = sum(values)
        for rep in range(repetitions):
            rng = random.Random(f"{seed}:rep:{rep}")
            start = time.perf_counter_ns()
            total, op_count = _chain_kernel(values, rng, modulus)
            timings.append(time.perf_counter_ns() - start)
            if total != expected:
                raise RuntimeError(f"chain kernel sum {total} != {expected}")
    else:
        q = next_prime(value_bound * n_nodes)
        cluster = Cluster(values=values, seeds=default_seeds(n_nodes))
        expected = sum(values) % q
        ops = OpCounter()
        cluster_round(cluster, random.Random(f"{seed}:ops"), q, ops)
        op_count = ops.total
        for rep in range(repetitions):
            rng = random.Random(f"{seed}:rep:{rep}")
            start = time.perf_counter_ns()
            total = cluster_round(cluster, rng, q)
            timings.append(time.perf_counter_ns() - start)
            if total != expected:
                raise RuntimeError(f"cluster kernel sum {total} != {expected}")
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
