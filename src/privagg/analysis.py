"""Disclosure-probability curves: cluster formula, chain value, Monte Carlo.

For a cluster-based aggregation scheme whose clusters have size k between a
minimum and maximum, the probability that some member's private data is
exposed when each link is broken independently with probability b is

    P(b) = sum over m of  P(k = m) * (1 - (1 - b**(m-1)) ** m)

with P(k = m) the cluster-size mass function.  The chained scheme in this
package exchanges masked values strictly pairwise, which corresponds to the
m = 2 instantiation with unit mass: P(b) = 1 - (1 - b)**2.

Evaluating the formula as given makes the m = 2 curve lie *above* small-m
cluster curves at low b (0.19 versus 0.029701 at b = 0.1 for clusters fixed
at size 3), so no ordering between the two columns is asserted anywhere;
both are emitted side by side.  The empirical column reported next to them
is a different, precisely defined event: the simulator's middle-node
exposure under per-link compromise, which for two distinct incident links
occurs with probability b².  It validates the simulator, not the formula.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .adversary import empirical_disclosure_rate
from .simnet import ScenarioConfig, Transcript, run_scenario

CURVE_CSV_HEADER = "b,p_cpda_formula,p_ours_formula,p_ours_empirical,trials"

_MASS_TOLERANCE = 1e-12

MAX_GRID_POINTS = 10**6


class ModelError(ValueError):
    """Disclosure model failed validation."""


@dataclass(frozen=True)
class DisclosureModel:
    """Link-break probability plus a cluster-size distribution.

    ``cluster_dist[i]`` is the mass of cluster size ``min_cluster + i``;
    None means uniform over the size range.
    """

    b: float
    min_cluster: int
    max_cluster: int
    cluster_dist: tuple[float, ...] | None = None

    def validate(self) -> None:
        if not 0.0 <= self.b <= 1.0:
            raise ModelError(f"b must be in [0, 1], got {self.b}")
        if self.min_cluster < 2:
            raise ModelError("minimum cluster size must be >= 2")
        if self.max_cluster < self.min_cluster:
            raise ModelError("maximum cluster size below minimum")
        if self.cluster_dist is not None:
            count = self.max_cluster - self.min_cluster + 1
            if len(self.cluster_dist) != count:
                raise ModelError(
                    f"cluster_dist needs {count} masses, got {len(self.cluster_dist)}"
                )
            if not all(math.isfinite(m) and m >= 0.0 for m in self.cluster_dist):
                raise ModelError("cluster_dist masses must be finite and >= 0")
            if abs(sum(self.cluster_dist) - 1.0) > _MASS_TOLERANCE:
                raise ModelError("cluster_dist masses must sum to 1")

    def mass(self, m: int) -> float:
        if not self.min_cluster <= m <= self.max_cluster:
            return 0.0
        if self.cluster_dist is None:
            return 1.0 / (self.max_cluster - self.min_cluster + 1)
        return self.cluster_dist[m - self.min_cluster]


def disclosure_probability(model: DisclosureModel) -> float:
    """Evaluate the cluster disclosure formula for the given model."""
    model.validate()
    total = 0.0
    for m in range(model.min_cluster, model.max_cluster + 1):
        total += model.mass(m) * (1.0 - (1.0 - model.b ** (m - 1)) ** m)
    return total


def chain_disclosure_probability(b: float) -> float:
    """Disclosure probability of the pairwise masked chain: 1 - (1 - b)**2."""
    if not 0.0 <= b <= 1.0:
        raise ModelError(f"b must be in [0, 1], got {b}")
    return 1.0 - (1.0 - b) ** 2


@dataclass(frozen=True)
class CurvePoint:
    """One row of the comparison curve."""

    b: float
    p_cpda_formula: float
    p_ours_formula: float
    p_ours_empirical: float | None = None
    trials: int | None = None


def probability_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive grid of b values; endpoints must stay within [0, 1], and
    the grid may hold at most ``MAX_GRID_POINTS`` points."""
    if not step > 0:  # also rejects NaN
        raise ModelError("grid step must be positive")
    if math.isinf(step):  # 0 * inf is NaN, which would drop every point
        raise ModelError("grid step must be positive and finite")
    if not (0.0 <= start <= stop <= 1.0):
        raise ModelError("grid endpoints must satisfy 0 <= start <= stop <= 1")
    span = (stop - start) / step  # inf when a tiny step overflows the division
    if math.isinf(span) or round(span) >= MAX_GRID_POINTS:
        raise ModelError(
            f"grid step {step!r} gives more than {MAX_GRID_POINTS} points"
        )
    count = round(span) + 1
    grid = [round(start + i * step, 12) for i in range(count)]
    return [b for b in grid if b <= stop + 1e-12]


def _reference_transcript(seed: int) -> tuple[Transcript, int]:
    """A fixed three-node direct-mode round and its middle visited node."""
    config = ScenarioConfig(
        n_sources=3,
        modulus=2**16,
        values=(5, 9, 12),
        edge_prob=1.0,
        seed=seed,
        total_keys=20,
        source_source_keys=8,
    )
    transcript = run_scenario(config)
    return transcript, transcript.result.visitation[1]


def sweep_curve(
    model: DisclosureModel,
    grid: list[float],
    trials: int | None = None,
    seed: int = 0,
) -> list[CurvePoint]:
    """Formula values over a grid, optionally with Monte Carlo validation.

    When ``trials`` is given, each grid point also carries the empirical
    middle-node exposure frequency under per-link compromise of a reference
    chain round, sub-seeded per point so results are order independent.
    """
    for b in grid:
        if not 0.0 <= b <= 1.0:
            raise ModelError(f"grid value {b} outside [0, 1]")
    transcript = target = None
    if trials is not None:
        if trials < 1:
            raise ModelError("trials must be >= 1")
        transcript, target = _reference_transcript(seed)
    points = []
    for i, b in enumerate(grid):
        empirical = None
        if trials is not None:
            empirical = empirical_disclosure_rate(
                transcript,
                target,
                b,
                trials,
                random.Random(f"{seed}:mc:{i}"),
            )
        points.append(
            CurvePoint(
                b=b,
                p_cpda_formula=disclosure_probability(replace(model, b=b)),
                p_ours_formula=chain_disclosure_probability(b),
                p_ours_empirical=empirical,
                trials=trials,
            )
        )
    return points


def curve_csv(points: list[CurvePoint]) -> str:
    """Render curve points with the stable comparison-curve header."""
    lines = [CURVE_CSV_HEADER]
    for pt in points:
        empirical = "" if pt.p_ours_empirical is None else repr(pt.p_ours_empirical)
        trials = "" if pt.trials is None else str(pt.trials)
        lines.append(
            f"{pt.b!r},{pt.p_cpda_formula!r},{pt.p_ours_formula!r},"
            f"{empirical},{trials}"
        )
    return "\n".join(lines) + "\n"
