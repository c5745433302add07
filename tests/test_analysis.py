"""Disclosure formula evaluation, curve sweeps, Monte Carlo cross-check."""

import math

import pytest

from privagg.analysis import (
    CurvePoint,
    DisclosureModel,
    chain_disclosure_probability,
    curve_csv,
    disclosure_probability,
    probability_grid,
    sweep_curve,
)
from privagg.analysis import CURVE_CSV_HEADER, ModelError


def cluster_point_mass(size, b=0.0):
    return DisclosureModel(b=b, min_cluster=size, max_cluster=size)


def test_formula_boundary_values():
    model = DisclosureModel(b=0.0, min_cluster=3, max_cluster=6)
    assert disclosure_probability(model) == 0.0
    model = DisclosureModel(b=1.0, min_cluster=3, max_cluster=6)
    assert disclosure_probability(model) == pytest.approx(1.0, abs=1e-12)


def test_formula_cluster_size_three():
    # 1 - (1 - 0.1**2)**3 = 0.029701
    value = disclosure_probability(cluster_point_mass(3, b=0.1))
    assert abs(value - 0.029701) < 1e-12


def test_chain_formula_values():
    assert chain_disclosure_probability(0.0) == 0.0
    assert chain_disclosure_probability(1.0) == 1.0
    assert abs(chain_disclosure_probability(0.1) - 0.19) < 1e-12


def test_chain_formula_rejects_out_of_range():
    with pytest.raises(ModelError):
        chain_disclosure_probability(-0.1)
    with pytest.raises(ModelError):
        chain_disclosure_probability(1.1)


def test_sweep_ours_column_on_coarse_grid():
    points = sweep_curve(cluster_point_mass(3), [0.0, 0.5, 1.0])
    assert [pt.p_ours_formula for pt in points] == [0.0, 0.75, 1.0]


def test_curves_monotone_on_dense_grid():
    grid = probability_grid(0.0, 1.0, 0.01)
    assert len(grid) == 101
    points = sweep_curve(
        DisclosureModel(b=0.0, min_cluster=3, max_cluster=6), grid
    )
    for prev, cur in zip(points, points[1:]):
        assert cur.p_cpda_formula >= prev.p_cpda_formula
        assert cur.p_ours_formula >= prev.p_ours_formula
        assert 0.0 <= cur.p_cpda_formula <= 1.0
        assert 0.0 <= cur.p_ours_formula <= 1.0


def test_pair_specialization_matches_chain_formula_exactly():
    grid = probability_grid(0.0, 1.0, 0.01)
    for b in grid:
        model = DisclosureModel(b=b, min_cluster=2, max_cluster=2)
        assert disclosure_probability(model) == chain_disclosure_probability(b)


def test_custom_cluster_distribution():
    model = DisclosureModel(
        b=0.2, min_cluster=3, max_cluster=5, cluster_dist=(0.5, 0.25, 0.25)
    )
    expected = (
        0.5 * (1 - (1 - 0.2**2) ** 3)
        + 0.25 * (1 - (1 - 0.2**3) ** 4)
        + 0.25 * (1 - (1 - 0.2**4) ** 5)
    )
    assert disclosure_probability(model) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(b=-0.1, min_cluster=3, max_cluster=3),
        dict(b=2.0, min_cluster=3, max_cluster=3),
        dict(b=0.1, min_cluster=1, max_cluster=3),
        dict(b=0.1, min_cluster=4, max_cluster=3),
        dict(b=0.1, min_cluster=3, max_cluster=4, cluster_dist=(1.0,)),
        dict(b=0.1, min_cluster=3, max_cluster=4, cluster_dist=(0.9, 0.2)),
        dict(b=0.1, min_cluster=3, max_cluster=4, cluster_dist=(1.1, -0.1)),
    ],
)
def test_invalid_models_rejected(kwargs):
    with pytest.raises(ModelError):
        disclosure_probability(DisclosureModel(**kwargs))


@pytest.mark.parametrize(
    "masses", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.0), (-math.inf, 1.0)]
)
def test_non_finite_cluster_mass_rejected(masses):
    model = DisclosureModel(b=0.1, min_cluster=3, max_cluster=4, cluster_dist=masses)
    with pytest.raises(ModelError, match="cluster_dist"):
        disclosure_probability(model)


def test_uniform_distribution_masses_sum_to_one():
    model = DisclosureModel(b=0.3, min_cluster=3, max_cluster=7)
    total = sum(model.mass(m) for m in range(3, 8))
    assert abs(total - 1.0) < 1e-12


def test_probability_grid_default_spacing():
    grid = probability_grid(0.0, 1.0, 0.05)
    assert len(grid) == 21
    assert grid[0] == 0.0 and grid[-1] == 1.0
    with pytest.raises(ModelError):
        probability_grid(0.0, 1.0, 0.0)
    with pytest.raises(ModelError):
        probability_grid(-0.5, 1.0, 0.1)


# 1e-6 asks for exactly one point too many; 5e-324 overflows the division.
@pytest.mark.parametrize("step", [1e-12, 1e-6, 5e-324])
def test_probability_grid_rejects_more_than_a_million_points(step):
    with pytest.raises(ModelError, match=f"grid step {step!r} gives more than"):
        probability_grid(0.0, 1.0, step)


def test_sweep_with_trials_populates_empirical_column():
    points = sweep_curve(cluster_point_mass(3), [0.1, 0.3], trials=20_000, seed=4)
    for pt in points:
        assert pt.trials == 20_000
        sigma = math.sqrt(pt.b**2 * (1 - pt.b**2) / pt.trials)
        assert abs(pt.p_ours_empirical - pt.b**2) < 3 * sigma


def test_curve_csv_schema():
    points = sweep_curve(cluster_point_mass(3), [0.0, 0.1])
    text = curve_csv(points)
    lines = text.strip().splitlines()
    assert lines[0] == CURVE_CSV_HEADER
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert len(fields) == 5
    assert float(fields[0]) == 0.1
    assert abs(float(fields[2]) - 0.19) < 1e-12
    assert fields[3] == "" and fields[4] == ""


def test_curve_point_shape():
    pt = CurvePoint(b=0.1, p_cpda_formula=0.03, p_ours_formula=0.19)
    assert pt.p_ours_empirical is None and pt.trials is None
