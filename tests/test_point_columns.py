"""Point sets as int64 numerator columns.

The oracles are per-point code: cells and ball counts from each point's
DyadicRational coordinates, the duplicate scan over point keys, and the
bound check of one DyadicPoint per row, as a point set worked before it
held columns.
"""
from __future__ import annotations

import json
from fractions import Fraction

import hypothesis as hyp
import hypothesis.strategies as hys
import numpy as np
import pytest

from tubelab import cli
from tubelab.core_grid import GRID_CAP, DyadicPoint, DyadicRational, PointSet, Scale, cell_numbers, covering_number
from tubelab.delta_sets import DeltaSetParams, validate
from tubelab.errors import DomainError, DyadicOverflowError, ValidationError
from tubelab.generators import cantor_grid, cantor_line_indices, furstenberg_product, grid


def _coords(max_exp: int):
    return hys.integers(min_value=0, max_value=max_exp).flatmap(
        lambda e: hys.builds(DyadicRational, hys.integers(min_value=-(4 << e), max_value=4 << e), hys.just(e))
    )


def _point_lists(max_exp: int, max_size: int = 24):
    """Distinct points with signed coordinates on mixed exponents."""
    points = hys.builds(DyadicPoint, _coords(max_exp), _coords(max_exp))
    return hys.lists(points, min_size=1, max_size=max_size, unique=True)


def _cells_oracle(points, k: int) -> list[tuple[int, int]]:
    return [(p.x.floor_to_int(k), p.y.floor_to_int(k)) for p in points]


def _duplicate_oracle(points) -> DyadicPoint | None:
    """The point the per-point scan named: the first one seen before."""
    seen = set()
    for p in points:
        if p in seen:
            return p
        seen.add(p)
    return None


def _ball_oracle(points, params: DeltaSetParams) -> dict:
    """validate's report in Fraction arithmetic, one point pair at a time."""
    k = params.scale.k
    exact = [(Fraction(p.x.num, 1 << p.x.exp), Fraction(p.y.num, 1 << p.y.exp)) for p in points]
    d2 = [[(a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 for b in exact] for a in exact]

    def pair(p: DyadicPoint) -> list[list[int]]:
        return [p.x.pair(), p.y.pair()]

    eff = params.C * 2.0**params.s
    base = {"k": k, "s": params.s, "C": params.C, "effective_constant": eff}
    delta2 = Fraction(1, 1 << 2 * k)
    for i, row in enumerate(d2):
        close = [j for j, d in enumerate(row) if j != i and d < delta2]
        if close:
            witness = {"pair": [pair(points[i]), pair(points[close[0]])]}
            return {**base, "valid": False, "kind": "separation", "worst_ratio": float("inf"), "witness": witness}
    worst, witness = 0.0, {}
    for t in range(k + 1):
        r2, allowed = Fraction(1, 1 << 2 * (k - t)), params.C * (2.0 ** (t * params.s))
        for i, row in enumerate(d2):
            count = sum(d < r2 for d in row)
            if count / allowed > worst:
                worst = count / allowed
                witness = {"center": pair(points[i]), "radius_k": k - t, "count": count, "allowed": allowed}
    valid = worst <= 1.0
    return {**base, "valid": valid, "kind": "ok" if valid else "ball", "worst_ratio": worst, "witness": witness}


@hyp.given(hys.sampled_from([2, 12]).flatmap(_point_lists), hys.integers(min_value=0, max_value=12))
def test_cells_and_covering_numbers_match_the_per_point_floors(points, k):
    # points on coarse grids share cells at every k
    ps = PointSet(Scale(12), points)
    cells = _cells_oracle(points, k)
    numbers, count = cell_numbers(ps, k)
    assert count == covering_number(ps, Scale(k)) == len(set(cells))
    # one number per cell, and the numbers follow the cells' order
    assert sorted(set(zip(cells, numbers.tolist()))) == sorted(zip(sorted(set(cells)), range(count)))


@hyp.settings(max_examples=60)
@hyp.given(
    _point_lists(7, 12),
    hys.integers(min_value=1, max_value=6),
    hys.sampled_from([0.5, 1.0, 2.0]),
    hys.sampled_from([1.0, 2.0, 6.0]),
)
def test_ball_counts_and_witnesses_match_the_per_point_oracle(points, k, s, C):
    params = DeltaSetParams(Scale(k), s, C)
    assert validate(PointSet(Scale(k), points), params).to_json() == _ball_oracle(points, params)


@hyp.given(_point_lists(20))
def test_columns_round_trip_and_compare_by_value(points):
    ps = PointSet(Scale(20), points)
    assert ps.m == max(max(p.x.exp, p.y.exp) for p in points)
    assert ps.points == tuple(points) and list(ps) == points and len(ps) == len(points)
    for column, coord in ((ps.x, "x"), (ps.y, "y")):
        assert column.dtype == np.int64 and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0
        exact = [getattr(p, coord) for p in points]
        assert [Fraction(int(v), 1 << ps.m) for v in column] == [Fraction(v.num, 1 << v.exp) for v in exact]
    again = PointSet.from_json(json.loads(json.dumps(ps.to_json())))
    assert again == ps and again.points == ps.points
    # columns on a finer grid than needed come down to the largest exponent
    lifted = PointSet.from_columns(Scale(20), ps.x << 3, ps.y << 3, ps.m + 3)
    assert lifted == ps and lifted.m == ps.m and lifted.points == ps.points
    assert ps != PointSet(Scale(19), points) and ps != "points" and ps != None  # noqa: E711
    if len(points) > 1:
        assert ps != PointSet(Scale(20), points[::-1])


def test_from_columns_copies_and_reads_its_columns_only():
    x, y = np.array([0, 2, 4]), np.array([6, 4, 2])
    ps = PointSet.from_columns(Scale(3), x, y, 3)
    assert (ps.m, ps.x.tolist(), ps.y.tolist()) == (2, [0, 1, 2], [3, 2, 1])
    assert x.flags.writeable and "points" not in ps.__dict__
    zeros = PointSet.from_columns(Scale(3), [0], [0], 3)
    assert zeros.m == 0 and zeros.points == (DyadicPoint.of(0, 0, 0, 0),)
    empty = PointSet.from_columns(Scale(3), [], [], 3)
    assert len(empty) == 0 and empty.points == () and empty == PointSet(Scale(3), ())


@hyp.given(_point_lists(10, 12), hys.data())
def test_duplicate_names_the_point_the_per_point_scan_named(points, data):
    repeats = data.draw(hys.lists(hys.sampled_from(points), min_size=1, max_size=4))
    order = data.draw(hys.permutations(points + repeats))
    expected = _duplicate_oracle(order)
    with pytest.raises(ValidationError) as given:
        PointSet(Scale(10), order)
    assert str(given.value) == f"duplicate point {expected}"
    x, y = ([v.num << (10 - v.exp) for v in coords] for coords in zip(*((p.x, p.y) for p in order)))
    with pytest.raises(ValidationError) as from_columns:
        PointSet.from_columns(Scale(10), x, y, 10)
    assert str(from_columns.value) == str(given.value)


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([(0, 0), (33, 1)], (33, 3, 0, 3)),  # x = 33/8 > 4
        ([(0, 0), (1, 1), (-33, 0)], (-33, 3, 0, 3)),
        ([(0, 33), (0, -33)], (0, 3, 33, 3)),  # the first bad row, its y
        ([(33, 33)], (33, 3, 33, 3)),  # x before y
    ],
)
def test_columns_past_the_bound_raise_the_per_row_error(rows, bad):
    with pytest.raises(DomainError) as expected:
        DyadicPoint.of(*bad)
    x, y = zip(*rows)
    with pytest.raises(DomainError) as given:
        PointSet.from_columns(Scale(3), x, y, 3)
    assert str(given.value) == str(expected.value)


def test_points_finer_than_the_int64_grid_are_refused():
    at_cap = DyadicPoint.of(1, GRID_CAP, -((4 << GRID_CAP) - 1), GRID_CAP)
    ps = PointSet(Scale(4), (at_cap, DyadicPoint.of(0, 0, 0, 0)))
    assert ps.m == GRID_CAP == 60 and ps.points[0] == at_cap
    with pytest.raises(DyadicOverflowError, match="2\\^-60 grid or coarser, got 2\\^-61"):
        PointSet(Scale(4), (DyadicPoint.of(1, GRID_CAP + 1, 0, 0),))
    with pytest.raises(DyadicOverflowError, match="got 2\\^-61"):
        PointSet.from_columns(Scale(4), [1], [0], GRID_CAP + 1)
    # a column whose numerators are all even is on the coarser grid
    assert PointSet.from_columns(Scale(4), [2], [0], GRID_CAP + 1).m == GRID_CAP


@pytest.mark.parametrize("command", ["validate", "incidence", "dichotomy"])
def test_the_cli_refuses_points_past_the_grid_with_exit_2(tmp_path, capsys, command):
    cfg = furstenberg_product(4, 0.5).to_json()
    cfg["points"][-1] = [1, GRID_CAP + 1, 1, 0]
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "2^-60 grid or coarser, got 2^-61" in err


def _per_point(k: int, cells) -> PointSet:
    """The generators' point sets as they were built: one DyadicPoint per cell."""
    return PointSet(Scale(k), tuple(DyadicPoint(DyadicRational(i, k), DyadicRational(j, k)) for i, j in cells))


def _masked_cells(k: int, quads) -> list[tuple[int, int]]:
    cells = [(0, 0)]
    for _ in range(k):
        cells = [(2 * cx + dx, 2 * cy + dy) for cx, cy in cells for dx, dy in quads]
    return sorted(cells)


def _product_cells(k: int) -> list[tuple[int, int]]:
    line = cantor_line_indices(k, 0.5)
    return [(i, j) for i in line for j in line]


@pytest.mark.parametrize(
    "build, oracle",
    [
        (lambda: grid(3), lambda: _per_point(3, [(i, j) for i in range(8) for j in range(8)])),
        (lambda: grid(0), lambda: _per_point(0, [(0, 0)])),
        (lambda: cantor_grid(6, 0.5), lambda: _per_point(6, _product_cells(6))),
        (lambda: cantor_grid(4, 0.1), lambda: _per_point(4, [(0, 0)])),
        (lambda: cantor_grid(4, 0.5, [[1, 1], [0, 0]]), lambda: _per_point(4, _masked_cells(4, [(0, 0), (1, 1)]))),
        (lambda: furstenberg_product(6, 0.5).points, lambda: _per_point(6, _product_cells(6))),
    ],
)
def test_generated_columns_equal_the_per_point_sets(build, oracle):
    ps, expected = build(), oracle()
    assert "points" not in ps.__dict__
    assert ps == expected and ps.m == expected.m and ps.points == expected.points
