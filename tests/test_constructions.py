import itertools
import random

import pytest

from latflow.backend import Rat
from latflow.algebra import ExactMatrix, dual_involution
from latflow import constructions
from latflow.lattice import Lattice, avoids_open_unit_box
from latflow.constructions import (
    THRESHOLD_STEP,
    block_transport_witness,
    default_scan_grid,
    scan_radius_threshold,
    staircase_unimodular,
    unit_lower_elimination,
    unit_triangular_avoidance_check,
    varying_first_weight_scan,
)

import _brute


def test_staircase_shape_and_det():
    g = staircase_unimodular((2, 3))
    assert g.rows == ((3, 0, 1), (2, 2, 1), (2, 1, 1))
    assert g.det() == 1
    for w in [(1,), (5,), (2, 2, 2), (1, 4, 2, 7)]:
        assert staircase_unimodular(w).det() == 1


def test_staircase_rejects_bad_weights():
    with pytest.raises(ValueError):
        staircase_unimodular((0, 2))
    with pytest.raises(ValueError):
        staircase_unimodular((Rat(5, 2),))  # integers only here


def test_unit_lower_elimination_factorization():
    g = staircase_unimodular((2, 3))
    h, u = unit_lower_elimination(g)
    # h is unit lower, u upper, and h g = u exactly
    n = g.nrows
    for i in range(n):
        assert h.rows[i][i] == 1
        for j in range(i + 1, n):
            assert h.rows[i][j] == 0
    for i in range(n):
        for j in range(i):
            assert u.rows[i][j] == 0
    assert (h @ g).rows == u.rows


def test_elimination_zero_pivot():
    with pytest.raises(ValueError):
        unit_lower_elimination(ExactMatrix([[0, 1], [1, 0]]))


def test_unit_triangular_avoidance():
    g = staircase_unimodular((3, 2))
    h, _ = unit_lower_elimination(g)
    structural, enumerated = unit_triangular_avoidance_check(h)
    assert structural and enumerated
    # sigma images avoid as well (W (h^-1)^T W of a unit lower h is unit lower)
    sig = dual_involution(h)
    structural, enumerated = unit_triangular_avoidance_check(sig)
    assert structural and enumerated


def test_random_unit_triangular_avoidance():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        rows = [
            [
                Rat(1)
                if i == j
                else (Rat(rng.randint(-5, 5), rng.randint(1, 4)) if j < i else Rat(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        g = ExactMatrix(rows)
        structural, enumerated = unit_triangular_avoidance_check(g)
        assert structural and enumerated
        assert avoids_open_unit_box(Lattice(dual_involution(g)))


def test_unit_triangular_structure_matches_reference():
    # lower, upper and full unimodular matrices, with diagonals of ones, a
    # -1 or a (2, 1/2) pair: the structural verdict is the direct test for
    # unit lower or unit upper
    rng = random.Random(61)
    verdicts = {True: 0, False: 0}
    upper_only = 0
    for case in range(400):
        n = rng.randint(1, 4)
        diag = [Rat(1)] * n
        if case % 4 == 1:
            diag[rng.randrange(n)] = Rat(-1)
        elif case % 4 == 2 and n > 1:
            diag[0], diag[-1] = Rat(2), Rat(1, 2)

        def lower():  # diag on the diagonal, sparse rationals below it
            return [[diag[i] if i == j else Rat(0) if j > i or rng.random() < 0.4
                     else Rat(rng.randint(-3, 3), rng.randint(1, 3))
                     for j in range(n)] for i in range(n)]

        low, up = lower(), [list(c) for c in zip(*lower())]
        rows = (low, up, _brute._mat_mul(low, up))[case % 3]
        structural, _ = unit_triangular_avoidance_check(ExactMatrix(rows))
        want = (_brute.unit_triangular_reference(rows, lower=True)
                or _brute.unit_triangular_reference(rows, lower=False))
        assert structural == want, rows
        verdicts[want] += 1
        upper_only += want and not _brute.unit_triangular_reference(rows, lower=True)
    assert verdicts[True] > 150 and verdicts[False] > 150 and upper_only > 40


def test_block_transport_witness_small_sweep():
    for n_minus_1, lead in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for weights in itertools.product((1, 2, 3), repeat=n_minus_1):
            w = block_transport_witness(weights, lead)
            assert w.ok, (weights, lead, w.checks)
            assert w.staircase.det() == 1


def test_block_transport_checks_enumerated():
    w = block_transport_witness((2, 3), 1)
    want = {
        "staircase_det_one",
        "upper_diagonal_realized",
        "elimination_identity",
        "mirror_factorization",
        "q_in_mirror_block",
        "transport_identity",
        "g_in_block",
        "h_lattice_avoids_unit_box",
        "mirror_h_lattice_avoids_unit_box",
    }
    assert set(w.checks) == want
    assert all(w.checks.values())


def test_default_scan_grid():
    grid = default_scan_grid()
    assert len(grid) == 100
    assert (Rat(1, 20), Rat(1, 2)) in grid
    assert all(0 < p[0] < 1 for p in grid)


def test_integer_tail_control_has_insoluble_points():
    # weights (10, 2) at radius 19/20: the scan catches 8 bad grid points
    rep = varying_first_weight_scan((2,), (10,), Rat(19, 20))
    assert not rep.all_soluble
    assert len(rep.insoluble) == 8
    assert (10, (Rat(1, 20), Rat(1, 2))) in rep.insoluble
    # and no radius short of 1 clears the grid: the bisection runs all the
    # way up to the Dirichlet endpoint
    thr, at, _ = scan_radius_threshold((2,), (10,))
    assert thr == 1 and at.all_soluble


def test_half_integral_tail_scan_soluble():
    rep = varying_first_weight_scan((Rat(5, 2),), (10, 100), Rat(19, 20))
    assert rep.all_soluble
    assert len(rep.rows) == 200


def test_half_integral_threshold_below_dirichlet():
    # the half-integral tail genuinely improves the radius: 103/128 < 19/20
    thr, at, _ = scan_radius_threshold((Rat(5, 2),), (10,))
    assert thr == Rat(103, 128)
    assert at.all_soluble
    below = varying_first_weight_scan((Rat(5, 2),), (10,), thr - Rat(1, 128))
    assert not below.all_soluble


@pytest.mark.parametrize("tail, first_weights", [
    ((Rat(5, 2),), (10,)),
    ((Rat(5, 2),), (10, 100)),
    ((2,), (10,)),
    ((3,), (10,)),
    ((Rat(7, 2),), (1,)),
    ((7,), (10,)),
    ((Rat(100, 3),), (10,)),
])
def test_threshold_matches_full_scan_bisection(tail, first_weights):
    # the cached witnesses and the early exit leave every bisection answer,
    # and the report at the threshold, as one full scan per radius gives them,
    # from whichever radius the seeding scan ran at; that scan is handed back
    # as is.  Tails 7 and 100/3 are all-soluble at 1/2, the bottom of the range
    want = _brute.threshold_by_full_scans(
        varying_first_weight_scan, tail, first_weights, Rat(1, 2), Rat(1), THRESHOLD_STEP
    )
    for mu in (1, Rat(19, 20), Rat(1, 2)):
        thr, at, scan = scan_radius_threshold(tail, first_weights, mu)
        assert (thr, at) == want
        assert scan == varying_first_weight_scan(tail, first_weights, mu)


def test_threshold_walks_only_where_a_witness_fails(monkeypatch):
    # one full scan at mu (200 walks) seeds every case with its witness;
    # then a case is walked only where that witness fails at the new
    # radius, and a radius stops at its first insoluble case.  The scan's
    # witnesses at 1 and at 19/20 are the same first hits, and they pass
    # at every all-soluble radius down to 103/128, so the bisection walks
    # once at each of 1/2, 3/4, 25/32 and 51/64
    calls = []
    decide = constructions.window_primal_soluble

    def counted(*args, **kwargs):
        calls.append(args[1].radius)
        return decide(*args, **kwargs)

    monkeypatch.setattr(constructions, "window_primal_soluble", counted)
    bisection = [Rat(1, 2), Rat(3, 4), Rat(25, 32), Rat(51, 64)]
    for mu in (1, Rat(19, 20)):
        calls.clear()
        thr, at, scan = scan_radius_threshold((Rat(5, 2),), (10, 100), mu)
        assert thr == Rat(103, 128) and at.all_soluble and at.radius == thr
        assert scan.radius == mu and scan.all_soluble
        assert len(calls) == 204
        assert calls[:200] == [mu] * 200
        assert calls[200:] == bisection
    # the integer control: 8 cases are insoluble at 19/20, and only those
    # are walked at radius 1
    calls.clear()
    thr, at, scan = scan_radius_threshold((2,), (10, 100), Rat(19, 20))
    assert thr == 1 and at.all_soluble and len(scan.insoluble) == 8
    assert calls[:200] == [Rat(19, 20)] * 200
    assert calls[200:208] == [1] * 8
    assert calls.count(1) == 8
    # then one walk per bisection radius, each at its first insoluble case
    assert calls[208:] == [1 - Rat(1, 2 ** e) for e in range(1, 8)]


def test_scan_rejects_misshapen_grid():
    # a tail of two weights wants 3-d points; the scan grid is 2-d
    with pytest.raises(ValueError, match="grid points must have 3 coordinates"):
        varying_first_weight_scan((2, 3), (10,), 1)
