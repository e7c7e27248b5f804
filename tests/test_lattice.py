import contextlib
import math
import os
import random
import re
import signal
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latflow import experiments, lattice
from latflow.backend import (
    EXACT,
    FLOAT,
    FLOAT_SLACK,
    BackendMismatch,
    BudgetExceeded,
    FaceProximity,
    Rat,
    rat,
)
from latflow.algebra import ExactMatrix, diagonal_shear, row_unipotent
from latflow.linalg import clear_denominators
from latflow.lattice import (
    Box,
    Lattice,
    Tent,
    avoids_open_unit_box,
    enumerate_basis_in_box,
    enumerate_in_box,
    shortest_sup_norm,
    siegel_transform,
)

import _brute


def _columns(g, backend):
    """The basis columns of the exact matrix g, rounded to floats on the
    float backend."""
    cols = g.columns()
    return cols if backend == EXACT else [[float(x) for x in col] for col in cols]


def _backend_scalar(x, backend):
    """The rational x as the backend's scalar: a Fraction, or its float."""
    return rat(x) if backend == EXACT else float(x)


def _exact_shear(weights, shift):
    """diag(prod w, 1/w_1, ...) u(shift) on exact weights and shifts."""
    total = Rat(1)
    for w in weights:
        total *= w
    return ExactMatrix.diagonal([total] + [1 / Rat(w) for w in weights]) @ row_unipotent(shift)


def test_box_face_flags():
    b = Box((1, 1), (True, False))
    assert lattice._inside((1, 0), b.bounds, b.closed, EXACT)  # closed face
    assert not lattice._inside((0, 1), b.bounds, b.closed, EXACT)  # open face
    assert lattice._inside((rat("-1"), rat("99/100")), b.bounds, b.closed, EXACT)


def test_box_rejects_bad_bounds():
    for bounds in [(0, 1), (1, math.nan), (Rat(-1, 2), 1), (1.0, -2.0)]:
        with pytest.raises(ValueError, match="box bounds must be positive"):
            Box(bounds, (True, True))
    with pytest.raises(ValueError, match="length mismatch"):
        Box((1,), (True, True))


def test_float_box_warns_near_face():
    b = Box((1.0, 1.0), (True, True))
    with pytest.warns(FaceProximity):
        lattice._inside((1.0 - 1e-12, 0.0), b.bounds, b.closed, FLOAT)


def test_lattice_requires_unimodular():
    # the exact check runs on D B; the message names the rational det
    for rows, d in [([[2, 0], [0, 1]], Rat(2)),
                    ([[Rat(1, 2), 7], [0, Rat(3, 2)]], Rat(3, 4)),
                    ([[Rat(1, 3), Rat(2, 3)], [1, 2]], Rat(0))]:
        with pytest.raises(ValueError, match=re.escape("not unimodular (det = %r)" % (d,))):
            Lattice(ExactMatrix(rows))
    # float bases are checked where the translates are built, within 1e-9
    with pytest.raises(ValueError, match=re.escape("(det = 2.0)")):
        experiments._check_triangular_det([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=re.escape("(det = 2.0)")):
        experiments._checked_columns([[2.0, 0.0], [0.0, 1.0]])
    assert Lattice(ExactMatrix.identity(3)).n == 3
    assert Lattice(ExactMatrix([[Rat(2, 3), Rat(5, 7)], [0, Rat(-3, 2)]])).n == 2


def test_enumerate_standard_lattice():
    # Z^2 in the closed square of radius 2: 24 nonzero points
    pts = enumerate_in_box(Lattice(ExactMatrix.identity(2)), Box((2, 2), (True, True)))
    assert len(pts) == 24
    assert all(max(abs(int(x)) for x in p) <= 2 for p in pts)
    assert (0, 0) not in {tuple(int(x) for x in p) for p in pts}


def test_enumerate_open_box_drops_faces():
    pts = enumerate_in_box(Lattice(ExactMatrix.identity(2)), Box((1, 1), (False, False)))
    assert pts == []  # only the origin lies strictly inside


def test_float_leaf_keeps_face_flags():
    # the float walk decides each face as lattice._inside does: a point on a
    # closed face is in, on an open face out, and both warn
    z2 = [[1.0, 0.0], [0.0, 1.0]]
    for closed, want in [((False, False), []), ((True, False), [(-1.0, 0.0), (1.0, 0.0)]),
                         ((True, True), [(-1.0, -1.0), (-1.0, 0.0), (-1.0, 1.0), (0.0, -1.0),
                                         (0.0, 1.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0)])]:
        box = Box((1.0, 1.0), closed)
        with pytest.warns(FaceProximity):
            pts = [p for p, _ in enumerate_basis_in_box(z2, box, FLOAT)]
        assert pts == want
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FaceProximity)
            assert all(lattice._inside(p, box.bounds, box.closed, FLOAT) for p in pts)


def test_enumerate_skew_matches_brute():
    g = ExactMatrix([[1, rat("7/3")], [0, 1]])
    box = Box((rat("5/2"), rat("4/3")), (True, False))
    mine = sorted(tuple(x for x in p) for p in enumerate_in_box(Lattice(g), box))
    ref = _brute.enumerate_box(g.columns(), box.bounds, box.closed)
    assert [tuple(map(str, p)) for p in mine] == [tuple(map(str, p)) for p in ref]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_enumerate_matches_brute_random(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    g = ExactMatrix(_brute.random_unimodular(rng, n))
    bounds = [Rat(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n)]
    closed = [rng.random() < 0.5 for _ in range(n)]
    if _brute.scan_cost(g.columns(), bounds) > 30_000:
        return  # keep the oracle affordable
    box = Box(tuple(bounds), tuple(closed))
    mine = sorted(tuple(x for x in p) for p in enumerate_in_box(Lattice(g), box))
    ref = _brute.enumerate_box(g.columns(), bounds, closed)
    assert [tuple(map(str, p)) for p in mine] == [tuple(map(str, p)) for p in ref]


def test_float_and_exact_enumeration_differ_only_near_faces():
    # float.as_integer_ratio gives dyadic rationals equal to the float
    # inputs, so both backends see the same lattice and box; the float path
    # may only disagree about points within FLOAT_SLACK of a face
    def exact(x):
        return Fraction(*x.as_integer_ratio())

    rng = random.Random(5)
    agreed = 0
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        rows = _brute.random_unimodular(rng, n)
        fcols = [
            [rows[i][j] + rng.choice((0.0, 0.0, 0.5, -0.25, rng.uniform(-0.3, 0.3)))
             for i in range(n)]
            for j in range(n)
        ]
        bounds = [rng.choice((1.0, 0.5, 1.25, rng.uniform(0.4, 2.0))) for _ in range(n)]
        closed = [rng.random() < 0.5 for _ in range(n)]
        ecols = [[exact(x) for x in col] for col in fcols]
        ebounds = [exact(b) for b in bounds]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FaceProximity)
            fl = enumerate_basis_in_box(fcols, Box(tuple(bounds), tuple(closed)), FLOAT)
        ex = enumerate_basis_in_box(ecols, Box(tuple(ebounds), tuple(closed)), EXACT)
        fl_coeffs, ex_coeffs = {c for _, c in fl}, {c for _, c in ex}
        for coeffs in fl_coeffs ^ ex_coeffs:
            point = [sum(col[i] * x for col, x in zip(ecols, coeffs)) for i in range(n)]
            face_gap = min(abs(abs(v) / b - 1) for v, b in zip(point, ebounds))
            assert face_gap <= FLOAT_SLACK, (fcols, bounds, closed, coeffs)
        agreed += len(fl_coeffs & ex_coeffs)
    assert agreed > 100


def test_float_walk_takes_rational_columns_as_their_floats():
    # the float walk divides each entry by its bound taken as a float, which
    # turns an int or Fraction entry into float(entry) / bound: on seeded
    # rational bases, with int and float bounds, the points, coefficients
    # and shortest vectors are those of the columns rounded to floats
    def mixed(x):  # an integral Fraction as an int, so both kinds occur
        return int(x) if x.denominator == 1 else x

    rng = random.Random(37)
    kinds = set()
    for case in range(90):
        n = 2 + case % 3
        rows = _brute.random_unimodular(rng, n)
        cols = [[mixed(Rat(rows[i][j]) + rng.choice((0, 0, Rat(1, 3), Rat(-2, 7), Rat(5, 2))))
                 for i in range(n)] for j in range(n)]
        if _brute.det_reference(cols) == 0:
            continue
        fcols = [[float(x) for x in col] for col in cols]
        bounds = tuple(rng.choice((1, 2, 1.5, 1.25, rng.uniform(0.5, 2.5))) for _ in range(n))
        closed = tuple(rng.random() < 0.5 for _ in range(n))
        shortest = [[mixed(x) for x in col] for col in _covolume_one_basis(rng, min(n, 3)).columns()]
        kinds.update(type(x) for col in cols + shortest for x in col)
        kinds.update(type(b) for b in bounds)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FaceProximity)
            got = enumerate_basis_in_box(cols, Box(bounds, closed), FLOAT)
            want = enumerate_basis_in_box(fcols, Box(tuple(map(float, bounds)), closed), FLOAT)
            assert repr(got) == repr(want)
            got = shortest_sup_norm(shortest, FLOAT)
            want = shortest_sup_norm([[float(x) for x in col] for col in shortest], FLOAT)
        assert type(got) is float and repr(got) == repr(want)
    assert kinds == {int, Fraction, float}


def test_first_only_returns_valid_point():
    g = ExactMatrix([[1, rat("7/3")], [0, 1]])
    box = Box((rat("5/2"), rat("4/3")), (True, True))
    hits = enumerate_basis_in_box(g.columns(), box, EXACT, first_only=True)
    assert len(hits) == 1
    assert lattice._inside(hits[0][0], box.bounds, box.closed, EXACT)


def test_budget_blows_up():
    big = Box((60, 60), (True, True))
    with pytest.raises(BudgetExceeded):
        enumerate_in_box(Lattice(ExactMatrix.identity(2)), big, budget=50)


def _hang(signum, frame):
    raise TimeoutError("enumeration did not stop at its node budget")


@pytest.mark.parametrize("e", [20, 25, 30, 40])
def test_exact_walk_counts_nodes_on_skewed_bases(e):
    # a box-normalised basis with squared Gram-Schmidt norms 10^-2e and
    # 10^2e: the interval at the bottom level holds about 10^e integers,
    # and every one of them must count against the budget
    cols = [[Rat(1, 10**e), 0], [0, Rat(10**e)]]
    box = Box((1, 1), (True, True))
    old = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(10)
    try:
        with pytest.raises(BudgetExceeded):
            enumerate_basis_in_box(cols, box, EXACT, budget=1000)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _rational_case(rng):
    """A seeded rational basis and box in dimension 2-4: a small unimodular
    integer matrix with entries shifted by fractions of denominator up to
    10^6, rows scaled by factors between 10^-6 and 10^6 that the bounds
    share (so the box is anisotropic but the oracle's scan stays small),
    bounds jittered by fractions of denominator up to 10^6, and each face
    closed or open at random."""
    n = rng.choice((2, 3, 4))
    rows = _brute.random_unimodular(rng, n)
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.5:
                den = rng.randint(2, 10**6)
                rows[i][j] += Fraction(rng.randint(-den // 2, den // 2), den)
    stretch = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(n)]
    cols = [[stretch[i] * rows[i][j] for i in range(n)] for j in range(n)]
    bounds = [
        s * Fraction(rng.randint(1, 3)) * Fraction(rng.randint(10**5, 10**6), rng.randint(10**5, 10**6))
        for s in stretch
    ]
    closed = [rng.random() < 0.5 for _ in range(n)]
    return cols, bounds, closed


def _as_fractions(pairs):
    return [(tuple(_brute.frac(x) for x in p), tuple(c)) for p, c in pairs]


def test_integral_box_basis_matches_fraction_division():
    # the integer normalisation gives the D and integer columns of dividing
    # by the bounds in Fractions and then clearing denominators
    rng = random.Random(71)
    for case in range(600):
        n = 2 + case % 4
        rows = _brute.random_unimodular(rng, n, ops=8, max_mult=3)
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.4:
                    den = rng.choice((2, 3, 7, 12, 10**9, 2**61 - 1, 10**30 + 57))
                    rows[i][j] += Fraction(rng.randint(-den, den), den)
        cols = [[Rat(rows[i][j]) for i in range(n)] for j in range(n)]
        bounds = [Rat(rng.randint(1, 10**rng.randint(0, 8)), rng.randint(1, 10**rng.randint(0, 8)))
                  * Rat(10) ** rng.randint(-6, 6) for _ in range(n)]
        want = clear_denominators([[x / b for x, b in zip(col, bounds)] for col in cols])
        assert lattice._integral_box_basis(cols, bounds) == want


def test_integral_box_basis_takes_int_entries_as_they_are():
    # int entries skip the Fraction and give exactly the Fraction answer;
    # a float entry, even an integral one, is still refused
    rng = random.Random(73)
    for case in range(200):
        n = 2 + case % 4
        cols = [[rng.randint(-10**rng.randint(0, 30), 10**rng.randint(0, 30)) for _ in range(n)]
                for _ in range(n)]
        bounds = [Rat(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(n)]
        got = lattice._integral_box_basis(cols, bounds)
        assert got == lattice._integral_box_basis([[Rat(x) for x in col] for col in cols], bounds)
    box = Box((Rat(3, 2),) * 2, (True, False))
    with pytest.raises(BackendMismatch):
        enumerate_basis_in_box([[2.0, 0], [0, 1]], box, EXACT)


@pytest.mark.parametrize("seed", range(6))
def test_integer_walk_matches_fraction_oracles(seed):
    # Full point sets and coefficients equal the coefficient-box scan; the
    # first hit, and the node count at which the budget trips, equal those
    # of the textbook Fincke-Pohst walk over Fractions.
    rng = random.Random(seed)
    checked = 0
    while checked < 15:
        cols, bounds, closed = _rational_case(rng)
        if _brute.det_reference(cols) == 0 or _brute.scan_cost(cols, bounds) > 2500:
            continue
        box = Box(tuple(bounds), tuple(closed))
        oracle = _brute.enumerate_box_coeffs(cols, bounds, closed)
        for first_only in (False, True):
            hits, nodes = _brute.fincke_pohst_reference(cols, bounds, closed, first_only)
            mine = enumerate_basis_in_box(cols, box, EXACT, budget=nodes, first_only=first_only)
            with pytest.raises(BudgetExceeded):
                enumerate_basis_in_box(cols, box, EXACT, budget=nodes - 1, first_only=first_only)
            if first_only:
                assert _as_fractions(mine) == hits
                assert all(hit in oracle for hit in hits)
                assert bool(hits) == bool(oracle)
            else:
                assert _as_fractions(mine) == oracle == sorted(hits)
        checked += 1


def _seeded_bases(rng, n, backend):
    """(columns, box): a unimodular integer basis with small shifts added,
    rational on the exact backend and float (many entries still integers)
    on the float one, and a box with random bounds and faces.  None when
    the shifts made the basis singular or nearly so (|det| < 1/1000, where
    floats such as 1/3 may leave the float columns dependent)."""
    rows = _brute.random_unimodular(rng, n)
    if backend == FLOAT:
        shifts = (0.0, 0.0, 0.1, -0.1, 0.5, 1 / 3)
        cols = [[rows[i][j] + rng.choice(shifts) for i in range(n)] for j in range(n)]
        bounds = tuple(rng.choice((1.0, 1.5, 2.0, rng.uniform(0.5, 2.5))) for _ in range(n))
    else:
        cols = [[Rat(rows[i][j]) + rng.choice((0, 0, Rat(1, 3), Rat(-1, 2))) for i in range(n)]
                for j in range(n)]
        bounds = tuple(rng.choice((Rat(1), Rat(3, 2), Rat(2), Rat(7, 3))) for _ in range(n))
    if abs(_brute.det_reference(cols)) < Fraction(1, 1000):
        return None
    return cols, Box(bounds, tuple(rng.random() < 0.5 for _ in range(n)))


def test_mirrors_equal_the_walk_bit_for_bit():
    # The walk reaches one point of each +-v pair and the enumeration adds
    # the other as a mirror.  On -B the walk computes, with its own
    # arithmetic, the points the mirrors on B stand in for (same Gram
    # matrix, same tree, negated columns), so both lists must agree to the
    # last bit; and no float coordinate may be -0.0, which the walk never
    # produces.
    rng = random.Random(13)
    for case in range(400):
        backend = FLOAT if case % 2 else EXACT
        drawn = _seeded_bases(rng, 2 + case % 3, backend)
        if drawn is None:
            continue
        cols, box = drawn
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FaceProximity)
            mine = enumerate_basis_in_box(cols, box, backend)
            walked = enumerate_basis_in_box([[-x for x in col] for col in cols], box, backend)
        assert sorted((repr(p), c) for p, c in mine) == sorted(
            (repr(p), tuple(-x for x in c)) for p, c in walked
        )
        assert not any(x == 0 and math.copysign(1, x) < 0 for p, _ in mine for x in p)


def test_coefficients_reproduce_points():
    g = ExactMatrix([[2, 1], [1, 1]])
    box = Box((3, 3), (True, True))
    for point, coeff in enumerate_basis_in_box(g.columns(), box, EXACT):
        v = _brute.mat_vec(g.rows, coeff)
        assert tuple(v) == tuple(point)


def test_avoidance_helpers():
    assert avoids_open_unit_box(Lattice(ExactMatrix.identity(2)))  # faces don't count
    # the closed head face does count in the solubility window
    assert enumerate_in_box(Lattice(ExactMatrix.identity(2)), Box((1, 1), (True, False)), first_only=True)
    # unit triangular bases always avoid (coordinates vanish bottom-up)
    assert avoids_open_unit_box(
        Lattice(ExactMatrix([[1, rat("1/2")], [0, 1]]))
    )
    squash = Lattice(ExactMatrix([[rat("1/2"), 0], [0, 2]]))
    assert not avoids_open_unit_box(squash)  # (1/2, 0) sits strictly inside


def test_tent_values_and_integral():
    t = Tent((0, 0), 2, 1)  # exact scalars become floats
    assert t.center == (0.0, 0.0) and type(t.radius) is float and type(t.height) is float
    assert t.value((0, 0)) == 1
    assert t.value((1, 0)) == 0.5  # sup-norm distance 1 of radius 2
    assert t.value((2, 2)) == 0
    assert t.integral() == 16.0 / 3.0  # (2r)^d h / (d+1) at r=2, d=2
    assert t.support_box == Box((2.0, 2.0), (True, True))
    # a radius or height that is not finite and > 0, or a center that is not
    # finite, is refused
    for bad in [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                (2.0, 0.0), (2.0, -1.0), (2.0, math.inf), (2.0, math.nan)]:
        with pytest.raises(ValueError, match="tent (radius|height) must be finite and > 0"):
            Tent((0.0, 0.0), *bad)
    for center in [(math.nan, 0.0), (0.0, -math.inf)]:
        with pytest.raises(ValueError, match="tent center must be finite"):
            Tent(center, 2.0, 1.0)


def test_siegel_transform_standard_lattice():
    t = Tent((0, 0), 2, 1)
    with pytest.warns(FaceProximity):  # the points at sup distance 2 sit on the faces
        val = siegel_transform([[1.0, 0.0], [0.0, 1.0]], t)
    # 8 lattice points at sup distance 1 contribute 1/2 each
    assert val == 4


def test_siegel_matches_brute_sum():
    rng = random.Random(11)
    for _ in range(10):
        g = ExactMatrix(_brute.random_unimodular(rng, 2))
        tent = Tent((0.0, 0.0), 1.5, 1.0)
        mine = siegel_transform(_columns(g, FLOAT), tent)
        ref = float(_brute.tent_sum(g.columns(), [0, 0], Rat(3, 2), 1))
        assert mine == pytest.approx(ref, abs=1e-9)


def _walk_in_walk_order(cols, box, backend, first_only=False):
    """(found, u_cols): the (point, xs) pairs that lattice._walk hands its
    leaf, in walk order, and the columns of its U."""
    found = []

    def keep(point, xs):
        found.append((point, tuple(xs)))
        return first_only

    return found, lattice._walk(cols, box, backend, lattice.DEFAULT_NODE_BUDGET, keep)


@pytest.mark.parametrize("backend", [FLOAT, EXACT])
def test_pull_back_and_mirrors_match_the_loop_over_n(backend):
    # the planar scalars against the loop over n coordinates, in repr (a
    # -0.0 or a float where an int belongs fails), full and first_only;
    # n = 3 pins the loop itself
    rng = random.Random(31)
    skew_u = zero_coords = 0
    for case in range(300):
        n = 2 if case % 4 else 3
        drawn = _seeded_bases(rng, n, backend)
        if drawn is None:
            continue
        cols, box = drawn
        for first_only in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FaceProximity)
                found, u_cols = _walk_in_walk_order(cols, box, backend, first_only)
                mine = enumerate_basis_in_box(cols, box, backend, first_only=first_only)
            assert repr(mine) == repr(_brute.pull_back_and_mirror(found, u_cols, first_only))
        skew_u += n == 2 and u_cols[1][0] != u_cols[0][1]
        zero_coords += any(x == 0 for p, _ in found for x in p)
    assert skew_u > 50  # U not symmetric: u01 and u10 cannot be swapped unseen
    assert zero_coords > 50  # mirrors of zero coordinates, which must stay +0.0


_TENTS = (
    Tent((0.0, 0.0), 2.0, 1.0),
    Tent((0.5, -0.25), 1.5, 0.5),  # off-center, unequal support bounds
    Tent((-0.0, 0.25), 1.25, 3.0),
    Tent((0.0, 0.0, 0.0), 1.5, 1.0),
    Tent((0.25, -0.0, -0.5), 1.75, 2.0),
)


def test_siegel_transform_is_the_sorted_tent_value_sum():
    # siegel_transform against 0.0 + the reference value at each point, in
    # the sorted order of enumerate_basis_in_box, to the last bit; the sum
    # in walk order differs in the last bits on some of these bases
    rng = random.Random(41)
    unordered = faces = 0
    for case in range(200):
        tent = _TENTS[case % len(_TENTS)]
        drawn = _seeded_bases(rng, tent.dim, FLOAT)
        if drawn is None:
            continue
        cols = drawn[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FaceProximity)
            mine = siegel_transform(cols, tent)
            points = [p for p, _ in enumerate_basis_in_box(cols, tent.support_box, FLOAT)]
            found, _ = _walk_in_walk_order(cols, tent.support_box, FLOAT)
        values = [_brute.tent_value(p, tent.center, tent.radius, tent.height) for p in points]
        total = 0.0
        for x in values:
            total = total + x
        assert repr(mine) == repr(total)
        walk_order = 0.0
        for p, _ in found:
            for q in (p, tuple(0 - t for t in p)):
                walk_order = walk_order + _brute.tent_value(q, tent.center, tent.radius, tent.height)
        unordered += walk_order != total
        faces += any(max(abs(x - c) for x, c in zip(p, tent.center)) == tent.radius for p in points)
    assert unordered > 20
    assert faces > 20  # points with t = 0 exactly


def test_tent_total_and_value_match_the_reference_at_ties_and_signed_zeros():
    # ties between the coordinates' distances, -0.0 in points and centers,
    # and points on the support face (t = 0) or outside it
    coords = (-0.0, 0.0, 0.25, -0.25, 0.5, -1.5, 1.75, 2.0, -2.0, 3.0)
    for tent in _TENTS[:3]:
        points = [(x, y) for x in coords for y in coords]
        want = [_brute.tent_value(p, tent.center, tent.radius, tent.height) for p in points]
        assert [repr(tent.value(p)) for p in points] == [repr(w) for w in want]
        total = 0.0
        for w in want:
            total = total + w
        assert repr(tent.total(points)) == repr(total)
    face = Tent((0.0, 0.0), 2.0, 1.0)
    assert repr(face.value((2.0, -0.0))) == repr(face.value((-0.0, -2.0))) == "0.0"
    assert face.total([]) == 0.0


def test_planar_tent_total_is_the_reference_sum_in_order():
    # the planar scalars of Tent.total against 0.0 plus the reference value
    # at each point, in order, under repr: seeded centers with -0.0 and
    # unequal support bounds, points at +-0.0, ties between the two
    # distances, and points on the face (t = 0) or outside it.  Dyadic
    # offsets keep the faces and the ties exact
    rng = random.Random(53)
    grid = (-0.0, 0.0, 0.25, -0.25, 0.5, -0.75, 1.25, -1.5)
    steps = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5)  # in units of the radius
    swapped = unsigned = ties = faces = zeros = 0
    for _ in range(400):
        c0, c1 = rng.choice(grid), rng.choice(grid)
        radius, height = rng.choice((0.5, 1.0, 1.25, 2.0)), rng.choice((0.5, 1.0, 3.0))
        tent = Tent((c0, c1), radius, height)
        points = []
        for _ in range(rng.randint(0, 12)):
            k0 = rng.choice(steps)
            k1 = k0 if rng.random() < 0.3 else rng.choice(steps)
            p = [c0 + rng.choice((-1, 1)) * k0 * radius, c1 + rng.choice((-1, 1)) * k1 * radius]
            if rng.random() < 0.2:
                p[rng.randrange(2)] = rng.choice((-0.0, 0.0))
            points.append(tuple(p))
        total = 0.0
        for p in points:
            total = total + _brute.tent_value(p, tent.center, radius, height)
        assert repr(tent.total(points)) == repr(total)
        assert repr(tent.total(iter(points))) == repr(total)
        flip = 0.0
        for p in points:
            flip = flip + _brute.tent_value(p, (c1, c0), radius, height)
        swapped += repr(flip) != repr(total)
        for x0, x1 in points:
            d, e = abs(x0 - c0), abs(x1 - c1)
            unsigned += x1 < c1 and e > d and e < radius  # e taken as x1 - c1 < 0 loses it
            ties += d == e < radius
            faces += max(d, e) == radius
            zeros += (x0 == 0 or x1 == 0) and max(d, e) < radius
    assert swapped > 100 and unsigned > 100
    assert ties > 100 and faces > 100 and zeros > 100


def test_tent_refuses_an_empty_center_and_points_of_another_length():
    with pytest.raises(ValueError, match="at least one coordinate"):
        Tent((), 1, 1)
    tent = Tent((0.0, 0.0), 2, 1)
    for v in [(1.0,), (1.0, 0.0, 0.0), ()]:
        with pytest.raises(ValueError, match="point of length %d for a tent of dimension 2" % len(v)):
            tent.value(v)
    # total holds every dimension to one length rule: the planar branch
    # unpacks each point, the loop zips it strictly against the center
    for tent in (Tent((0.0, 0.0), 2, 1), Tent((0.0, 0.0, 0.0), 2, 1), Tent((0.0,) * 4, 2, 1)):
        for v in [(1.0,), (1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0), ()]:
            if len(v) != tent.dim:
                with pytest.raises(ValueError):
                    tent.total([(0.0,) * tent.dim, v])
    with pytest.raises(ValueError, match="dimension mismatch"):
        siegel_transform([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], tent)


def _covolume_one_basis(rng, n):
    """diag(a, 1/a) U or diag(a, b, 1/(a b)) U, rows permuted, for rational
    a, b and an integer unimodular U: a covolume-1 lattice that is not Z^n."""
    a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    b = Fraction(rng.randint(1, 9), rng.randint(1, 9)) if n == 3 else 1
    scale = [a, 1 / a] if n == 2 else [a, b, 1 / (a * b)]
    rng.shuffle(scale)
    u = _brute.random_unimodular(rng, n)
    return ExactMatrix([[scale[i] * x for x in row] for i, row in enumerate(u)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_shortest_matches_brute(seed):
    rng = random.Random(seed)
    g = _covolume_one_basis(rng, rng.choice((2, 3)))
    if _brute.scan_cost(g.columns(), [1] * g.nrows) > 30_000:
        return
    assert str(shortest_sup_norm(g.columns(), EXACT)) == str(_brute.shortest_sup(g.columns()))


def test_covolume_one_bases_have_other_minima_than_one():
    # the draws above reach minima below 1, not only the 1 of Z^n
    rng = random.Random(0)
    minima = set()
    for _ in range(40):
        g = _covolume_one_basis(rng, rng.choice((2, 3)))
        if _brute.scan_cost(g.columns(), [1] * g.nrows) <= 30_000:
            minima.add(_brute.shortest_sup(g.columns()))
    assert len(minima) >= 5 and max(minima) <= 1 and min(minima) < 1


def test_enumeration_refuses_mixed_backends():
    cols = ((1, 0), (0, 1))
    exact_box = Box((Rat(3, 2),) * 2, (True, True))
    float_box = Box((1.5, 1.5), (True, True))
    with pytest.raises(BackendMismatch):
        enumerate_basis_in_box(cols, float_box, EXACT)  # exact columns, float box
    with pytest.raises(BackendMismatch):
        enumerate_basis_in_box(cols, exact_box, FLOAT)  # float columns, exact box
    with pytest.raises(BackendMismatch):
        enumerate_in_box(Lattice(ExactMatrix.identity(2)), float_box)
    with pytest.raises(ValueError, match="unknown backend"):
        enumerate_basis_in_box(cols, exact_box, "rational")
    assert len(enumerate_basis_in_box(cols, exact_box, EXACT)) == 8
    assert len(enumerate_basis_in_box(cols, float_box, FLOAT)) == 8


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("cols", [
    [[1, 0, 7], [0, 1, 9]],  # two columns of length 3: not cut to the first two rows
    [[1], [0, 1]],  # ragged
    [[1, 0], [0, 1], [1, 1]],  # three columns of length 2
])
def test_walk_refuses_a_basis_that_is_not_square(cols, backend):
    cols = [[_backend_scalar(x, backend) for x in col] for col in cols]
    n = len(cols)
    box = Box((_backend_scalar(Rat(3, 2), backend),) * n, (True,) * n)
    with pytest.raises(ValueError, match="basis must be square"):
        enumerate_basis_in_box(cols, box, backend)
    with pytest.raises(ValueError, match="basis must be square"):
        shortest_sup_norm(cols, backend)
    if backend == FLOAT:
        with pytest.raises(ValueError, match="basis must be square"):
            siegel_transform(cols, Tent((0.0,) * n, 2.0, 1.0))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("n", [2, 3])
def test_shortest_sup_norm_of_critical_lattice_takes_one_cube(monkeypatch, n, backend):
    # every shortest vector of Z^n lies on a face of the closed unit cube,
    # which Minkowski's theorem says holds a point of any covolume-1 lattice
    calls = []
    real = lattice._walk

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice, "_walk", counted)
    on_faces = pytest.warns(FaceProximity) if backend == FLOAT else contextlib.nullcontext()
    with on_faces:
        got = shortest_sup_norm(_columns(ExactMatrix.identity(n), backend), backend)
    assert got == 1 and type(got) is type(_backend_scalar(1, backend))
    assert len(calls) == 1
    assert calls[0].bounds == (_backend_scalar(1, backend),) * n and all(calls[0].closed)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_shortest_sup_norm_walks_the_cube_of_its_own_dimension(monkeypatch, backend):
    # the closed unit cube is built once per dimension: calls in dimensions
    # 2, 3 and 4, in turn and again, each walk the cube of their own n
    boxes = []
    real = lattice._walk

    def recorded(*args, **kwargs):
        boxes.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice, "_walk", recorded)
    dims = (2, 3, 4, 2, 4, 3)
    for n in dims:
        # diag(2, ..., 2, 2^(1-n)): the shortest vector is the last column
        diag = [2] * (n - 1) + [Rat(1, 2 ** (n - 1))]
        g = ExactMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FaceProximity)
            got = shortest_sup_norm(_columns(g, backend), backend)
        assert got == diag[-1]
    assert [box.bounds for box in boxes] == [(1,) * n for n in dims]
    assert [box.closed for box in boxes] == [(True,) * n for n in dims]
    assert all(type(b) is int for box in boxes for b in box.bounds)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("weight", [2**12, 2**20])
def test_shortest_of_a_nearly_divergent_translate_skips_the_multiples(weight, backend):
    # diag(w, 1/w) u(1/3) Z^2 has the shortest vector (0, 3/w), and the
    # closed unit cube holds its multiples up to w/3: 2,730 points at
    # w = 2^12.  The walk whose sphere shrinks at each point found skips
    # them; a walk of the whole cube visits each
    cols = _columns(_exact_shear((Rat(weight),), (Rat(1, 3),)), backend)
    cube = Box((1, 1), (True, True))
    with pytest.raises(BudgetExceeded):
        enumerate_basis_in_box(cols, cube, backend, budget=50)
    got = shortest_sup_norm(cols, backend, budget=50)
    assert repr(got) == repr(_backend_scalar(Rat(3, weight), backend))
    if weight == 2**12:  # small enough to list the whole cube
        want = min(max(map(abs, p)) for p, _ in enumerate_basis_in_box(cols, cube, backend))
        assert repr(got) == repr(want)


@pytest.mark.parametrize("m", [1e-6, 1e-7])
@pytest.mark.parametrize("shorter_by", [1e-6, 1e-5, 1e-4, 1e-3])
def test_shortest_float_search_keeps_a_near_tie_after_shrinking(m, shorter_by):
    # p = (m, -m, 0) and q = (m', m', m'), m' just below m, span every point
    # of the cube; q lies on the boundary of the sphere 3 m^2 that p leaves,
    # and the radii of the shrunk search carry rounding errors of a few
    # ulps of the first sphere 3 (1 + FLOAT_SLACK), far above 3 m^2 FLOAT_SLACK
    q = m * (1 - shorter_by)
    cols = [(m, -m, 0.0), (q, q, q), (0.0, 0.0, 1.0 / (2 * m * q))]
    assert shortest_sup_norm(cols, FLOAT, budget=1000) == pytest.approx(q, rel=1e-12)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_shortest_of_rational_shears_matches_the_cube(backend):
    # diag(prod w, 1/w) u(phi) Z^n with small rational weights and shifts:
    # the first point the walk finds is often not a shortest one, so the
    # shrunk sphere must still hold every point no longer than it
    rng = random.Random(29)
    cube_mins = 0
    for _ in range(60):
        k = rng.choice((1, 2))
        weights = tuple(Rat(rng.randint(2, 30), rng.randint(1, 7)) for _ in range(k))
        shift = tuple(Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
        g = _exact_shear(weights, shift)
        n = g.nrows
        cube = Box((1,) * n, (True,) * n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FaceProximity)
            pts = [p for p, _ in enumerate_basis_in_box(_columns(g, backend), cube, backend)]
            got = shortest_sup_norm(_columns(g, backend), backend)
        want = min(max(map(abs, p)) for p in pts)
        assert repr(got) == repr(want)
        cube_mins += want < 1
        cols, ones = g.columns(), [1] * n
        if backend == EXACT and _brute.scan_cost(cols, ones) <= 5_000:
            brute = _brute.enumerate_box(cols, ones, [True] * n)
            assert got == min(max(map(abs, p)) for p in brute)
    assert cube_mins > 30  # most cases are not decided by a point on the cube's face


def _thin_case(rng, backend):
    """A seeded lattice a u(phi) g Z^n, n = 2-4, with rational weights and
    shifts and g an integer unimodular matrix, and a box with bounds among
    1/2, 1, 5/4, 3/2 and random open or closed faces: points on faces are
    common.  Returns the lattice and the box, both rounded to floats on the
    float backend, where the lattice is its list of basis columns."""
    n = rng.choice((2, 3, 4))
    weights = sorted((Rat(rng.randint(1, 4), rng.randint(1, 2)) + 1 for _ in range(n - 1)), reverse=True)
    phi = [Rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n - 1)]
    g = _exact_shear(weights, phi) @ ExactMatrix(_brute.random_unimodular(rng, n))
    bounds = tuple(rng.choice((Rat(1), Rat(1, 2), Rat(5, 4), Rat(3, 2))) for _ in range(n))
    closed = tuple(rng.random() < 0.5 for _ in range(n))
    lat = Lattice(g) if backend == EXACT else _columns(g, FLOAT)
    return lat, Box(bounds if backend == EXACT else tuple(map(float, bounds)), closed)


def _nodes(run):
    """The smallest budget at which run(budget) raises no BudgetExceeded."""
    def fits(budget):
        try:
            run(budget)
        except BudgetExceeded:
            return False
        return True

    hi = 1
    while not fits(hi):
        hi *= 2
    lo = hi // 2  # fits(lo) is False, or lo == 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


# total nodes of the 30 walks per backend, in the box and in the closed unit
# cube, frozen: a walk that prunes or branches differently changes them.
# They count the half tree, one point of each +-v pair.
_THIN_NODES = {EXACT: (2518, 3283), FLOAT: (2518, 3283)}
# total nodes of shortest_sup_norm's shrinking walks of the same 30 cubes
_SHORTEST_NODES = {EXACT: 203, FLOAT: 203}


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_thin_callers_agree_with_the_full_walk(backend):
    # enumerate_in_box (exact) keeps the points of enumerate_basis_in_box,
    # in its order, and walks the same tree, so their budgets trip alike;
    # so does siegel_transform (float) over its tent's support box.
    # shortest_sup_norm is the minimum over the points of the closed unit
    # cube, found by a walk of that cube whose sphere shrinks, so it fits
    # the full cube walk's budget
    rng = random.Random(23)
    totals = [0, 0]
    shortest = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FaceProximity)
        for _ in range(30):
            lat, box = _thin_case(rng, backend)
            cols = lat.basis.columns() if backend == EXACT else lat
            n = len(cols)
            cube = Box((1,) * n, (True,) * n)
            full = enumerate_basis_in_box(cols, box, backend)
            first = enumerate_basis_in_box(cols, box, backend, first_only=True)
            nodes = _nodes(lambda b: enumerate_basis_in_box(cols, box, backend, budget=b))
            if backend == EXACT:
                assert enumerate_in_box(lat, box) == [p for p, _ in full]
                assert enumerate_in_box(lat, box, first_only=True) == [p for p, _ in first]
                enumerate_in_box(lat, box, budget=nodes)
                with pytest.raises(BudgetExceeded):
                    enumerate_in_box(lat, box, budget=nodes - 1)
            else:
                tent = Tent((0.0,) * n, 1.25, 1.0)
                in_tent = enumerate_basis_in_box(cols, tent.support_box, FLOAT)
                total = 0.0
                for p, _ in in_tent:
                    total = total + _brute.tent_value(p, tent.center, tent.radius, tent.height)
                assert repr(siegel_transform(cols, tent)) == repr(total)
                tent_nodes = _nodes(
                    lambda b: enumerate_basis_in_box(cols, tent.support_box, FLOAT, budget=b))
                siegel_transform(cols, tent, budget=tent_nodes)
                with pytest.raises(BudgetExceeded):
                    siegel_transform(cols, tent, budget=tent_nodes - 1)
            in_cube = enumerate_basis_in_box(cols, cube, backend)
            want = min(max(abs(x) for x in p) for p, _ in in_cube)
            assert repr(shortest_sup_norm(cols, backend)) == repr(want)
            cube_nodes = _nodes(lambda b: enumerate_basis_in_box(cols, cube, backend, budget=b))
            own = _nodes(lambda b: shortest_sup_norm(cols, backend, budget=b))
            assert own <= cube_nodes
            totals[0] += nodes
            totals[1] += cube_nodes
            shortest += own
    assert tuple(totals) == _THIN_NODES[backend]
    assert shortest == _SHORTEST_NODES[backend]


def _sweep_bases():
    """The float columns of diag(e^t, e^-t) u(s) for the seeded (t, s) of
    test_planar_float_lll_matches_reference_on_sweep_translates, and the
    signed-zero basis whose mu_10 is -0.0."""
    rng = random.Random(2020)
    cases = [(rng.uniform(0.0, 12.0), rng.uniform(-1.0, 1.0)) for _ in range(2000)]
    cases += [(t, 0.0) for t in (0.0, 1.0, 6.5, 12.0)]
    bases = [[list(col) for col in zip(*diagonal_shear((math.exp(t),), (s,)))] for t, s in cases]
    bases.append([[1.0, -0.0], [-0.0, 5.0]])
    return bases


# (box, shrink, first_only): shortest_sup_norm's cube, the support of the
# default tent, that of an off-center tent with mixed faces, and a
# first-hit walk
_PLANAR_WALKS = (
    (Box((1, 1), (True, True)), True, False),
    (Box((2.0, 2.0), (True, True)), False, False),
    (Box((2.0, 1.75), (True, False)), False, False),
    (Box((2.0, 2.0), (True, True)), False, True),
)


def _float_walk(cols, box, budget, shrink=False, first_only=False):
    """(leaves, warns) of lattice._walk on floats, in the form of
    _brute.float_walk_reference."""
    leaves = []

    def keep(point, xs):
        leaves.append((repr(point), tuple(xs)))
        return first_only

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lattice._walk(cols, box, FLOAT, budget, keep, shrink=shrink)
    return leaves, [(w.category, str(w.message)) for w in caught]


def test_planar_float_walk_matches_the_general_walk():
    # the two-level loop against the recursive walk, bit for bit: the same
    # points in the same order, with the same xs, the same warnings, and
    # the budget tripping at the same node
    shrunk = 0
    for cols in _sweep_bases():
        for box, shrink, first_only in _PLANAR_WALKS:
            leaves, nodes, warns = _brute.float_walk_reference(
                cols, box.bounds, box.closed, shrink=shrink, first_only=first_only)
            assert _float_walk(cols, box, nodes, shrink, first_only) == (leaves, warns)
            with pytest.raises(BudgetExceeded, match="exceeded %d nodes" % (nodes - 1)):
                _float_walk(cols, box, nodes - 1, shrink, first_only)
            shrunk += shrink and len(leaves) > 1
    assert shrunk > 100  # many cube walks find a second point after shrinking


@pytest.mark.parametrize("cols", [
    [[1.0, 0.0], [0.0, 1.0]],
    [[2.0, 0.0], [1.0, 0.5]],  # diag(2, 1/2) u(1/2), dyadic
])
@pytest.mark.parametrize("bound", [1.0, 2.0])
def test_planar_float_walk_warns_at_faces_as_the_general_walk(cols, bound):
    # both lattices have points exactly on the faces of both boxes
    for closed in ((True, True), (True, False), (False, True), (False, False)):
        for shrink in (False, True):
            box = Box((bound, bound), closed)
            leaves, nodes, warns = _brute.float_walk_reference(
                cols, box.bounds, closed, shrink=shrink)
            # a shrunk sphere may stop short of the faces of the larger box
            assert warns or shrink
            assert all(category is FaceProximity for category, _ in warns)
            assert _float_walk(cols, box, nodes, shrink) == (leaves, warns)


@pytest.mark.parametrize("n", [2, 3])
def test_face_warnings_name_the_lattice_module(n):
    # warn_if_near_face reports stacklevel=3: a line of lattice.py for the
    # planar loop and for the general walk alike
    cols = [[float(i == j) for i in range(n)] for j in range(n)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enumerate_basis_in_box(cols, Box((1.0,) * n, (True,) * n), FLOAT)
    assert caught
    assert {os.path.basename(w.filename) for w in caught} == {"lattice.py"}
