"""End-to-end acceptance checks, one test per criterion.

Every test prints a single [criterion-NN] PASS or FAIL line (visible with
pytest -s); tolerances and frozen values are pinned here and nowhere else.
Randomized sweeps use fixed seeds so failures reproduce exactly.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from latflow import (
    Box,
    Curve,
    ExactMatrix,
    GrowthSpec,
    Lattice,
    Rat,
    RateSchedule,
    RepSpace,
    Tent,
    WindowSpec,
    avoids_open_unit_box,
    block_transport_witness,
    correspondence_check,
    dual_involution,
    enumerate_in_box,
    equidistribution_siegel,
    improvability_scan,
    lemma_reports,
    minkowski_soluble,
    nondivergence_scan,
    rat,
    scan_radius_threshold,
    shear_invariance_scan,
    staircase_unimodular,
    unit_lower_elimination,
    varying_first_weight_scan,
    window_dual_soluble,
    window_primal_soluble,
)
import latflow.linalg as linalg

import _brute


@contextmanager
def criterion(num):
    try:
        yield
    except BaseException:
        print("[criterion-%02d] FAIL" % num)
        raise
    print("[criterion-%02d] PASS" % num)


def _rational_unimodular(rng, n):
    # a few rational shears keep det = 1; redraw until every entry has
    # numerator and denominator of height <= 8
    while True:
        rows = [[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)]
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            f = Rat(rng.randint(-2, 2), rng.randint(1, 3))
            rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
        g = ExactMatrix(rows)
        if all(
            abs(x.numerator) <= 8 and x.denominator <= 8
            for row in g.rows
            for x in row
        ):
            return g


def test_criterion_01_exact_enumeration_matches_oracle():
    with criterion(1):
        rng = random.Random(101)
        start = time.monotonic()
        done = 0
        while done < 200:
            n = rng.choice((2, 3))
            g = _rational_unimodular(rng, n)
            bounds = tuple(Rat(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(n))
            if _brute.scan_cost(g.columns(), bounds) > 30_000:
                continue  # keep the full coefficient scan affordable
            closed = tuple(rng.random() < 0.5 for _ in range(n))
            box = Box(bounds, closed)
            mine = sorted(tuple(x for x in p) for p in enumerate_in_box(Lattice(g), box))
            ref = _brute.enumerate_box(g.columns(), bounds, closed)
            assert [tuple(map(str, p)) for p in mine] == [
                tuple(map(str, p)) for p in ref
            ], (g.rows, bounds, closed)
            done += 1
        assert time.monotonic() - start < 30.0


def test_criterion_02_full_radius_solubility():
    # at radius 1 the window volume meets the 2^{k+1} threshold exactly and
    # the closed head face absorbs equality, so every instance is soluble
    with criterion(2):
        rng = random.Random(202)
        start = time.monotonic()
        for _ in range(400):
            k = rng.choice((1, 2, 3))
            xi = tuple(Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
            w = WindowSpec(tuple(rng.randint(1, 7) for _ in range(k)), 1)
            soluble, witness = window_primal_soluble(xi, w)
            assert soluble, (xi, w)
            p, q = witness
            err = abs(sum(qj * xj for qj, xj in zip(q, xi)) - p)
            assert err <= w.radius / w.total_weight()
            assert all(abs(Rat(qj)) < w.radius * nj for qj, nj in zip(q, w.weights))
        for _ in range(300):
            k = rng.choice((1, 2, 3))
            xi = tuple(Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
            w = WindowSpec(tuple(rng.randint(1, 7) for _ in range(k)), 1)
            soluble, _ = window_dual_soluble(xi, w)
            assert soluble, (xi, w)
        for _ in range(300):
            n = rng.choice((2, 3))
            forms = ExactMatrix(_brute.random_unimodular(rng, n))
            alphas = [Rat(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
            prod = Rat(1)
            for a in alphas:
                prod *= a
            if prod < 1:
                alphas[0] = alphas[0] / prod  # exact rescale to product 1
            ok, x = minkowski_soluble(forms, alphas, 1)
            assert ok, (forms.rows, alphas)
            vals = _brute.mat_vec(forms.rows, x)
            assert abs(vals[0]) <= alphas[0]
            assert all(abs(v) < a for v, a in zip(vals[1:], alphas[1:]))
        assert time.monotonic() - start < 60.0


def test_criterion_03_route_agreement():
    with criterion(3):
        rng = random.Random(303)
        for _ in range(500):
            k = rng.choice((1, 2, 3))
            xi = tuple(Rat(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k))
            w = WindowSpec(
                tuple(rng.randint(1, 6) for _ in range(k)),
                Rat(rng.randint(1, 8), 8),
            )
            rep = correspondence_check(xi, w)
            assert rep.ok, (xi, w, rep)


def test_criterion_04_staircase_elimination_certificates():
    with criterion(4):
        start = time.monotonic()
        for n in (2, 3, 4, 5):
            for w in itertools.product(range(1, 6), repeat=n - 1):
                g = staircase_unimodular(w)
                assert g.det() == 1, w
                assert all(x.denominator == 1 and x >= 0 for row in g.rows for x in row)
                h, u = unit_lower_elimination(g)
                assert (h @ g) == u
                for i in range(n):
                    assert h.rows[i][i] == 1
                    assert all(h.rows[i][j] == 0 for j in range(i + 1, n))
                    assert all(u.rows[i][j] == 0 for j in range(i))
                diag = Rat(1)
                for i in range(n):
                    diag *= u.rows[i][i]
                assert diag == 1
        assert time.monotonic() - start < 10.0


def test_criterion_05_unit_triangular_avoidance():
    with criterion(5):
        rng = random.Random(505)
        for _ in range(50):
            n = rng.choice((2, 3, 4))
            rows = [[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)]
            lower = rng.random() < 0.5
            for i in range(n):
                for j in range(n):
                    if (i > j) if lower else (i < j):
                        rows[i][j] = Rat(rng.randint(-6, 6), rng.randint(1, 3))
            g = ExactMatrix(rows)
            assert avoids_open_unit_box(Lattice(g)), g.rows
            assert avoids_open_unit_box(Lattice(dual_involution(g))), g.rows


def test_criterion_06_block_transport_witnesses():
    with criterion(6):
        for n in (2, 3, 4):
            for w in itertools.product(range(1, 5), repeat=n - 1):
                for lead in (1, 2):
                    if lead > len(w):
                        continue
                    wit = block_transport_witness(w, lead)
                    assert wit.ok, (w, lead, wit.checks)


def _affine_spanning_points(rng, n, m1):
    # m1+1 integer points supported on the first m1 of the n-1 coordinates,
    # redrawn until their differences span that copy of R^m1
    while True:
        pts = [
            tuple(rng.randint(-3, 3) for _ in range(m1)) + (0,) * (n - 1 - m1)
            for _ in range(m1 + 1)
        ]
        diffs = [[rat(p[i] - pts[0][i]) for i in range(m1)] for p in pts[1:]]
        if linalg.rank(diffs) == m1:
            return pts


def test_criterion_07_lemma_sweep_no_counterexamples():
    with criterion(7):
        rng = random.Random(707)
        start = time.monotonic()
        growth = GrowthSpec.simple([(1, 1), (1, 2)])
        one_block = GrowthSpec.simple([(1, 1)])
        for n in (3, 4):
            reps = [RepSpace(n, "wedge", d) for d in range(1, n)]
            reps.append(RepSpace(n, "adjoint"))
            configs = [(m,) for m in range(1, n)]
            configs += [(a, b) for a in range(1, n) for b in range(1, a)]
            for rep in reps:
                for sizes in configs:
                    for _ in range(20):
                        pts = _affine_spanning_points(rng, n, sizes[0])
                        if len(sizes) == 1:
                            r = lemma_reports(rep, sizes, one_block, pts)[1]
                            assert r.ok, (rep, sizes, pts, r.violations[:2])
                        else:
                            r1, r2 = lemma_reports(rep, sizes, growth, pts)
                            assert r1.ok, (rep, sizes, pts, r1.violations[:2])
                            assert r2.ok, (rep, sizes, pts, r2.violations[:2])
        # negative control: collinear points really do admit violations,
        # so the sweep above is not vacuous
        bad = lemma_reports(
            RepSpace(3, "adjoint"), (2,), one_block, [(0, 0), (1, 0), (2, 0)],
            require_spanning=False,
        )[1]
        assert not bad.ok and len(bad.violations) >= 1
        assert time.monotonic() - start < 300.0


def test_criterion_08_siegel_average_matches_reference():
    with criterion(8):
        start = time.monotonic()
        tent = Tent((0.0, 0.0), 2.0, 1.0)
        rows = equidistribution_siegel(
            Curve.parse("s"),
            RateSchedule.parse("i"),
            (8,),
            10_000,
            tent,
            grid="random",
            seed=0,
        )
        (row,) = rows
        assert abs(row.reference - 16.0 / 3.0) < 1e-9
        assert row.rel_gap <= 0.10, row
        assert time.monotonic() - start < 60.0


def test_criterion_09_short_vector_mass_stays_small():
    with criterion(9):
        rows = nondivergence_scan(
            Curve.parse("s"),
            RateSchedule.parse("i"),
            range(4, 9),
            (0.05,),
            2000,
            grid="random",
            seed=0,
        )
        assert {r.index for r in rows} == {4, 5, 6, 7, 8}
        for r in rows:
            assert r.fraction <= Fraction(1, 20), r


def test_criterion_10_improvability_fractions_decrease():
    with criterion(10):
        rows = improvability_scan(
            Curve.parse("s, s^2"),
            [(10**j, 10**j) for j in range(1, 7)],
            [Rat(1, 2)],
            100,
        )
        assert [r.prefix for r in rows] == list(range(7))
        fracs = [r.fraction for r in rows]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        # frozen on the default 100-point equispaced grid: exact answers for these rational inputs
        assert fracs[0] == 1
        assert fracs[1] == Fraction(51, 100)
        assert fracs[6] == Fraction(33, 100)
        assert fracs[6] < fracs[1] < fracs[0]


def test_criterion_11_half_integral_scan_threshold():
    with criterion(11):
        tail = (Rat(5, 2),)
        rep = varying_first_weight_scan(tail, (10, 100, 1000, 10000), Rat(19, 20))
        assert rep.all_soluble
        assert len(rep.rows) == 400
        thr, at_thr, _ = scan_radius_threshold(tail, (10, 100))
        assert thr == Rat(103, 128)
        assert at_thr.all_soluble
        below = varying_first_weight_scan(tail, (10, 100), thr - Rat(1, 128))
        assert not below.all_soluble
        # integer control: the same scan with tail (2,) keeps insoluble
        # grid points at radius 19/20, including (1/20, 1/2)
        ctrl = varying_first_weight_scan((Rat(2),), (10,), Rat(19, 20))
        assert not ctrl.all_soluble
        assert len(ctrl.insoluble) == 8
        assert (10, (Rat(1, 20), Rat(1, 2))) in ctrl.insoluble


def test_criterion_12_shear_invariance_defect():
    with criterion(12):
        tent2 = Tent((0.0, 0.0), 2.0, 1.0)
        rows = shear_invariance_scan(
            Curve.parse("s"),
            RateSchedule.parse("i"),
            (4, 8),
            (0.0, 1.0),
            2000,
            tent2,
            grid="random",
            seed=0,
        )
        by_key = {(r.index, r.t): r for r in rows}
        for i in (4, 8):
            assert by_key[(i, 0.0)].defect == 0.0  # shear at t=0 is exact
            assert by_key[(i, 0.0)].skipped == 0
        final = by_key[(8, 1.0)]
        assert final.defect <= 0.10 * final.sup_f, final
        # widening the frame: one curved case, where the defect must still
        # shrink between the two checkpoints (not asserted monotone in i)
        tent3 = Tent((0.0, 0.0, 0.0), 2.0, 1.0)
        rows3 = shear_invariance_scan(
            Curve.parse("s, s^2"),
            RateSchedule.parse("i, i"),
            (4, 8),
            (0.0, 1.0),
            400,
            tent3,
            grid="random",
            seed=0,
        )
        by3 = {(r.index, r.t): r for r in rows3}
        assert by3[(4, 0.0)].defect == 0.0
        assert by3[(8, 0.0)].defect == 0.0
        assert by3[(8, 1.0)].defect < by3[(4, 1.0)].defect
