import math
import random
import re
from fractions import Fraction

import pytest

from latflow.backend import Rat
from latflow.algebra import ExactMatrix, ExpansionRates, diagonal_shear, dual_involution
from latflow.constructions import block_transport_witness
from latflow import experiments, linalg
from latflow.diophantine import Curve, WindowSpec, window_dual_soluble, window_primal_soluble
from latflow.lattice import DEFAULT_NODE_BUDGET, Tent
from latflow.sequences import RateSchedule, float_expansion, layered_presentation
from latflow.experiments import (
    ImprovabilityRow,
    _aligning_element,
    equidistribution_siegel,
    improvability_scan,
    nondivergence_scan,
    sample_grid,
    shear_invariance_scan,
    translate_lattice,
)

import _brute


def test_sample_grid_equispaced_exact():
    c = Curve.parse("s", domain=(0, 1))
    pts = sample_grid(c, 5)
    assert pts == [0, Rat(1, 5), Rat(2, 5), Rat(3, 5), Rat(4, 5)]


def test_sample_grid_random_is_seeded_and_exact():
    c = Curve.parse("s", domain=(Rat(-1), Rat(1)))
    a = sample_grid(c, 10, "random", seed=0)
    b = sample_grid(c, 10, "random", seed=0)
    other = sample_grid(c, 10, "random", seed=1)
    assert a == b
    assert a != other
    # dyadic rationals in the domain, exact backend preserved
    for s in a:
        assert -1 <= s < 1
        den = int(s.denominator)
        assert den & (den - 1) == 0  # power of two
    with pytest.raises(ValueError):
        sample_grid(c, 10, "sobol")


def test_translate_lattice_unimodular_and_trivial_case():
    c = Curve.parse("0*s, 0*s")  # phi == 0
    rates = ExpansionRates.from_rates((0, 0))  # tau = 0
    cols = translate_lattice(c, rates, 1 / 3)
    assert all(type(x) is float for col in cols for x in col)
    assert cols == [[1.0 if i == j else 0.0 for i in range(3)] for j in range(3)]


def test_translate_lattice_doubled_partners():
    c = Curve.parse("s, s^2")
    rates = ExpansionRates((2.0, 2.0))
    cols, par = translate_lattice(c, rates, 0.5, doubled=True)
    # dyadic entries: the float partner is the exact W (g^-1)^T W
    exact = ExactMatrix([[Fraction(col[i]) for col in cols] for i in range(3)])
    assert par == [[float(x) for x in col] for col in dual_involution(exact).columns()]


def test_aligning_element_contract():
    # z = diag(lam, g, I) with lam * head @ g^-1 = e1, i.e. g[0] = lam*head
    for head in [(3.0, 4.0), (1.0, -2.0, 2.0), (0.25,)]:
        n = len(head) + 2
        z = _aligning_element(head, n)
        lam = z[0][0]
        m = len(head)
        for j in range(m):
            assert z[1][1 + j] == pytest.approx(lam * head[j], rel=1e-9)
        assert linalg.det(z, approx=True) == pytest.approx(1.0, abs=1e-9)
        # embedded block: identity outside the leading (m+1) square
        for i in range(m + 1, n):
            assert z[i][i] == 1.0


def test_aligning_element_none_cases():
    assert _aligning_element((0.0, 0.0), 4) is None  # zero head
    assert _aligning_element((-2.0,), 3) is None  # scalar block, negative


def test_aligning_element_commutes_with_anchored_flow():
    # anchored rates are constant on the leading block, so a_i restricted
    # there is lam * identity and z commutes with it
    z = _aligning_element((3.0, 4.0), 3)
    from latflow.algebra import expanding_diagonal

    a = expanding_diagonal(ExpansionRates.from_rates((2.0, 2.0)))
    left = linalg.mat_mul(z, a)
    right = linalg.mat_mul(a, z)
    for i in range(3):
        for j in range(3):
            assert left[i][j] == pytest.approx(right[i][j], rel=1e-12, abs=1e-12)


def test_equidistribution_small_run():
    schedule = RateSchedule.parse("i")
    tent = Tent((0.0, 0.0), 2.0, 1.0)
    rows = equidistribution_siegel(
        Curve.parse("s"), schedule, (3, 5), 80, tent, grid="random", seed=0
    )
    assert [r.index for r in rows] == [3, 5]
    assert all(r.count == 80 for r in rows)
    assert rows[0].reference == pytest.approx(16.0 / 3.0)
    # the i = 5 average sits within a loose sanity band
    assert rows[1].rel_gap < 0.5


def test_equidistribution_doubled_squares_reference():
    schedule = RateSchedule.parse("i")
    tent = Tent((0.0, 0.0), 2.0, 1.0)
    rows = equidistribution_siegel(
        Curve.parse("s"), schedule, (4,), 40, tent, doubled=True, grid="random", seed=0
    )
    assert rows[0].reference == pytest.approx((16.0 / 3.0) ** 2)


def test_nondivergence_small_run():
    schedule = RateSchedule.parse("i")
    rows = nondivergence_scan(
        Curve.parse("s"), schedule, (3, 4), (0.05, 0.5), 60, grid="random", seed=0
    )
    assert len(rows) == 4
    for r in rows:
        assert 0 <= r.below <= r.count
        assert r.fraction == Fraction(r.below, r.count)
    # the 0.05 fraction can only be smaller than the 0.5 one
    by_index = {}
    for r in rows:
        by_index.setdefault(r.index, {})[r.eps] = r.fraction
    for fracs in by_index.values():
        assert fracs[0.05] <= fracs[0.5]


def test_improvability_scan_frozen_fractions():
    # scan event: the translate PAIR misses the joint avoidance set, i.e.
    # primal OR dual soluble; the oracle's improvability_fraction is the
    # stricter AND event, so the scan fraction dominates it on the same grid
    curve = Curve.parse("s, s^2")
    rows_spec = [(10, 10), (100, 100)]
    rows = improvability_scan(curve, rows_spec, [Rat(1, 2)], 50)
    assert rows[0].prefix == 0 and rows[0].fraction == 1
    full = [r for r in rows if r.prefix == len(rows_spec)][0]
    assert full.fraction == Fraction(13, 25)
    points = [curve.eval_exact(s) for s in curve.sample_points(50)]
    both = _brute.improvability_fraction(points, rows_spec, Rat(1, 2))
    assert both == Fraction(4, 25)
    assert full.fraction >= both
    # nonincreasing along prefixes
    fracs = [r.fraction for r in sorted(rows, key=lambda r: r.prefix)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def _improvability_every_window(curve, weight_rows, mu_list, count):
    """improvability_scan's rows with every window of every sample decided."""
    points = [curve.eval_exact(s) for s in sample_grid(curve, count)]
    out = []
    for mu in mu_list:
        windows = [WindowSpec(r, mu) for r in weight_rows]
        flags = [
            [window_primal_soluble(xi, w, route="lattice")[0]
             or window_dual_soluble(xi, w, route="lattice")[0] for w in windows]
            for xi in points
        ]
        out.append(ImprovabilityRow(mu, 0, count, count, Fraction(1)))
        for L in range(1, len(windows) + 1):
            hits = sum(1 for f in flags if all(f[:L]))
            out.append(ImprovabilityRow(mu, L, hits, count, Fraction(hits, count)))
    return out


_DEFAULT_ROWS = [(10**e, 10**e) for e in range(1, 7)]


@pytest.mark.parametrize("weight_rows, mu_list, count, threads", [
    (_DEFAULT_ROWS, [Rat(1, 2), Rat(3, 4)], 100, 1),
    (_DEFAULT_ROWS, [Rat(1, 2), Rat(3, 4)], 100, 2),
    ([(10, 10), (100, 100), (1000, 1000)], [Rat(1, 2)], 100, 1),
])
def test_improvability_matches_every_window_reference(weight_rows, mu_list, count, threads):
    # a sample stops at its first window where both systems are insoluble;
    # every prefix through that window already fails, so no row moves
    curve = Curve.parse("s,s^2")
    want = _improvability_every_window(curve, weight_rows, mu_list, count)
    assert improvability_scan(curve, weight_rows, mu_list, count, threads=threads) == want


def test_improvability_decides_up_to_the_first_failed_window(monkeypatch):
    # the default command: 100 samples, six weight rows, radius 1/2.  Every
    # window decided would be 600 primal and 124 dual decisions
    calls = {"primal": 0, "dual": 0}

    def counted(side, decide):
        def run(*args, **kwargs):
            calls[side] += 1
            return decide(*args, **kwargs)
        return run

    monkeypatch.setattr(experiments, "window_primal_soluble",
                        counted("primal", experiments.window_primal_soluble))
    monkeypatch.setattr(experiments, "window_dual_soluble",
                        counted("dual", experiments.window_dual_soluble))
    rows = improvability_scan(Curve.parse("s,s^2"), _DEFAULT_ROWS, [Rat(1, 2)], 100)
    assert [r.fraction for r in rows] == [1, Fraction(51, 100)] + [Fraction(33, 100)] * 5
    assert calls == {"primal": 283, "dual": 92}


def test_shear_scan_zero_twist_is_exact():
    schedule = RateSchedule.parse("i")
    tent = Tent((0.0, 0.0), 2.0, 1.0)
    rows = shear_invariance_scan(
        Curve.parse("s"), schedule, (4,), (0.0, 0.5), 60, tent, grid="random", seed=0
    )
    t0 = [r for r in rows if r.t == 0.0][0]
    assert t0.defect == 0.0  # same lattice list, same sum, bit for bit
    assert t0.used == 60 and t0.skipped == 0
    t5 = [r for r in rows if r.t == 0.5][0]
    assert t5.sup_f == 1.0
    assert t5.defect >= 0.0


def test_shear_scan_skips_negative_scalar_heads():
    # phi(s) = -s has derivative -1 everywhere: no aligning element exists
    # in the scalar-block case, so every sample is skipped
    schedule = RateSchedule.parse("i")
    tent = Tent((0.0, 0.0), 2.0, 1.0)
    with pytest.raises(ValueError):
        shear_invariance_scan(
            Curve.parse("-s"), schedule, (4,), (0.0,), 20, tent
        )
    # on a domain straddling zero, half the derivative signs survive
    mixed = Curve.parse("s^2", domain=(Rat(-1), Rat(1)))
    rows = shear_invariance_scan(
        mixed, schedule, (4,), (0.0,), 21, tent
    )
    assert rows[0].skipped > 0
    assert rows[0].used + rows[0].skipped == 21


def test_shear_scan_refuses_overflowing_heads():
    # a derivative of size 1e200 overflows |head|^2, so the aligning element
    # comes out as nan; the scan stops instead of averaging garbage
    curve = Curve(((0, 0), (10**200, 10**200)))
    tent = Tent((0.0,) * 3, 2.0, 1.0)
    with pytest.raises(ValueError, match="not in SL_3"):
        shear_invariance_scan(
            curve, RateSchedule.parse("i, i"), (4,), (0.0,), 3, tent
        )


def _reference_shear_rows(curve, schedule, indices, t_list, count, tent, seed):
    """shear_invariance_scan's rows on a random grid, from _brute.shear_at,
    which builds the diagonal and every row shear at each sample."""
    pres = layered_presentation(schedule)
    svals = [float(s) for s in sample_grid(curve, count, "random", seed)]
    deriv = curve.derivative()
    rows = []
    for i in indices:
        job = (curve, deriv, float_expansion(pres.anchored, i), tent, t_list,
               pres.block_sizes[-1], DEFAULT_NODE_BUDGET)
        used = [v for v in (_brute.shear_at(job, s) for s in svals) if v is not None]
        base = sum(v[0] for v in used) / len(used)
        for pos, t in enumerate(t_list):
            sheared = sum(v[1][pos] for v in used) / len(used)
            rows.append(experiments.ShearRow(i, t, len(used), count - len(used), base, sheared,
                                             abs(sheared - base), tent.height))
    return rows


@pytest.mark.parametrize("t_list", [(0.0, 1.0), (1.0, 0.0, -2.5, 1.0), (-0.0, 3.0)])
@pytest.mark.parametrize("curve, sequence, indices", [
    ("s", "i", (2, 5)),
    ("s,s^2", "i,i", (2, 3)),
])
def test_shear_scan_rows_match_the_per_sample_shears(t_list, curve, sequence, indices):
    # the diagonal and the row shears built once per job give the rows of
    # building both at every sample, under repr; a t of -0.0 is the base
    curve, schedule = Curve.parse(curve), RateSchedule.parse(sequence)
    tent = Tent((0.0,) * (curve.k + 1), 2.0, 1.0)
    rows = shear_invariance_scan(curve, schedule, indices, t_list, 12, tent, grid="random", seed=0)
    want = _reference_shear_rows(curve, schedule, indices, t_list, 12, tent, 0)
    assert repr(rows) == repr(want)
    assert all(r.used > 0 and (r.defect > 0) == (r.t != 0) for r in rows)


def _no_work(*args, **kwargs):
    raise AssertionError("the scan started work before refusing its input")


@pytest.mark.parametrize("t, shown", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
def test_shear_scan_refuses_a_non_finite_t_before_any_work(monkeypatch, t, shown):
    # an infinite twist used to reach the determinant check, which blamed
    # the basis: "basis is not unimodular (det = 0.0)"
    monkeypatch.setattr(experiments, "layered_presentation", _no_work)
    monkeypatch.setattr(experiments, "sample_grid", _no_work)
    tent = Tent((0.0, 0.0), 2.0, 1.0)
    with pytest.raises(ValueError, match=r"^shear t must be finite, got %s$" % shown):
        shear_invariance_scan(Curve.parse("s"), RateSchedule.parse("i"), (2,), (0.0, t), 5, tent)


def test_improvability_scan_refuses_a_row_of_another_length_before_any_work(monkeypatch):
    # a one-weight row on a 2-D curve used to fail inside the first window
    # decision with "point/window dimension mismatch"
    monkeypatch.setattr(experiments, "sample_grid", _no_work)
    curve = Curve.parse("s,s^2")
    for rows, shown in [
        ([(10,)], "weight row 1 (10) has 1 weights; the curve has dimension 2"),
        ([(10, 10), (1, Rat(5, 2), 3)], "weight row 2 (1,5/2,3) has 3 weights; the curve has dimension 2"),
    ]:
        with pytest.raises(ValueError, match="^%s$" % re.escape(shown)):
            improvability_scan(curve, rows, [Rat(1, 2)], 3)


def _left_to_right(start, xs):
    for x in xs:
        start = start * x
    return start


def test_products_keep_the_bits_of_the_left_to_right_loop(monkeypatch):
    # math.prod multiplies in order from the int 1, and 1 * x == x exactly:
    # each product site equals the loop it replaced, in repr, on seeded
    # magnitudes across the float range, with products that overflow to
    # inf or round to -0.0
    rng = random.Random(2706)

    def draw(low, signed):
        x = 10.0 ** rng.uniform(low, 200)
        return -x if signed and rng.random() < 0.5 else x

    signed = [[draw(-200, True) for _ in range(rng.randint(1, 6))] for _ in range(300)]
    signed += [[1e200, 1e200], [-1e-200, 1e-200], [1e300, -1e300, 1e-300], [math.inf, -2.0]]
    assert any(repr(_left_to_right(1.0, xs)) == "-0.0" for xs in signed)
    assert any(_left_to_right(1.0, xs) == -math.inf for xs in signed)
    integrals = []
    for xs in signed:
        shear = diagonal_shear(xs, [0.0] * len(xs))
        assert repr(shear[0][0]) == repr(_left_to_right(xs[0], xs[1:]))
        rates = sorted((abs(x) + 1.0 for x in xs), reverse=True)
        assert repr(ExpansionRates(rates).total_weight()) == repr(_left_to_right(rates[0], rates[1:]))
        radius, height, n = abs(xs[0]), abs(xs[-1]), len(xs)
        if radius < math.inf and height < math.inf:
            want = _left_to_right(height, [2 * radius] * n) / (n + 1)
            integrals.append(Tent((0.0,) * n, radius, height).integral())
            assert repr(integrals[-1]) == repr(want)
    assert math.inf in integrals and 0.0 in integrals

    seen = []
    monkeypatch.setattr(experiments, "_check_det", seen.append)
    for xs in signed + [[-0.0, 3.0], [math.nan, 2.0]]:
        cols = [[x if i == j else 0.5 for i in range(len(xs))] for j, x in enumerate(xs)]
        experiments._check_triangular_det(cols)
        assert repr(seen.pop()) == repr(_left_to_right(1.0, xs))

    for _ in range(40):
        w = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        rats = [Rat(x, rng.randint(1, x)) for x in w]
        total = WindowSpec(rats, 1).total_weight()
        assert type(total) is Fraction and repr(total) == repr(_left_to_right(Rat(1), rats))
        m = rng.randint(0, len(w))
        want = _left_to_right(Rat(1), [1] * m + w[m:])
        diag = block_transport_witness(w, m).diag.rows
        assert repr(diag[0][0]) == repr(want)


def test_thread_determinism():
    # two indices (two mu values) per call, so one pool serves several jobs
    schedule = RateSchedule.parse("i")
    tent = Tent((0.0, 0.0), 2.0, 1.0)
    curve = Curve.parse("s")
    eq1 = equidistribution_siegel(curve, schedule, (3, 4), 40, tent, threads=1)
    eq2 = equidistribution_siegel(curve, schedule, (3, 4), 40, tent, threads=2)
    assert eq1 == eq2
    nd1 = nondivergence_scan(curve, schedule, (3, 4), (0.1,), 40, threads=1)
    nd2 = nondivergence_scan(curve, schedule, (3, 4), (0.1,), 40, threads=2)
    assert nd1 == nd2
    mus = [Rat(1, 2), Rat(3, 4)]
    im1 = improvability_scan(curve, [(10,)], mus, 30, threads=1)
    im2 = improvability_scan(curve, [(10,)], mus, 30, threads=2)
    assert im1 == im2
    sh1 = shear_invariance_scan(curve, schedule, (3, 4), (0.5,), 30, tent, threads=1)
    sh2 = shear_invariance_scan(curve, schedule, (3, 4), (0.5,), 30, tent, threads=2)
    assert sh1 == sh2


def _float_drivers(curve, schedule, tent):
    return [
        lambda idx, count, **kw: equidistribution_siegel(
            curve, schedule, idx, count, tent, **kw),
        lambda idx, count, **kw: nondivergence_scan(
            curve, schedule, idx, (0.1, 0.5), count, **kw),
        lambda idx, count, **kw: shear_invariance_scan(
            curve, schedule, idx, (0.0, 0.5), count, tent, **kw),
    ]


def test_drivers_take_a_tent_on_either_backend():
    # a tent built from exact scalars holds their floats, so the sweeps
    # answer as for the float tent
    curve = Curve.parse("s")
    schedule = RateSchedule.parse("i")
    exact = Tent((0, Rat(1, 4)), Rat(2), Rat(1, 2))
    flt = Tent((0.0, 0.25), 2.0, 0.5)
    assert exact == flt
    got, want = (_float_drivers(curve, schedule, t) for t in (exact, flt))
    for a, b in zip(got, want):
        assert a((3, 4), 20) == b((3, 4), 20)
        # the rows over several indices are the rows of each index in turn,
        # in one process or through the pool
        for threads in (1, 2):
            assert a((3, 4), 20, threads=threads) == (
                a((3,), 20, threads=threads) + a((4,), 20, threads=threads))


def test_one_process_pool_per_call(monkeypatch):
    from latflow import experiments

    made = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    curve = Curve.parse("s")
    tent = Tent((0.0, 0.0), 2.0, 1.0)
    runs = _float_drivers(curve, RateSchedule.parse("i"), tent) + [
        lambda idx, count, **kw: improvability_scan(
            curve, [(10,)], [Rat(1, 2), Rat(2, 3), Rat(3, 4)], count, **kw),
    ]
    for run in runs:
        made.clear()
        run((3, 4, 5), 6, threads=2)
        assert made == [2]
        # never more workers than samples
        made.clear()
        run((3, 4, 5), 2, threads=3)
        assert len(made) == 1 and made[0] <= 2
