import inspect
import math
import pickle
import random
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latflow import diophantine, experiments, lattice, linalg
from latflow.backend import BackendMismatch, Rat
from latflow.algebra import (
    ExactMatrix,
    ExpansionRates,
    diagonal_shear,
    dual_involution,
    expanding_diagonal,
    row_unipotent,
)
from latflow.diophantine import (
    CorrespondenceReport,
    Curve,
    RouteDisagreement,
    WindowSpec,
    correspondence_check,
    minkowski_soluble,
    window_dual_soluble,
    window_primal_soluble,
)

from latflow.linalg import clear_denominators

import _brute


def test_curve_parse_eval_derivative():
    c = Curve.parse("s, s^2")
    assert c.k == 2 and c.degree == 2
    assert c.eval_exact(Rat(1, 2)) == (Rat(1, 2), Rat(1, 4))
    d = c.derivative()
    assert d.eval_exact(Rat(1, 2)) == (1, 1)
    assert Curve.parse("1/2*s + 3").eval_exact(2) == (4,)
    assert c.affine_span_full()
    assert not Curve.parse("s, 2*s").affine_span_full()  # a line in the plane


def test_curve_sample_points_exact():
    c = Curve.parse("s", domain=(0, 1))
    pts = c.sample_points(4)
    assert pts == [0, Rat(1, 4), Rat(1, 2), Rat(3, 4)]


def test_curve_eval_float_keeps_the_bits_of_per_call_conversion():
    # the float coefficients are taken once per curve; each value equals
    # Horner's rule on float(c) taken at every call, and the curve's
    # equality, repr and pickled copy do not see them
    rng = random.Random(71)
    for _ in range(200):
        k, degree = rng.randint(1, 3), rng.randint(0, 3)
        rows = [[Rat(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(k)]
                for _ in range(degree + 1)]
        c = Curve(rows)
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and hash(copy) == hash(Curve(rows)) and "_float" not in repr(c)
        for s in (rng.random(), Rat(rng.randint(0, 99), 100), 0, -0.0):
            want = [0.0] * k
            for row in reversed(c.coeffs):
                want = [v * float(s) + float(x) for v, x in zip(want, row)]
            assert repr(c.eval_float(s)) == repr(copy.eval_float(s)) == repr(tuple(want))


def test_window_validation():
    with pytest.raises(ValueError):
        WindowSpec((), 1)
    with pytest.raises(ValueError):
        WindowSpec((Rat(1, 2),), 1)  # weights must be >= 1
    with pytest.raises(ValueError):
        WindowSpec((2,), 2)  # radius capped at 1
    w = WindowSpec((3, 2), Rat(1, 2))
    assert w.total_weight() == 6


def _translate_matrix(system, window, phi):
    """The rational translate B of the system at phi, read from (D, D B)."""
    d, cols = diophantine._integral_translate(system, tuple(Rat(x) for x in phi), window)
    return ExactMatrix([[Rat(c[i], d) for c in cols] for i in range(len(cols))])


def test_translate_matrices_unimodular():
    w = WindowSpec((5, 3, 2), Rat(3, 4))
    phi = (Rat(1, 3), Rat(2), Rat(-1, 2))
    assert _translate_matrix("primal", w, phi).det() == 1
    assert _translate_matrix("dual", w, phi).det() == 1


class _ConstantCurve:
    """A curve at phi for every s: all that translate_lattice reads."""

    def __init__(self, phi):
        self.phi = tuple(phi)

    def eval_float(self, s):
        return self.phi


def test_closed_form_translates_equal_dense_products():
    # the entries written by formula equal diag @ shear, and are unimodular;
    # on floats bit for bit, the sign of every zero included.  The float
    # translate's columns, and its partner's, are those of the dense rows
    # diag @ shear and W (g^-1)^T W
    rng = random.Random(17)
    for _ in range(320):
        k = rng.randint(1, 4)
        n = k + 1
        rates = ExpansionRates.from_rates(sorted((rng.uniform(0.0, 30.0) for _ in range(k)), reverse=True))
        phi = [rng.choice((0.0, -0.0, -1.5, rng.uniform(-1e3, 1e3), -rng.random() * 1e-300))
               for _ in range(k)]
        shear = [[1.0] + phi] + [[1.0 if i == j else 0.0 for j in range(n)] for i in range(1, n)]
        dense = linalg.mat_mul(expanding_diagonal(rates), shear)
        assert repr(diagonal_shear(rates.weights, phi)) == repr(dense)
        cols, partner = experiments.translate_lattice(_ConstantCurve(phi), rates, 0.5, doubled=True)
        assert repr(cols) == repr(linalg.transpose(dense))
        it = linalg.transpose(linalg.inverse(dense, approx=True))
        flipped = [[it[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
        assert repr(partner) == repr(linalg.transpose(flipped))
        # the exact closed form is the primal translate
        weights = sorted((Rat(rng.randint(1, 10**4), rng.randint(1, 10)) + 1 for _ in range(k)), reverse=True)
        phi = [Rat(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(k)]
        total = WindowSpec(weights, 1).total_weight()
        dense = ExactMatrix.diagonal([total] + [1 / nj for nj in weights]) @ row_unipotent(phi)
        assert repr(_translate_matrix("primal", WindowSpec(weights, 1), phi)) == repr(dense)
    # the O(n) det check of a triangular translate accepts and rejects as
    # the full float det does, at det 1 +- 0.5e-9, 1 +- 2e-9 and nan
    for delta in (0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9, float("nan")):
        for _ in range(40):
            n = rng.randint(2, 5)
            diag = [rng.uniform(0.5, 2.0) for _ in range(n - 1)]
            last = 1.0 + delta
            for d in diag:
                last = last / d
            rows = [[0.0] * n for _ in range(n)]
            for i, d in enumerate(diag + [last]):
                rows[i][i] = d
                for j in range(i + 1, n):
                    rows[i][j] = rng.uniform(-5.0, 5.0)
            want = abs(linalg.det(rows, approx=True) - 1.0) <= 1e-9
            try:
                experiments._check_triangular_det(linalg.transpose(rows))
                got = True
            except ValueError:
                got = False
            assert got == want == (abs(delta) <= 1e-9), (delta, rows)
    for _ in range(320):
        k = rng.randint(1, 4)
        weights = [Rat(rng.randint(1, 10**4), rng.randint(1, 10)) + 1 for _ in range(k)]
        w = WindowSpec(weights, Rat(rng.randint(1, 100), 100))
        phi = [Rat(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(k)]
        total = w.total_weight()
        primal = ExactMatrix.diagonal([total] + [1 / nj for nj in weights])
        assert _translate_matrix("primal", w, phi) == primal @ row_unipotent(phi)
        dual = ExactMatrix.diagonal(weights[::-1] + [1 / total])
        assert _translate_matrix("dual", w, phi) == dual @ dual_involution(row_unipotent([-x for x in phi]))
        assert _translate_matrix("primal", w, phi).det() == 1
        assert _translate_matrix("dual", w, phi).det() == 1


def test_integral_translate_is_the_cleared_closed_form():
    # (D, D B) equals the dense product diag @ shear cleared of its
    # denominators, and the walk sees the box-normalised basis of B itself
    rng = random.Random(29)
    for case in range(240):
        k = 1 + case % 4
        weights = [rng.choice((Rat(1), Rat(rng.randint(1, 10**4), rng.randint(1, 10)) + 1))
                   for _ in range(k)]
        mu = Rat(rng.randint(1, 100), 100)
        w = WindowSpec(weights, mu)
        xi = tuple(rng.choice((Rat(0), Rat(-rng.randint(1, 9), rng.randint(1, 9)),
                               Rat(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)),
                               Rat(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))))
                   for _ in range(k))
        total = w.total_weight()
        dense = {
            "primal": ExactMatrix.diagonal([total] + [1 / x for x in weights])
            @ row_unipotent(xi),
            "dual": ExactMatrix.diagonal(weights[::-1] + [1 / total])
            @ dual_involution(row_unipotent([-x for x in xi])),
        }
        for system, m in dense.items():
            d, cols = diophantine._integral_translate(system, xi, w)
            assert [[Rat(c, d) for c in col] for col in cols] == [list(c) for c in m.columns()]
            assert (d, cols) == clear_denominators(m.columns())
            assert (lattice._integral_box_basis(cols, (mu * d,) * (k + 1))
                    == lattice._integral_box_basis(m.columns(), (mu,) * (k + 1)))


@pytest.mark.parametrize("system", ["primal", "dual"])
def test_integral_translate_refuses_a_doubled_diagonal_entry(system):
    # a window whose cached prod N is doubled: the corner entry of the
    # translate is off by 2 and the diagonal no longer multiplies to D^(k+1)
    w = WindowSpec((5, 3), Rat(3, 4))
    object.__setattr__(w, "_total", 2 * w.total_weight())
    with pytest.raises(ValueError, match="not unimodular"):
        diophantine._integral_translate(system, (Rat(1, 3), Rat(-2, 7)), w)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_solubility_routes_match_brute(seed):
    rng = random.Random(seed)
    k = rng.choice((1, 2))
    xi = tuple(Rat(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(k))
    w = WindowSpec(
        tuple(rng.randint(1, 5) for _ in range(k)),
        Rat(rng.randint(1, 4), 4),
    )
    ps, pw = window_primal_soluble(xi, w)
    ds, dw = window_dual_soluble(xi, w)
    assert ps == _brute.primal_soluble(xi, w.weights, w.radius)
    assert ds == _brute.dual_soluble(xi, w.weights, w.radius)
    if ps:
        p, q = pw
        err = abs(sum(qj * xj for qj, xj in zip(q, xi)) - p)
        assert err <= w.radius / w.total_weight()
        assert all(abs(Rat(qj)) < w.radius * nj for qj, nj in zip(q, w.weights))


def test_dirichlet_guarantee_at_full_radius():
    # mu = 1: the window volume (2 mu)^{k+1} meets Minkowski's 2^{k+1}
    # threshold exactly, and the closed head face absorbs the boundary
    # case, so the system is soluble at every point
    rng = random.Random(3)
    for _ in range(200):
        k = rng.choice((1, 2, 3))
        xi = tuple(Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
        w = WindowSpec(tuple(rng.randint(1, 7) for _ in range(k)), 1)
        ps, _ = window_primal_soluble(xi, w)
        ds, _ = window_dual_soluble(xi, w)
        assert ps and ds


def test_minkowski_soluble_on_unimodular_forms():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice((2, 3))
        forms = ExactMatrix(_brute.random_unimodular(rng, n))
        alphas = tuple(Rat(rng.randint(1, 4)) for _ in range(n))
        ok, x = minkowski_soluble(forms, alphas, 1)
        assert ok
        vals = _brute.mat_vec(forms.rows, x)
        assert abs(vals[0]) <= alphas[0]
        assert all(abs(v) < a for v, a in zip(vals[1:], alphas[1:]))


@pytest.mark.parametrize("mu", [Rat(1, 2), Rat(3, 4)])
def test_minkowski_soluble_below_full_radius_matches_brute_force(mu):
    # below radius 1 Minkowski's theorem guarantees nothing, so both answers
    # occur; the brute scan lists every point of the box |v_1| <= mu a_1,
    # |v_j| < mu a_j, and an integral bound puts lattice points on its faces
    rng = random.Random(int(mu * 8))
    answers = []
    for _ in range(120):
        n = rng.choice((2, 3))
        forms = ExactMatrix(_brute.random_unimodular(rng, n, ops=4))
        alphas = (Rat(rng.randint(1, 4), rng.randint(1, 2)),)
        while len(alphas) < n:
            a = Rat(rng.randint(1, 4), rng.randint(1, 2))
            if a != alphas[-1]:
                alphas += (a,)
        bounds = [mu * a for a in alphas]
        hits = _brute.enumerate_box_coeffs(forms.columns(), bounds, (True,) + (False,) * (n - 1))
        ok, x = minkowski_soluble(forms, alphas, mu)
        assert ok is bool(hits), (forms.rows, alphas)
        answers.append(ok)
        if not ok:
            assert x is None
            continue
        assert tuple(x) in {c for _, c in hits}
        vals = _brute.mat_vec(forms.rows, x)
        assert any(vals)
        assert abs(vals[0]) <= bounds[0]
        assert all(abs(v) < b for v, b in zip(vals[1:], bounds[1:]))
    assert 0 < answers.count(False) < len(answers)


def test_minkowski_refuses_float_backend():
    # float forms never reach the decision: the matrix refuses them when built
    with pytest.raises(BackendMismatch):
        minkowski_soluble(ExactMatrix([[1.0, 0.0], [0.0, 1.0]]), (1, 1))


def test_correspondence_random_instances():
    rng = random.Random(17)
    for _ in range(100):
        k = rng.choice((1, 2))
        xi = tuple(Rat(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k))
        w = WindowSpec(
            tuple(rng.randint(1, 6) for _ in range(k)),
            Rat(rng.randint(2, 4), 4),
        )
        rep = correspondence_check(xi, w)
        assert isinstance(rep, CorrespondenceReport)
        assert rep.ok


def test_known_insoluble_instance():
    # radius 19/20 with integer weights (10, 2): xi = (1/20, 1/2) admits no
    # nonzero solution; this is the control row of the half-integral scan
    w = WindowSpec((10, 2), Rat(19, 20))
    soluble, _ = window_primal_soluble((Rat(1, 20), Rat(1, 2)), w)
    assert not soluble
    # brute agrees
    assert not _brute.primal_soluble((Rat(1, 20), Rat(1, 2)), (10, 2), Rat(19, 20))


def test_improvability_fraction_frozen():
    # the AND event: both systems soluble at every weight row
    curve = Curve.parse("s, s^2")
    rows = [(10, 10), (100, 100)]
    points = [curve.eval_exact(s) for s in curve.sample_points(50)]
    assert _brute.improvability_fraction(points, rows, Rat(1, 2)) == Fraction(4, 25)
    # the library's deciders give the same AND flags, point by point
    windows = [WindowSpec(r, Rat(1, 2)) for r in rows]
    assert [
        all(
            window_primal_soluble(xi, w, route="lattice")[0]
            and window_dual_soluble(xi, w, route="lattice")[0]
            for w in windows
        )
        for xi in points
    ] == _brute.improvability_flags(points, rows, Rat(1, 2))


def test_improvability_fraction_monotone_in_rows():
    curve = Curve.parse("s, s^2")
    rows = [(10, 10), (100, 100), (1000, 1000)]
    points = [curve.eval_exact(s) for s in curve.sample_points(30)]
    fracs = [
        _brute.improvability_fraction(points, rows[:j], Rat(1, 2))
        for j in range(1, len(rows) + 1)
    ]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


# the cross-check gate: a route that lies, or a witness that fails
# substitution, must raise instead of returning an answer
_DECIDERS = {
    "primal": (window_primal_soluble, "_primal_direct"),
    "dual": (window_dual_soluble, "_dual_direct"),
}
_GATE_CASE = ((Rat(1, 3), Rat(1, 4)), WindowSpec((3, 2), 1))


@pytest.mark.parametrize("liar", ["direct", "lattice"])
@pytest.mark.parametrize("system", sorted(_DECIDERS))
def test_lying_route_raises_route_disagreement(monkeypatch, system, liar):
    decide, direct = _DECIDERS[system]
    xi, w = _GATE_CASE  # radius 1: soluble by Dirichlet, on both routes
    assert decide(xi, w, route="direct")[0] and decide(xi, w, route="lattice")[0]
    if liar == "direct":
        monkeypatch.setattr(diophantine, direct, lambda xi, w: (False, None))
    else:
        monkeypatch.setattr(diophantine, "enumerate_basis_in_box", lambda *a, **kw: [])
    with pytest.raises(RouteDisagreement, match="%s routes disagree" % system):
        decide(xi, w)


@pytest.mark.parametrize("route", ["auto", "direct"])
@pytest.mark.parametrize("system", sorted(_DECIDERS))
def test_witness_failing_substitution_raises(monkeypatch, system, route):
    decide, direct = _DECIDERS[system]
    xi, w = _GATE_CASE
    assert decide(xi, w)[0]
    zero = (0, (0,) * w.k)  # both witness shapes; never a solution
    monkeypatch.setattr(diophantine, direct, lambda xi, w: (True, zero))
    with pytest.raises(RouteDisagreement, match="%s witness failed substitution" % system):
        decide(xi, w, route=route)


def _primal_oracle(xi, weights, mu, witness):
    p, q = witness
    total = Fraction(1)
    for w in weights:
        total *= w
    err = abs(sum((Fraction(qj) * x for qj, x in zip(q, xi)), Fraction(0)) - p)
    return (err <= mu / total and all(abs(qj) < mu * w for qj, w in zip(q, weights))
            and (p != 0 or any(q)))


def _dual_oracle(xi, weights, mu, witness):
    q, ps = witness
    total = Fraction(1)
    for w in weights:
        total *= w
    if not abs(q) < mu * total:
        return False
    k = len(weights)
    for j in range(k):
        val, beta = abs(q * xi[j] + ps[j]), mu / weights[j]
        if (val > beta) if j == k - 1 else (val >= beta):
            return False
    return q != 0 or any(ps)


def _witness_case(rng):
    """A seeded window with a primal and a dual witness, each with its own
    point.  Half the windows have integral mu N_j and mu prod N, so that
    witnesses on those faces exist.  One coordinate of each point is solved
    for, so that the primal error is +-mu / prod N exactly or a random
    multiple of it, and one dual form sits exactly on its face +-mu / N_j,
    the others at random multiples.  A quarter of the witnesses put one
    |q_j|, or |q|, on or past its open face."""
    k = rng.randint(1, 3)
    mu = Rat(rng.randint(1, 12), 12)
    if rng.random() < 0.5:
        weights = [Rat(rng.randint(1, 6)) / mu for _ in range(k)]
    else:
        weights = [1 + Rat(rng.randint(0, 40), rng.randint(1, 5)) for _ in range(k)]
    window = WindowSpec(weights, mu)
    total = window.total_weight()

    def inside(bound):  # an integer of absolute value < bound, or one on or past it
        top = -((-bound.numerator) // bound.denominator)  # ceil
        if rng.random() < 0.25:
            return rng.choice((top, -top))
        return rng.randint(-(top - 1), top - 1)

    def offset(beta):
        return rng.choice((1, -1, Rat(rng.randint(-6, 6), 5))) * beta

    xi = [Rat(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(k)]
    q = [rng.randint(-(int(mu * w) - 1), int(mu * w) - 1) if int(mu * w) > 1 else 0
         for w in weights]
    j = rng.randrange(k)
    q[j] = inside(mu * weights[j]) or 1
    p = rng.randint(-3, 3)
    xi[j] = (p + offset(mu / total) - sum(q[i] * xi[i] for i in range(k) if i != j)) / q[j]
    primal_xi, primal = tuple(xi), (p, tuple(q))
    dq = inside(mu * total) or 1
    ps = [rng.randint(-3, 3) for _ in range(k)]
    face = rng.randrange(k)
    xi = [(offset(mu / w) if i == face else Rat(rng.randint(-4, 4), 5) * mu / w) - pi
          for i, (w, pi) in enumerate(zip(weights, ps))]
    return window, primal_xi, primal, tuple(x / dq for x in xi), (dq, tuple(ps))


def test_witness_checks_match_fraction_oracles():
    # the integer cross-multiplied checks decide as the Fraction comparisons,
    # on random witnesses and on witnesses exactly on each face
    rng = random.Random(61)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        w, pxi, primal, dxi, dual = _witness_case(rng)
        fw = [_brute.frac(x) for x in w.weights]
        fmu = _brute.frac(w.radius)
        got = diophantine._check_primal_witness(pxi, w, primal)
        assert got == _primal_oracle([_brute.frac(x) for x in pxi], fw, fmu, primal)
        verdicts[got] += 1
        got = diophantine._check_dual_witness(dxi, w, dual)
        assert got == _dual_oracle([_brute.frac(x) for x in dxi], fw, fmu, dual)
        verdicts[got] += 1
    assert min(verdicts.values()) > 1000


def test_witness_checks_on_faces():
    # primal: the error face mu / prod N is closed, every |q_j| < mu N_j open
    w = WindowSpec((4, Rat(5, 2)), Rat(1, 2))  # mu N = (2, 5/4), mu / prod N = 1/20
    check = diophantine._check_primal_witness
    assert check((Rat(1, 20), Rat(0)), w, (0, (1, 0)))
    assert check((Rat(-1, 20), Rat(0)), w, (0, (1, 0)))
    assert not check((Rat(1, 19), Rat(0)), w, (0, (1, 0)))
    assert check((Rat(0), Rat(1, 20)), w, (0, (1, 1)))
    assert not check((Rat(0), Rat(0)), w, (0, (2, 0)))  # |q_1| = mu N_1
    assert not check((Rat(0), Rat(0)), w, (0, (0, 0)))  # zero
    # dual: |q| < mu prod N open, the last form's face closed, the rest open
    dual = diophantine._check_dual_witness
    assert dual((Rat(0), Rat(1, 5)), w, (1, (0, 0)))  # |xi_2| = mu / N_2
    assert not dual((Rat(1, 8), Rat(0)), w, (1, (0, 0)))  # |xi_1| = mu / N_1
    assert dual((Rat(1, 9), Rat(0)), w, (1, (0, 0)))
    assert not dual((Rat(0), Rat(0)), w, (5, (0, 0)))  # |q| = mu prod N = 5
    assert dual((Rat(0), Rat(0)), w, (4, (0, 0)))
    assert not dual((Rat(0), Rat(0)), w, (0, (0, 0)))


# -- the direct loops on integers ------------------------------------------------


_DIRECT_CAP = 1500  # the largest loop cost the witness-identity test runs


def _direct_case(rng):
    """A seeded window and point for the witness-identity test: k = 1..3,
    negative and positive xi with denominators up to 40, and per weight an
    integer, a Fraction, or m / mu so that mu N_j = m is integral (the open
    face of |q_j| < mu N_j)."""
    k = rng.randint(1, 3)
    mu = Rat(rng.randint(1, 16), 16)
    weights = []
    for _ in range(k):
        kind = rng.randrange(3)
        if kind == 0:
            weights.append(Rat(rng.randint(1, 6)))
        elif kind == 1:
            weights.append(1 + Rat(rng.randint(0, 20), rng.randint(1, 4)))
        else:
            weights.append(Rat(rng.randint(1, 4)) / mu)
    xi = tuple(Rat(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(k))
    return xi, WindowSpec(weights, mu)


def _affordable(w):
    return max(diophantine._primal_direct_cost(w), diophantine._dual_direct_cost(w)) <= _DIRECT_CAP


def _assert_direct_matches_references(xi, w):
    args = (xi, w.weights, w.radius)
    primal = diophantine._primal_direct(xi, w)
    dual = diophantine._dual_direct(xi, w)
    assert primal == _brute.primal_direct_reference(*args), (xi, w)
    assert dual == _brute.dual_direct_reference(*args), (xi, w)
    return primal, dual


def test_direct_loops_match_fraction_references():
    # the integer loops return the same (soluble, witness) as the Fraction
    # loops they replaced, so every witness of the cross-check stays the same
    rng = random.Random(2323)
    runs, solubles = 0, 0
    while runs < 5000:
        xi, w = _direct_case(rng)
        if not _affordable(w):
            continue
        primal, dual = _assert_direct_matches_references(xi, w)
        runs += 1
        solubles += primal[0] + dual[0]
    assert 2000 < solubles < 8000


def test_direct_loops_on_faces():
    # hand-built witnesses exactly on a face: |q . xi - p| = mu / prod N and
    # |q xi_k + p_k| = mu / N_k are closed, so the loop finds a witness;
    # |q xi_j + p_j| = mu / N_j (j < k) and |q_j| = mu N_j are open, so the
    # candidate is never the witness returned
    rng = random.Random(2324)
    seen = {"primal closed": 0, "primal open": 0, "dual closed": 0, "dual open": 0}
    while min(seen.values()) < 100:
        w, pxi, primal, dxi, dual = _witness_case(rng)
        if not _affordable(w):
            continue
        mu, total, k = w.radius, w.total_weight(), w.k
        got = _assert_direct_matches_references(pxi, w)[0]
        p, q = primal
        if abs(sum(qj * x for qj, x in zip(q, pxi)) - p) == mu / total:
            if all(abs(qj) < mu * n for qj, n in zip(q, w.weights)):
                assert got[0]
                seen["primal closed"] += 1
            elif any(abs(qj) == mu * n for qj, n in zip(q, w.weights)):
                assert got[1] != primal
                seen["primal open"] += 1
        got = _assert_direct_matches_references(dxi, w)[1]
        dq, ps = dual
        on_face = [abs(dq * x + pj) == mu / n for x, pj, n in zip(dxi, ps, w.weights)]
        if any(on_face[:-1]):
            assert got[1] != dual
            seen["dual open"] += 1
        elif on_face[-1] and abs(dq) < mu * total:
            assert got[0]
            seen["dual closed"] += 1


def _q_visits(loop, xi, window):
    """(the loop's answer, the number of q it visits), counted as line
    events on the first line of the body of its `for q in` loop."""
    lines, start = inspect.getsourcelines(loop)
    body = start + 1 + next(i for i, s in enumerate(lines) if s.lstrip().startswith("for q in"))
    visits = 0

    def local(frame, event, arg):
        nonlocal visits
        visits += event == "line" and frame.f_lineno == body
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is loop.__code__ else None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        answer = loop(xi, window)
    finally:
        sys.settrace(old)
    return answer, visits


def _strict_count(bound):
    """The number of integers m with |m| < bound, by Fraction comparison."""
    return sum(1 for m in range(-int(bound) - 1, int(bound) + 2) if abs(m) < bound)


def test_direct_cost_is_the_number_of_q_visited():
    # windows with mu N_j (primal) or mu prod N (dual) integral, where an
    # open-face top that is off by one would show
    rng = random.Random(2325)
    insoluble = {"primal": 0, "dual": 0}
    for _ in range(300):
        k = rng.randint(1, 3)
        mu = Rat(rng.randint(1, 8), 8)
        xi = tuple(Rat(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(k))
        w = WindowSpec([Rat(rng.randint(1, 3)) / mu for _ in range(k)], mu)
        cost = diophantine._primal_direct_cost(w)
        count = 1
        for n in w.weights:
            count *= _strict_count(mu * n)
        assert cost == count
        (soluble, _), visits = _q_visits(diophantine._primal_direct, xi, w)
        assert visits <= cost and (soluble or visits == cost)
        insoluble["primal"] += not soluble
        rest = [1 + Rat(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(k - 1)]
        scale = mu * math.prod(rest)
        first = Rat(rng.randint(math.ceil(scale), math.ceil(scale) + 5)) / scale
        w = WindowSpec([first] + rest, mu)  # mu prod N is an integer
        assert (mu * w.total_weight()).denominator == 1
        cost = diophantine._dual_direct_cost(w)
        assert cost == _strict_count(mu * w.total_weight())
        (soluble, _), visits = _q_visits(diophantine._dual_direct, xi, w)
        assert visits <= cost and (soluble or visits == cost)
        insoluble["dual"] += not soluble
    assert min(insoluble.values()) >= 20


def _criterion_03_instances():
    rng = random.Random(303)
    out = []
    for _ in range(500):
        k = rng.choice((1, 2, 3))
        xi = tuple(Rat(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k))
        w = WindowSpec(tuple(rng.randint(1, 6) for _ in range(k)), Rat(rng.randint(1, 8), 8))
        out.append((xi, w))
    return out


def test_criterion_03_runs_both_routes_everywhere(monkeypatch):
    # every criterion-03 instance is cheap enough for the direct loop, so
    # the cross-check compares the two routes on all 500 of them
    calls = {"primal": 0, "dual": 0}
    for system, (_, name) in _DECIDERS.items():
        loop = getattr(diophantine, name)

        def counted(xi, w, system=system, loop=loop):
            calls[system] += 1
            return loop(xi, w)

        monkeypatch.setattr(diophantine, name, counted)
    for xi, w in _criterion_03_instances():
        correspondence_check(xi, w)
    assert calls == {"primal": 500, "dual": 500}


def _primal_drops_last(system, xi):
    return xi[:-1] + (Rat(0),) if system == "primal" else xi


def _dual_drops_last(system, xi):
    return xi[:-1] + (Rat(0),) if system == "dual" else xi


def _primal_uses_xi0(system, xi):
    return (xi[0],) * len(xi) if system == "primal" else xi


@pytest.mark.parametrize("mutant, raised", [
    (_primal_drops_last, {"primal": 52}),
    (_dual_drops_last, {"dual": 62}),
    (_primal_uses_xi0, {"primal": 36}),
])
def test_wrong_translate_raises_route_disagreement(monkeypatch, mutant, raised):
    # a lattice route on a wrong translate is caught by the direct route:
    # each mutant shear changes the lattice, and the cross-check raises on
    # the criterion-03 instances where the answers then differ
    translate = diophantine._integral_translate
    monkeypatch.setattr(
        diophantine, "_integral_translate",
        lambda system, xi, w: translate(system, mutant(system, xi), w),
    )
    counts = {}
    for xi, w in _criterion_03_instances():
        try:
            correspondence_check(xi, w)
        except RouteDisagreement as e:
            system = str(e).split()[0]
            assert str(e).startswith(system + " routes disagree")
            counts[system] = counts.get(system, 0) + 1
    assert counts == raised


_LATTICE_NAMES = {"_integral_translate", "enumerate_basis_in_box", "Box", "lattice",
                  "linalg", "ExactMatrix", "Rat", "rat", "Fraction"}


def _names_reached(fn):
    """Every name in the code of fn, of its nested code objects, and of the
    diophantine functions it names, recursively."""
    names, seen, todo = set(), set(), [fn.__code__]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        for name in code.co_names:
            helper = getattr(diophantine, name, None)
            if isinstance(helper, types.FunctionType) and helper.__module__ == diophantine.__name__:
                todo.append(helper.__code__)
    return names


@pytest.mark.parametrize("loop", ["_primal_direct", "_dual_direct"])
def test_direct_loops_share_nothing_with_the_lattice_route(loop):
    # the cross-check is only as independent as its routes: the direct loops
    # and their helpers name nothing of the lattice route and build no Fraction
    names = _names_reached(getattr(diophantine, loop))
    assert "_strict_top" in names  # the helpers are read too
    assert not names & _LATTICE_NAMES
    assert {"_integral_translate", "rat"} <= _names_reached(diophantine._decide)


@pytest.mark.parametrize("decide", [window_primal_soluble, window_dual_soluble])
def test_unknown_route_is_refused_by_name(monkeypatch, decide):
    # refused before any work: neither route is reached
    w = WindowSpec((2,), Rat(1, 2))
    for name in ("rat", "_integral_translate", "_primal_direct", "_dual_direct"):
        monkeypatch.setattr(diophantine, name, None)
    with pytest.raises(ValueError, match="^unknown route 'bogus'; choose auto, direct or lattice$"):
        decide((Rat(1, 3),), w, route="bogus")
