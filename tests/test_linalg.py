import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest

from latflow import diophantine, lattice
from latflow.algebra import diagonal_shear
from latflow.diophantine import WindowSpec
from latflow.backend import BackendMismatch, LLLIterationCap, Rat
from latflow.linalg import (
    clear_denominators,
    det,
    gram_schmidt,
    inverse,
    kernel_basis,
    lll_integral,
    lll_reduce,
    rank,
    rref,
)

import _brute


def _random_basis(rng, n):
    """A rational basis normalised by an anisotropic box, the way the
    enumeration feeds LLL: a random unimodular matrix with tiny and huge
    denominators sprinkled in, each coordinate divided by its box bound."""
    rows = _brute.random_unimodular(rng, n, ops=8, max_mult=3)
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.3:
                den = rng.choice((2, 3, 7, 10**9, 2**61 - 1, 10**30 + 57))
                rows[i][j] += Fraction(rng.randint(-den, den), den)
    bounds = [Fraction(rng.randint(1, 9), 10 ** rng.randint(0, 6)) * 10 ** rng.randint(0, 6)
              for _ in range(n)]
    cols = [[Fraction(rows[i][j]) / bounds[i] for i in range(n)] for j in range(n)]
    if det([[cols[j][i] for j in range(n)] for i in range(n)]) == 0:
        return _random_basis(rng, n)
    return cols


def _mul(cols, u_cols):
    n = len(cols)
    return [[sum(cols[k][i] * uc[k] for k in range(n)) for i in range(n)] for uc in u_cols]


def _check_integers(reduced, lam, d):
    """lam = d mu and c_i = d_{i+1} / d_i, against gram_schmidt."""
    n = len(reduced)
    _, mu, c = gram_schmidt([[Fraction(x) for x in col] for col in reduced])
    assert d[0] == 1
    assert all(lam[i][j] == d[j + 1] * mu[i][j] for i in range(n) for j in range(i))
    assert [Fraction(d[i + 1], d[i]) for i in range(n)] == c
    return mu, c


@pytest.mark.parametrize("seed", range(12))
def test_exact_lll_matches_reference_loop(seed):
    rng = random.Random(seed)
    for n in (2, 3, 4, 5):
        _, cols = clear_denominators(_random_basis(rng, n))
        reduced, u, lam, d = lll_integral(cols)
        assert (reduced, u) == _brute.lll_reference(cols)
        assert _mul(cols, u) == reduced
        assert det([[Fraction(u[j][i]) for j in range(n)] for i in range(n)]) in (1, -1)
        mu, c = _check_integers(reduced, lam, d)
        for k in range(1, n):
            assert all(-Fraction(1, 2) <= mu[k][j] < Fraction(1, 2) for j in range(k))
            assert c[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * c[k - 1]


def _sparse_integral_basis(rng, n):
    """Independent integer columns, about 40% of the entries zero and the
    others of up to 13 digits."""
    while True:
        cols = [[0 if rng.random() < 0.4 else rng.randint(-9, 9) * 10 ** rng.randint(0, 12)
                 for _ in range(n)] for _ in range(n)]
        if det([[cols[j][i] for j in range(n)] for i in range(n)]) != 0:
            return cols


def _outcome(f, cols, **kwargs):
    try:
        return f(cols, **kwargs)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(8))
def test_exact_lll_matches_the_fresh_list_reference(seed):
    # the in-place updates return the integers the fresh lists give
    rng = random.Random(3100 + seed)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            cols = _sparse_integral_basis(rng, n)
            assert lll_integral(cols) == _brute.lll_integral_reference(cols)
        _, cols = clear_denominators(_random_basis(rng, n))
        assert lll_integral(cols) == _brute.lll_integral_reference(cols)


def test_exact_lll_matches_the_reference_on_window_translates():
    # the columns the window deciders reduce: both integral translates of a
    # batch of random windows, as given and normalised by the window box
    rng = random.Random(3101)
    for _ in range(150):
        k = rng.choice((1, 2, 3))
        xi = tuple(Rat(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k))
        window = WindowSpec(tuple(rng.randint(1, 6) for _ in range(k)), Rat(rng.randint(1, 8), 8))
        for system in ("primal", "dual"):
            d, cols = diophantine._integral_translate(system, xi, window)
            _, scaled = lattice._integral_box_basis(cols, (window.radius * d,) * (k + 1))
            for c in (cols, scaled):
                assert lll_integral(c) == _brute.lll_integral_reference(c)


def test_exact_lll_fails_as_the_reference_does():
    # dependent columns, and the pass cap at one and two passes
    for cols in ([[2, 4], [1, 2]], [[0, 0], [1, 0]], [[1, 0, 2], [0, 1, 0], [3, 0, 6]],
                 [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        want = _outcome(_brute.lll_integral_reference, cols)
        assert want == (ValueError, "linearly dependent columns")
        assert _outcome(lll_integral, cols) == want
    rng = random.Random(3102)
    capped = 0
    for n in (2, 3, 4, 5):
        for _ in range(10):
            cols = _sparse_integral_basis(rng, n)
            for iters in (1, 2):
                want = _outcome(_brute.lll_integral_reference, cols, max_iters=iters)
                assert _outcome(lll_integral, cols, max_iters=iters) == want
                capped += want == (RuntimeError, "LLL failed to terminate")
    assert capped > 40


def _float_basis(rng, n):
    """A float basis as the sweeps feed LLL: half of them the translate
    diag(prod w, 1/w_1, ...) u(phi) with log-weights up to 12, the rest a
    random unimodular matrix with float jitter."""
    if rng.random() < 0.5:
        weights = sorted((math.exp(rng.uniform(0.0, 12.0)) for _ in range(n - 1)), reverse=True)
        phi = [rng.uniform(-2.0, 2.0) for _ in range(n - 1)]
        return [list(col) for col in zip(*diagonal_shear(weights, phi))]
    rows = _brute.random_unimodular(rng, n, ops=8, max_mult=3)
    return [[rows[i][j] + rng.uniform(-0.5, 0.5) for i in range(n)] for j in range(n)]


@pytest.mark.parametrize("seed", range(4))
def test_float_lll_matches_full_recompute_loop(seed):
    # incremental Gram-Schmidt is the same arithmetic as a full pass after
    # every change: reduced basis, U, mu and c agree to the last bit, also
    # when the iteration cap stops the loop early
    rng = random.Random(1000 + seed)
    for case in range(600):
        n = 2 + case % 4
        cols = _float_basis(rng, n)
        cap = rng.randint(1, 6) if case % 10 == 0 else 100_000
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LLLIterationCap)
            got = lll_reduce(cols, max_iters=cap)
        assert repr(got) == repr(_brute.lll_float_reference(cols, max_iters=cap))


def test_float_lll_warns_at_its_iteration_cap():
    long_first = [[5.0, 0.0], [0.0, 3.0]]  # one swap, so two passes
    with pytest.warns(LLLIterationCap):
        capped = lll_reduce(long_first, max_iters=1)
    assert repr(capped) == repr(_brute.lll_float_reference(long_first, max_iters=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", LLLIterationCap)
        assert lll_reduce(long_first, max_iters=2)[0] == [[0.0, 3.0], [5.0, 0.0]]
        rng = random.Random(99)
        for case in range(200):  # the default cap is never reached here
            lll_reduce(_float_basis(rng, 2 + case % 4))


def test_planar_float_lll_matches_reference_on_sweep_translates():
    # the planar loop against the full-recompute loop on the translates
    # diag(e^t, e^-t) u(s) the sweeps reduce, at the default cap and at
    # every cap that stops it early
    rng = random.Random(2020)
    cases = [(rng.uniform(0.0, 12.0), rng.uniform(-1.0, 1.0)) for _ in range(2000)]
    cases += [(t, 0.0) for t in (0.0, 1.0, 6.5, 12.0)]
    bases = [[list(col) for col in zip(*diagonal_shear((math.exp(t),), (s,)))] for t, s in cases]
    # signed zeros: mu_10 = -0.0, which the reference's sums keep too
    bases.append([[1.0, -0.0], [-0.0, 5.0]])
    for cols in bases:
        for cap in (1, 2, 3, 4, 5, 6, 100_000):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LLLIterationCap)
                got = lll_reduce(cols, max_iters=cap)
            assert repr(got) == repr(_brute.lll_float_reference(cols, max_iters=cap))


def test_planar_float_lll_half_ties():
    # the float twins of test_exact_lll_half_ties: mu = +1/2 is reduced
    # (q = 1), mu = -1/2 too, as q rounds halves away from 0
    for cols in ([[2.0, 0.0], [1.0, 5.0]], [[2.0, 0.0], [-1.0, 5.0]]):
        got = lll_reduce(cols)
        assert repr(got) == repr(_brute.lll_float_reference(cols))
    assert lll_reduce([[2.0, 0.0], [1.0, 5.0]])[:2] == ([[2.0, 0.0], [-1.0, 5.0]], [[1, 0], [-1, 1]])
    assert lll_reduce([[2.0, 0.0], [-1.0, 5.0]])[:2] == ([[2.0, 0.0], [1.0, 5.0]], [[1, 0], [1, 1]])


@pytest.mark.parametrize("dependent", [
    [[0.0, 0.0], [1.0, 0.0]],
    [[1.0, 2.0], [2.0, 4.0]],
    [[2.0, 0.0], [1.0, 0.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
])
def test_float_lll_refuses_dependent_columns(dependent):
    # refused before the first pass, so also under a cap of one pass that
    # a reduction and swap would reach first
    for cap in (1, 100_000):
        with pytest.raises(ValueError, match="linearly dependent columns"):
            lll_reduce(dependent, max_iters=cap)


@pytest.mark.parametrize("long_first", [
    [[5.0, 0.0], [0.0, 3.0]],
    [[5.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]],
])
def test_float_lll_cap_warning_names_the_caller(long_first):
    # the planar loop and the general loop both point the warning at the
    # caller of lll_reduce
    with pytest.warns(LLLIterationCap) as record:
        lll_reduce(long_first, max_iters=1)
    assert [w.filename for w in record] == [__file__]


def test_exact_lll_half_ties():
    # mu = +1/2 is reduced (q = 1), mu = -1/2 is left alone (q = 0)
    plus, u, lam, d = lll_integral([[2, 0], [1, 5]])
    assert plus == [[2, 0], [-1, 5]] and Fraction(lam[1][0], d[1]) == Fraction(-1, 2)
    minus, u, lam, d = lll_integral([[2, 0], [-1, 5]])
    assert minus == [[2, 0], [-1, 5]] and u == [[1, 0], [0, 1]]
    _check_integers(minus, lam, d)


def test_exact_lll_integer_input_stays_integral():
    reduced, u, lam, d = lll_integral([[1, 0, 0], [7, 1, 0], [3, 9, 1]])
    assert all(type(x) is int for m in (reduced, u, lam) for col in m for x in col)
    assert all(type(x) is int for x in d)
    _check_integers(reduced, lam, d)


def test_exact_lll_iteration_cap_raises():
    long_first = [[5, 0], [0, 3]]  # one swap, so two passes
    assert lll_integral(long_first, max_iters=2)[0] == [[0, 3], [5, 0]]
    with pytest.raises(RuntimeError):
        lll_integral(long_first, max_iters=1)


def test_exact_lll_refuses_dependent_columns():
    with pytest.raises(ValueError):
        lll_integral([[2, 4], [1, 2]])


def test_clear_denominators():
    scale, cols = clear_denominators([[Fraction(1, 6), 2], [Fraction(-3, 4), 0]])
    assert scale == 12
    assert cols == [[2, 24], [-9, 0]]


def _integer_det_cases(rng):
    """Seeded integer matrices, n = 1-6: unimodular ones (det +-1), random
    ones, singular ones (a row a combination of two others), and ones whose
    elimination meets zero pivots that need a row swap."""
    for _ in range(300):
        n = rng.randint(1, 6)
        yield _brute.random_unimodular(rng, n, ops=8, max_mult=3)
        yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n >= 3:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[rng.randrange(2, n)] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            rng.shuffle(rows)
            yield rows
        if n >= 2:
            # a zero corner: the first pivot needs a row swap
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            rows[0][0] = 0
            yield rows


def test_exact_det_matches_fraction_elimination():
    # one exact path: integer input, and the same matrices with rational
    # entries, which det scales to integers before the Bareiss elimination
    rng = random.Random(41)
    seen = set()
    for rows in _integer_det_cases(rng):
        d = det(rows)
        assert type(d) is type(Rat(0)) and d == _brute.det_reference(rows)
        seen.add(min(abs(d), 2))
        frac_rows = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in rows]
        assert det(frac_rows) == _brute.det_reference(frac_rows)
    assert seen == {0, 1, 2}
    # zero pivots at every step: a permutation matrix, and one row swap away
    # from the identity
    assert det([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1
    assert det([[1, 0, 0], [0, 0, 1], [0, 1, 0]]) == -1
    assert det([[1, 2, 3], [2, 4, 5], [1, 1, 1]]) == _brute.det_reference([[1, 2, 3], [2, 4, 5], [1, 1, 1]])
    assert det([[0, 0], [0, 5]]) == 0
    assert det([[0, Fraction(1, 2)], [Fraction(2, 3), 5]]) == Fraction(-1, 3)


def test_exact_inverse_matches_fraction_gauss_jordan():
    # the right half of rref([a | I]) against Gauss-Jordan on Fractions, on
    # the det cases (zero corners that need a row swap, singular matrices)
    # and on the same matrices with rational entries
    rng = random.Random(43)
    singular = swapped = 0
    for rows in itertools.islice(_integer_det_cases(rng), 400):
        frac_rows = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in rows]
        for a in (rows, frac_rows):
            if _brute.det_reference(a) == 0:
                with pytest.raises(ValueError, match="^singular matrix$"):
                    inverse(a)
                singular += 1
                continue
            got = inverse(a)
            assert all(type(x) is Rat for row in got for x in row)
            assert got == _brute.inverse_reference(a)
            swapped += a[0][0] == 0
    assert singular > 0 and swapped > 0
    with pytest.raises(ValueError, match="^singular matrix$"):
        inverse([[0]])


def test_exact_inverse_refuses_floats():
    for rows in ([[1.0, 0], [0, 1]], [[2, Fraction(1, 3)], [0.5, 1]]):
        with pytest.raises(BackendMismatch):
            inverse(rows)
    # the float branch takes them
    assert inverse([[2.0, 0.0], [0.0, 4.0]], approx=True) == [[0.5, 0.0], [0.0, 0.25]]


def test_exact_det_of_integer_matrices_stays_exact():
    # int / int is a float division; the exact det must not take it
    d = det([[2, 1], [1, 1]])
    assert d == 1 and not isinstance(d, float)
    _, u, _, _ = lll_integral(clear_denominators(_random_basis(random.Random(0), 4))[1])
    assert all(type(x) is int for col in u for x in col)
    d = det([[u[j][i] for j in range(4)] for i in range(4)])
    assert d in (1, -1) and not isinstance(d, float)


def _sparse_matrix(rng, nrows, ncols):
    """Rational entries, about half zero, with some all-zero rows and columns."""
    a = [
        [0 if rng.random() < 0.5 else Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for i in rng.sample(range(nrows), rng.randint(0, nrows // 2)):
        a[i] = [0] * ncols
    for j in rng.sample(range(ncols), rng.randint(0, ncols // 2)):
        for row in a:
            row[j] = 0
    return a


@pytest.mark.parametrize("seed", range(10))
def test_rref_and_kernel_match_dense_reference_on_sparse_input(seed):
    rng = random.Random(seed)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        a = _sparse_matrix(rng, nrows, ncols)
        rows, pivots = rref(a)
        want_rows, want_pivots = _brute.rref_reference(a)
        assert pivots == want_pivots
        assert [[_brute.frac(x) for x in r] for r in rows] == want_rows
        free = [j for j in range(ncols) if j not in pivots]
        kernel = kernel_basis(a)
        assert len(kernel) == len(free)
        for f, v in zip(free, kernel):
            assert [v[j] for j in free] == [int(j == f) for j in free]
            assert all(sum(_brute.frac(x) * _brute.frac(y) for x, y in zip(r, v)) == 0 for r in a)
            if all(r[f] == 0 for r in a):  # a zero column is its own kernel vector
                assert v == [int(j == f) for j in range(ncols)]


def _check_rref(a):
    """rref, rank and kernel_basis against the textbook elimination, every
    entry a Fraction (never an int, even where it is integral)."""
    rows, pivots = rref(a)
    want_rows, want_pivots = _brute.rref_reference(a)
    assert (rows, pivots) == (want_rows, want_pivots)
    assert rank(a) == len(want_pivots)
    ncols = len(a[0])
    want_kernel = []
    for f in (j for j in range(ncols) if j not in want_pivots):
        v = [Fraction(int(j == f)) for j in range(ncols)]
        for r, p in enumerate(want_pivots):
            v[p] = -want_rows[r][f]
        want_kernel.append(v)
    kernel = kernel_basis(a)
    assert kernel == want_kernel
    assert all(type(x) is Fraction for m in (rows, kernel) for r in m for x in r)
    return rows, pivots


def _hilbert(nrows, ncols):
    return [[Fraction(1, i + j + 1) for j in range(ncols)] for i in range(nrows)]


@pytest.mark.parametrize("n", range(1, 9))
def test_rref_of_hilbert_matrices(n):
    # ill-conditioned with denominators up to 2n - 1: the square one reduces
    # to the identity, the wide and tall ones to fractional rows
    rows, pivots = _check_rref(_hilbert(n, n))
    assert pivots == list(range(n)) and rows == [[int(i == j) for j in range(n)] for i in range(n)]
    for m in range(1, 9):
        _check_rref(_hilbert(n, m))
    # a dependent row below, as the combination 1/3 H_0 - 7/2 H_{n-1}
    h = _hilbert(n, 8)
    _check_rref(h + [[Fraction(1, 3) * x - Fraction(7, 2) * y for x, y in zip(h[0], h[-1])]])


@pytest.mark.parametrize("seed", range(6))
def test_rref_with_large_coprime_denominators_and_dependent_rows(seed):
    rng = random.Random(500 + seed)
    primes = [999_983, 999_979, 999_961, 999_959, 999_953, 999_931]
    for _ in range(10):
        nrows, ncols = rng.randint(2, 7), rng.randint(1, 9)
        a = [
            [Fraction(rng.randint(-10**6, 10**6), rng.choice(primes + [rng.randint(1, 10**6)]))
             if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        # a duplicate, a rational combination of two rows, a zero row and
        # an integer-valued row, in shuffled order
        a.append(list(a[0]))
        c1, c2 = Fraction(rng.randint(-9, 9), rng.choice(primes)), Fraction(rng.randint(1, 9), 7)
        a.append([c1 * x + c2 * y for x, y in zip(a[0], a[1])])
        a.append([Fraction(0)] * ncols)
        a.append([rng.randint(-5, 5) for _ in range(ncols)])
        rng.shuffle(a)
        rows, pivots = _check_rref(a)
        assert len(pivots) <= nrows + 1 and rows[len(pivots):] == [[0] * ncols] * (len(a) - len(pivots))
