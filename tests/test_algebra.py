import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latflow
from latflow.backend import (
    EXACT,
    FLOAT,
    BackendMismatch,
    Rat,
    rat,
)
from latflow import linalg
from latflow.algebra import (
    ExactMatrix,
    ExpansionRates,
    diagonal_shear,
    dual_involution,
    expanding_diagonal,
    is_block_stabilizer,
    is_dual_block_stabilizer,
    row_unipotent,
)

import _brute
from _brute import random_unimodular

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)


def test_rat_is_fraction():
    # one exact scalar type, with plain int numerators and denominators
    assert latflow.Rat is Fraction
    assert type(rat("3/4").numerator) is int


def test_rat_coercions():
    assert rat("3/5") == Rat(3, 5)
    assert rat(-7) == Rat(-7)
    assert rat(rat("2")) == Rat(2)
    with pytest.raises(BackendMismatch):
        rat(0.5)  # silent float rationalization is the bug class we ban
    assert rat("22/8").denominator == 4


class _IntRatio:
    """numerator/denominator as plain ints, like any numbers.Rational."""

    numerator, denominator = 3, 4


class _IntLike:
    def __init__(self, v):
        self.v = v

    def __int__(self):
        return self.v


class _IntLikeRatio:
    """numerator/denominator that only convert to int, like a foreign
    integer type."""

    numerator, denominator = _IntLike(-5), _IntLike(6)


class _TextRatio:
    numerator, denominator = "one", "two"


@pytest.mark.parametrize(
    "x, want",
    [
        (-7, Rat(-7)),
        (Fraction(2, 6), Rat(1, 3)),
        ("-3/9", Rat(-1, 3)),
        (Rat(5, 7), Rat(5, 7)),
        (_IntRatio(), Rat(3, 4)),
        (_IntLikeRatio(), Rat(-5, 6)),
    ],
    ids=["int", "fraction", "str", "rat", "int-ratio", "int-like-ratio"],
)
def test_rat_accepts(x, want):
    got = rat(x)
    assert got == want
    assert type(got) is Rat


def test_rat_returns_an_exact_scalar_unchanged():
    # a value that is already exact is not copied
    q = Rat(5, 7)
    assert rat(q) is q
    r = q * 3 - 1
    assert rat(r) is r


@pytest.mark.parametrize(
    "x, error",
    [
        (0.5, BackendMismatch),
        (None, BackendMismatch),
        (_TextRatio(), BackendMismatch),
        ("1/2/3", ValueError),
        ("3/0", ValueError),
    ],
    ids=["float", "no-ratio", "non-integer-ratio", "malformed-str", "zero-denominator"],
)
def test_rat_refuses(x, error):
    with pytest.raises(error):
        rat(x)


@given(rationals)
def test_scalar_roundtrip(q):
    s = str(rat(q))
    assert rat(s) == rat(q)


def test_matrix_exact_arithmetic():
    g = ExactMatrix([[1, 2], [3, "5/2"]])
    assert g.det() == Rat(-7, 2)
    inv = g.inverse()
    assert (g @ inv).rows == ExactMatrix.identity(2).rows
    # inverse of an integer unimodular matrix stays integral
    u = ExactMatrix([[2, 3], [1, 2]])
    assert u.det() == 1
    assert all(x.denominator == 1 for row in u.inverse().rows for x in row)


def test_matrix_backend_mismatch_is_hard_error():
    # a matrix holds exact scalars only: a float entry is refused when built
    for rows in ([[1.0, 0.0], [0.0, 1.0]], [[0.5]], [[1, 0], [0, 1.0]]):
        with pytest.raises(BackendMismatch):
            ExactMatrix(rows)


def test_matrix_pickles():
    g = ExactMatrix([[1, "1/3"], [0, 1]])
    h = pickle.loads(pickle.dumps(g))
    assert h.rows == g.rows and h == g


def test_matrix_is_frozen_and_trusted_rows_build_the_same_matrix():
    rows = [[Rat(1), Rat(-1, 3)], [Rat(0), Rat(2)]]
    g = ExactMatrix(rows)
    with pytest.raises(AttributeError):
        g.rows = ((Rat(1),),)
    assert g.rows == ((1, Rat(-1, 3)), (0, 2))
    t = ExactMatrix._trusted(rows)
    assert t == g and hash(t) == hash(g) and repr(t) == repr(g)
    assert (g.nrows, g.ncols, g.columns()) == (2, 2, ((1, 0), (Rat(-1, 3), 2)))
    wide = ExactMatrix([[1, 2, 3]])
    assert (wide.nrows, wide.ncols, wide.columns()) == (1, 3, ((1,), (2,), (3,)))
    for bad, message in (([], "empty matrix"), ([[]], "empty matrix"), ([[1, 2], [3]], "ragged rows")):
        with pytest.raises(ValueError, match=message):
            ExactMatrix(bad)


@given(
    st.lists(rationals, min_size=2, max_size=2),
    st.lists(rationals, min_size=2, max_size=2),
)
def test_row_unipotent_homomorphism(a, b):
    # u(a) u(b) = u(a + b): the shear block is additive
    ua, ub = row_unipotent(list(map(rat, a))), row_unipotent(list(map(rat, b)))
    uab = row_unipotent([rat(x) + rat(y) for x, y in zip(a, b)])
    assert (ua @ ub).rows == uab.rows
    assert ua.det() == 1


@pytest.mark.parametrize(
    "backend, kind, first_row",
    [
        (EXACT, Fraction, (1, 3, Fraction(1, 2), Fraction(-2, 3))),
        (FLOAT, float, (1.0, 3.0, 0.5, -2 / 3)),
    ],
)
def test_row_unipotent_entries_are_backend_scalars(backend, kind, first_row):
    # int, str and Fraction shifts, each coerced to the backend's one scalar
    # type; on floats u(shift) is the shear with unit weights
    shift = (3, "1/2" if backend == EXACT else "0.5", Fraction(-2, 3))
    if backend == EXACT:
        rows = row_unipotent(shift).rows
    else:
        rows = diagonal_shear((1.0,) * 3, shift)
    assert all(type(x) is kind for row in rows for x in row)
    assert tuple(rows[0]) == first_row
    assert [tuple(r) for r in rows[1:]] == [tuple(int(i == j) for j in range(4)) for i in range(1, 4)]


def test_row_unipotent_turns_a_negative_zero_shift_positive():
    # as adding -0.0 to the identity's +0.0 does: the float u(shift) is the
    # shear with unit weights, and any weights keep the zero positive
    for weights in ((1.0, 1.0), (4.0, 2.0)):
        rows = diagonal_shear(weights, (-0.0, 1.0))
        assert math.copysign(1.0, rows[0][1]) == 1.0


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_dual_involution_properties(seed_a, seed_b):
    rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)
    g = ExactMatrix(random_unimodular(rng_a, 3))
    h = ExactMatrix(random_unimodular(rng_b, 3))
    sg = dual_involution(g)
    # involution, det preserved up to the inverse-transpose sign structure
    assert dual_involution(sg).rows == g.rows
    assert sg.det() == g.det()
    # anti-automorphism? no: sigma(gh) = sigma(g) sigma(h) (inverse-transpose
    # conjugated by the reversal is a homomorphism)
    assert dual_involution(g @ h).rows == (sg @ dual_involution(h)).rows


def test_dual_involution_swaps_block_stabilizers():
    # [[A, *], [0, I]] with det A = 1
    g = ExactMatrix([[2, 3, 5], [1, 2, 7], [0, 0, 1]])
    assert is_block_stabilizer(g, 2)
    assert not is_dual_block_stabilizer(g, 2)
    assert is_dual_block_stabilizer(dual_involution(g), 2)


def _outcome(predicate, *args):
    try:
        return predicate(*args)
    except ValueError as e:
        return "ValueError: %s" % e


def test_dual_block_stabilizer_matches_direct_reference():
    # [[I, *], [0, A]] with A of det 1, det -1, singular or unit
    # triangular, sometimes with an identity column broken, tested at every
    # block size from 0 to n + 1: the flipped predicate answers as the
    # direct mirror test does, out-of-range errors included
    rng = random.Random(53)
    outcomes = []
    for case in range(1500):
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        kind = case % 4
        if kind == 2 and m > 1:  # singular: the last row repeats the first
            block = [[Rat(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m - 1)]
            block.append(list(block[0]))
        elif kind == 2:
            block = [[Rat(0)]]
        elif kind == 3:  # unit lower with rationals below the diagonal, or its transpose
            block = [[Rat(int(i == j)) if i <= j else Rat(rng.randint(-5, 5), rng.randint(1, 4))
                      for j in range(m)] for i in range(m)]
            if rng.random() < 0.5:
                block = [list(c) for c in zip(*block)]
        else:
            block = [[Rat(x) for x in row] for row in random_unimodular(rng, m)]
            if _brute.det_reference(block) != (1 if kind == 0 else -1):
                block[0] = [-x for x in block[0]]
        rows = [[Rat(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n - m):
            for j in range(n - m, n):
                rows[i][j] = Rat(rng.randint(-9, 9), rng.randint(1, 4))
        for i in range(m):
            rows[n - m + i][n - m:] = block[i]
        if n > m and rng.random() < 0.3:
            rows[rng.randrange(n)][rng.randrange(n - m)] = Rat(rng.randint(-1, 2))
        g = ExactMatrix(rows)
        for size in range(n + 2):
            got = _outcome(is_dual_block_stabilizer, g, size)
            assert got == _outcome(_brute.dual_block_stabilizer_reference, rows, size), (rows, size)
            outcomes.append(got)
    assert outcomes.count(True) > 1000 and outcomes.count(False) > 1000
    assert outcomes.count("ValueError: block size out of range") == 3000


def test_expansion_rates_validation():
    r = ExpansionRates((4.0, 2.0, 1.0))
    assert len(r.weights) == 3
    assert r.total_weight() == pytest.approx(8.0)
    with pytest.raises(ValueError):
        ExpansionRates((1.0, 2.0))  # must be nonincreasing
    with pytest.raises(ValueError):
        ExpansionRates((2.0, 0.5))  # and >= 1 throughout


def test_expanding_diagonal_unimodular():
    r = ExpansionRates.from_rates((2.0, 1.0))
    d = expanding_diagonal(r)
    # diag(e^3, e^-2, e^-1): total expansion balances the contractions
    assert abs(linalg.det(d, approx=True) - 1.0) < 1e-12
    assert d[0][0] == pytest.approx(math.exp(3.0))
    assert d[1][1] == pytest.approx(math.exp(-2.0))
