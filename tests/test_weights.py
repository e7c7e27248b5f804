import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latflow.backend import BackendMismatch, Rat
from latflow.algebra import ExactMatrix, row_unipotent
from latflow import weights
from latflow.diophantine import Curve
from latflow.weights import (
    ClosedForm,
    GrowthSpec,
    RepSpace,
    Subspace,
    block_generator,
    block_invariant_space,
    curve_hypothesis_fixed_check,
    hypothesis_space,
    lemma_reports,
    split_spaces,
    weight_alignment_check,
    weight_table,
)

from _brute import (
    algebra_matrix_reference,
    alignment_reference,
    classify_reference,
    fixed_check_reference,
    frac,
    group_matrix_reference,
    hypothesis_space_reference,
    lemma_reports_reference,
    mat_vec,
    random_rational_invertible,
    random_unimodular,
    wedge_minors_reference,
    weight_reference,
)


def test_block_generator_diagonal():
    # trace-zero: m on the head, -1 on each of the m contracting slots
    g = block_generator(3, 2)
    assert [int(g.rows[i][i]) for i in range(3)] == [2, -1, -1]
    g = block_generator(4, 1)
    assert [int(g.rows[i][i]) for i in range(4)] == [1, -1, 0, 0]
    assert sum(g.rows[i][i] for i in range(4)) == 0


def test_wedge_weight_table():
    rep = RepSpace(3, "wedge", 2)
    assert rep.labels() == ((1, 2), (1, 3), (2, 3))
    assert rep.dim == 3
    tab = weight_table(rep, (2, 1))
    assert tab[(1, 2)] == (1, 0)  # e1^e2 is fixed by the inner block
    assert tab[(1, 3)] == (1, 1)
    assert tab[(2, 3)] == (-2, -1)


def test_adjoint_dimension():
    rep = RepSpace(3, "adjoint")
    assert rep.dim == 8  # sl_3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(3, 6), st.sampled_from(["wedge", "adjoint"]),
       st.booleans())
def test_group_matrix_is_a_homomorphism(seed, n, kind, rational):
    # rational elements have common denominators D > 1, which the minors
    # and the rank-one terms divide out once at the end
    rng = random.Random(seed)
    rep = RepSpace(n, kind, rng.randint(1, n - 1) if kind == "wedge" else 1)
    draw = random_rational_invertible if rational else random_unimodular
    g = ExactMatrix(draw(rng, n))
    h = ExactMatrix(draw(rng, n))
    lhs = rep.group_matrix(g @ h)
    rhs = rep.group_matrix(g) @ rep.group_matrix(h)
    assert lhs.rows == rhs.rows


def _all_reps(n):
    return [RepSpace(n, "adjoint")] + [RepSpace(n, "wedge", d) for d in range(1, n)]


def _sparse_rat(rng):
    return Rat(0) if rng.random() < 0.4 else Rat(rng.randint(-9, 9), rng.randint(1, 6))


def _frac_rows(m):
    assert all(type(x) is Fraction for row in m.rows for x in row)
    return [[frac(x) for x in row] for row in m.rows]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_group_matrix_matches_dense_reference(n):
    # rational, integer unimodular and shear elements; every wedge degree
    # and the adjoint, against minors by elimination and g X g^-1; above
    # n = 6 wedge:7:3 alone, and wedge:8:4 on the shears alone
    rng = random.Random(7000 + n)
    for rep in _all_reps(n) if n <= 6 else [RepSpace(n, "wedge", n // 2)]:
        for _ in range(3):
            elements = [
                random_rational_invertible(rng, n),
                random_unimodular(rng, n),
                row_unipotent([_sparse_rat(rng) for _ in range(n - 1)]).rows,
            ]
            for g in elements if n <= 7 else elements[2:]:
                got = rep.group_matrix(ExactMatrix(g))
                assert _frac_rows(got) == group_matrix_reference(n, rep.kind, rep.degree, g)


def _integer_matrices(rng, n):
    """A dense integer matrix, a shear u(e) with zeros in e, a permutation
    matrix, and two singular ones: a zero column and a repeated column."""
    dense = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    e = [0] + [rng.choice((-3, -1, 2, 5)) for _ in range(n - 2)]
    rng.shuffle(e)
    shear = [[1] + e] + [[int(i == j) for j in range(n)] for i in range(1, n)]
    perm = rng.sample(range(n), n)
    permutation = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    a, b = rng.sample(range(n), 2)
    zero_column = [[0 if j == a else x for j, x in enumerate(row)] for row in dense]
    repeated = [[row[a] if j == b else x for j, x in enumerate(row)] for row in dense]
    return [dense, shear, permutation, zero_column, repeated]


@pytest.mark.parametrize("n", range(2, 8))
def test_wedge_columns_match_the_laplace_minors(n):
    rng = random.Random(2900 + n)
    for rows in _integer_matrices(rng, n) + _integer_matrices(rng, n):
        for d in range(1, n + 1):
            nonzero = {}
            for (I, J), m in wedge_minors_reference(rows, d).items():
                if m != 0:
                    nonzero.setdefault(J, {})[tuple(i + 1 for i in I)] = m
            labs = RepSpace(n, "wedge", d).labels() if d < n else (tuple(range(1, n + 1)),)
            cols = weights._wedge_columns(rows, d)
            assert len(cols) == len(labs)
            # column t is the column of labs[t], with no zero value stored
            for J, col in zip(labs, cols):
                assert all(x != 0 for _, x in col)
                assert len(dict(col)) == len(col)
                assert dict(col) == nonzero.get(tuple(j - 1 for j in J), {})


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_algebra_matrix_matches_dense_reference(n):
    # the integer columns of the action of D x, divided by D, D the common
    # denominator of the traceless rational x
    rng = random.Random(8000 + n)
    for rep in _all_reps(n):
        for _ in range(3):
            x = [[_sparse_rat(rng) for _ in range(n)] for _ in range(n)]
            x[n - 1][n - 1] = -sum(x[i][i] for i in range(n - 1))
            d = math.lcm(*(v.denominator for row in x for v in row))
            cols = rep._algebra_columns([[int(v * d) for v in row] for row in x])
            assert all(type(c) is int for col in cols for c in col)
            got = [[Fraction(c, d) for c in row] for row in zip(*cols)]
            assert got == algebra_matrix_reference(n, rep.kind, rep.degree, x)
            # a float matrix is refused when built, never carried into an
            # exact action
            with pytest.raises(BackendMismatch):
                ExactMatrix([[float(v) for v in row] for row in x])


def test_growth_spec_classify():
    g = GrowthSpec.simple([(1, 1), (1, 2)])
    assert g.classify((Rat(1), Rat(0))) == "+"
    assert g.classify((Rat(1), Rat(-1))) == "-"  # the i^2 layer dominates
    assert g.classify((Rat(0), Rat(0))) == "0"
    with pytest.raises(ValueError):
        GrowthSpec.simple([(1, 0)])  # a constant layer does not diverge
    with pytest.raises(ValueError):
        GrowthSpec.simple([(-1, 2)])
    # rational exponents: t_1 = i^(1/2), t_2 = i^2 + 2 i^(1/3)
    g = GrowthSpec((ClosedForm(((1, Rat(1, 2)),)), ClosedForm(((1, 2), (2, Rat(1, 3))))))
    assert [g.classify(w) for w in ((1, 0), (2, -1), (0, 0))] == ["+", "-", "0"]


def test_growth_spec_merges_monomials():
    g = GrowthSpec((ClosedForm(((1, 1), (2, 1))),))  # i + 2i collapses to 3i
    assert g.layers[0].terms == ((Rat(3), Rat(1)),)


def test_rep_space_refuses_n_below_two():
    # refused by name, not by a later error about a curve or a block size
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=r"needs n >= 2, got n = %d$" % n):
            RepSpace(n, "adjoint")
    with pytest.raises(ValueError, match=r"got n = 1$"):
        RepSpace(1, "wedge", 1)


def _seeded_growth(rng, k):
    """k divergent layers whose top terms share the exponent 2, with two
    lower terms each from a pool of rational exponents, so that a weight
    can cancel the top terms and classify by a lower exponent."""
    pool = (Rat(3, 2), 1, Rat(1, 2), Rat(1, 3), 0)
    return GrowthSpec(tuple(
        ClosedForm(((rng.randint(1, 3), 2),) + tuple((rng.randint(-3, 3), p) for p in rng.sample(pool, 2)))
        for _ in range(k)
    ))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_weight_table_and_classes_match_the_per_label_references(n):
    # every rep and every strictly decreasing tuple of block sizes, against
    # a diagonal written out per label and an exponent-dict classification
    rng = random.Random(27000 + n)
    below_top = 0
    for rep in _all_reps(n):
        for k in range(1, n):
            for sizes in itertools.combinations(range(n - 1, 0, -1), k):
                table = weight_table(rep, sizes)
                assert tuple(table) == rep.labels()
                for lab, w in table.items():
                    assert w == weight_reference(n, rep.kind, lab, sizes)
                    assert all(type(x) is Fraction for x in w)
                growths = [GrowthSpec.simple([(1, 1)] * k)] + [_seeded_growth(rng, k) for _ in range(2)]
                for growth in growths:
                    terms = [layer.terms for layer in growth.layers]
                    split = split_spaces(rep, sizes, growth)
                    assert split.labels == rep.labels()
                    assert split.weights == tuple(table.values())
                    drawn = [
                        tuple(Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k))
                        for _ in range(3)
                    ]
                    if k >= 2:  # (c_2, -c_1, 0, ...) cancels the top terms
                        (c1, _), (c2, _) = terms[0][0], terms[1][0]
                        drawn.append((c2, -c1) + (0,) * (k - 2))
                    for w in list(split.weights) + drawn:
                        got = growth.classify(w)
                        assert got == classify_reference(terms, w)
                        top = sum(mu * layer.terms[0][0] for mu, layer in zip(w, growth.layers))
                        if growth is not growths[0] and top == 0 and got != "0":
                            below_top += 1
                    assert split.classes == tuple(classify_reference(terms, w) for w in split.weights)
    # cancelled top terms, classified by a lower (often rational) exponent;
    # one block (n = 2) cancels only with a zero weight
    assert below_top > 0 or n == 2


def test_split_spaces_partitions_basis():
    rep = RepSpace(3, "wedge", 2)
    split = split_spaces(rep, (2, 1), GrowthSpec.simple([(1, 1), (1, 2)]))
    assert sorted(split.indices("+") + split.indices("-") + split.indices("0")) == [
        0,
        1,
        2,
    ]
    # e1^e2 carries weight (1, 0): expanding
    assert 0 in split.indices("+")


# the single-block (zero-projection) lemma is the spanning report with one block
ONE_BLOCK = GrowthSpec.simple([(1, 1)])


def test_zero_projection_lemma_on_spanning_points():
    rep = RepSpace(3, "adjoint")
    projection, report = lemma_reports(rep, (2,), ONE_BLOCK, [(0, 0), (1, 0), (0, 1)])
    assert projection is report  # one block: the projection report is the spanning one
    assert report.ok
    assert report.hypothesis_dim > 0  # non-vacuous for the adjoint
    assert report.violations == ()


def test_zero_projection_lemma_rejects_non_spanning():
    rep = RepSpace(3, "adjoint")
    with pytest.raises(ValueError):
        lemma_reports(rep, (2,), ONE_BLOCK, [(0, 0), (1, 0), (2, 0)])[1]


def test_degenerate_points_produce_violations():
    # the affine-spanning hypothesis is sharp: collinear points leave room
    # for translates that lose their entire zero-weight component
    rep = RepSpace(3, "adjoint")
    report = lemma_reports(
        rep, (2,), ONE_BLOCK, [(0, 0), (1, 0), (2, 0)], require_spanning=False
    )[1]
    assert not report.ok
    assert len(report.violations) >= 1
    # and for the wedge square with all points equal
    wedge = RepSpace(3, "wedge", 2)
    report = lemma_reports(
        wedge, (2,), ONE_BLOCK, [(0, 0), (0, 0), (0, 0)], require_spanning=False
    )[1]
    assert not report.ok


def _entries(vec):
    assert all(type(x) is Fraction for x in vec)
    return " ".join(str(x) for x in vec)


def test_degenerate_rational_point_pins_its_violation_vectors():
    # one point, so no affine span; its coordinates 1/2 and -2/3 put
    # denominators into the shear, every minor and the rank-one terms.
    # The vectors were recorded from the rational elimination.
    growth = GrowthSpec.simple([(1, 1), (1, 2)])
    e = (Rat(1, 2), Rat(-2, 3), Rat(0))
    layered, spanning = lemma_reports(
        RepSpace(4, "adjoint"), (2, 1), growth, [e], require_spanning=False
    )
    assert layered.hypothesis_dim == spanning.hypothesis_dim == 9
    assert [(kind, p, _entries(v)) for kind, p, v in layered.violations] == [
        ("invariant-shadow-lost", e, vec) for vec in (
            "0 -1/2 0 0 1 0 0 0 0 0 0 0 0 0 0",
            "0 -4/9 0 4/3 0 0 1 1/2 0 0 0 0 0 2/3 0",
            "1/2 0 0 -2 0 0 0 0 0 0 0 0 1 0 0",
        )
    ]
    assert [(p, _entries(v)) for p, v in spanning.violations] == [
        (e, vec) for vec in (
            "0 0 1 0 0 0 0 0 3/2 0 0 0 0 0 0",
            "0 -1/2 0 0 1 0 0 0 0 0 0 0 0 0 0",
            "0 0 0 0 0 1 0 0 3/4 0 0 0 0 0 0",
            "0 -4/9 0 4/3 0 0 1 1/2 0 0 0 0 0 2/3 0",
            "0 0 0 0 0 0 0 0 0 1 1/2 -2/3 0 0 0",
            "1/2 0 0 -2 0 0 0 0 0 0 0 0 1 0 0",
        )
    ]
    layered, spanning = lemma_reports(
        RepSpace(4, "wedge", 2), (2, 1), growth, [e], require_spanning=False
    )
    assert layered.ok and layered.hypothesis_dim == 3
    assert [(p, _entries(v)) for p, v in spanning.violations] == [
        (e, "1 3/4 0 -3/2 0 0"), (e, "0 0 1 0 0 3/2"), (e, "0 0 0 0 1 3/4"),
    ]


def test_layered_lemma_and_spanning_zero():
    rep = RepSpace(4, "adjoint")
    growth = GrowthSpec.simple([(1, 1), (1, 2)])
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    rep1, rep2 = lemma_reports(rep, (2, 1), growth, pts)
    assert rep1.ok and rep2.ok


def test_layered_clause_ii_violations_are_spanning_violations():
    # degenerate points: a translate that loses its fully-invariant part
    # while keeping a first-block-invariant one is also a spanning violation
    rep = RepSpace(3, "adjoint")
    growth = GrowthSpec.simple([(1, 1), (1, 2)])
    pts = [(1, 0)]
    layered, spanning = lemma_reports(rep, (2, 1), growth, pts, require_spanning=False)
    lost = [v[1:] for v in layered.violations if v[0] == "invariant-shadow-lost"]
    assert lost
    assert set(lost) <= set(spanning.violations)


def test_random_spanning_points_never_violate():
    rng = random.Random(23)
    growth = GrowthSpec.simple([(1, 1), (1, 2)])
    for _ in range(10):
        while True:
            pts = [
                (rng.randint(-3, 3), rng.randint(-3, 3), 0) for _ in range(3)
            ]
            d = [
                [pts[i][j] - pts[0][j] for j in range(2)] for i in (1, 2)
            ]
            if d[0][0] * d[1][1] - d[0][1] * d[1][0] != 0:
                break
        for rep in (RepSpace(4, "adjoint"), RepSpace(4, "wedge", 2)):
            projection, spanning = lemma_reports(rep, (2, 1), growth, pts)
            assert projection.ok and spanning.ok


def _spanning_integer_points(rng, n, m1):
    """m1 + 1 integer points of Q^(n-1), supported on the first m1
    coordinates, that affinely span them."""
    while True:
        pts = [tuple(rng.randint(-3, 3) if j < m1 else 0 for j in range(n - 1)) for _ in range(m1 + 1)]
        if weights._points_ok(pts, n, m1):
            return pts


def _lemma_cases(rng):
    """(rep, sizes, growth, points, require_spanning): wedge and adjoint
    with k = 1, 2, 3 blocks, each with spanning integer points and with one
    or two rational points that span nothing; wedge:3:1 and wedge:4:1 have
    no fully invariant weight."""
    growths = [GrowthSpec.simple([(1, l) for l in range(1, k + 1)]) for k in (1, 2, 3)]
    for rep in [RepSpace(3, "adjoint"), RepSpace(3, "wedge", 2), RepSpace(4, "adjoint"),
                RepSpace(4, "wedge", 2), RepSpace(5, "adjoint"), RepSpace(3, "wedge", 1),
                RepSpace(4, "wedge", 1)]:
        n = rep.n
        for k in range(1, min(n, 4)):
            for sizes in itertools.combinations(range(n - 1, 0, -1), k):
                for growth in (growths[k - 1], _seeded_growth(rng, k)):
                    yield rep, sizes, growth, _spanning_integer_points(rng, n, sizes[0]), True
                    for count in (1, 2):
                        pts = [tuple(_sparse_rat(rng) for _ in range(n - 1)) for _ in range(count)]
                        yield rep, sizes, growth, pts, False


def _same_lemma_reports(rep, sizes, growth, pts, spanning_pts, seen):
    got = lemma_reports(rep, sizes, growth, pts, require_spanning=spanning_pts)
    want = lemma_reports_reference(rep, sizes, growth, pts, require_spanning=spanning_pts)
    assert repr(got) == repr(want) and got == want, (rep, sizes, growth, pts)
    if growth.k == 1:
        assert got[0] is got[1]
    for kind, *_ in got[0].violations if growth.k > 1 else ():
        seen[kind] += 1
    seen["spanning"] += len(got[1].violations)
    seen["trivial"] += not got[1].hypothesis_dim
    if not split_spaces(rep, sizes, growth).zero_weight_indices() and got[1].hypothesis_dim:
        seen["no-invariant-weight"] += 1


def test_lemma_reports_match_the_three_helper_reference(monkeypatch):
    # the one pass over (point, action) against the three helpers it
    # replaced (images, spanning pass, layered pass): the same reports,
    # violations in the same order with the same Fraction vectors, and at
    # k = 1 one object
    rng = random.Random(3400)
    seen = dict.fromkeys(["expanding-after-truncation", "invariant-shadow-lost", "spanning",
                          "trivial", "no-invariant-weight"], 0)
    for case in _lemma_cases(rng):
        _same_lemma_reports(*case, seen)
    # clause (i) cannot fire on a true split: the truncated expanding weights
    # lie among the full ones, whose components the hypothesis space kills.
    # A truncated split that calls every weight expanding makes it fire
    assert seen["expanding-after-truncation"] == 0
    real = weights.split_spaces

    def forced(rep, sizes, growth):
        split = real(rep, sizes, growth)
        return split if len(sizes) == 2 else dataclasses.replace(split, classes=("+",) * rep.dim)

    monkeypatch.setattr(weights, "split_spaces", forced)
    for rep in (RepSpace(4, "adjoint"), RepSpace(4, "wedge", 2)):
        for count in (1, 2):
            pts = [tuple(_sparse_rat(rng) for _ in range(3)) for _ in range(count)]
            _same_lemma_reports(rep, (2, 1), GrowthSpec.simple([(1, 1), (1, 2)]), pts, False, seen)
    # every clause is reached, and the whole-space kernel of no rows too
    assert all(seen.values()), seen


def test_every_subspace_holds_fractions(monkeypatch):
    # with no points, with the forced flat split and on wedge:3:1, which has
    # no zero weight, every entry is a Fraction, the whole space included
    def entries(space):
        assert all(type(x) is Fraction for v in space.basis for x in v), space
        return space.dim

    one = GrowthSpec.simple([(1, 1)])
    adjoint, wedge = RepSpace(4, "adjoint"), RepSpace(3, "wedge", 1)
    assert entries(hypothesis_space(adjoint, (2,), one, [])) == adjoint.dim
    assert entries(hypothesis_space(wedge, (2,), one, [])) == wedge.dim
    assert entries(hypothesis_space(wedge, (2,), one, [(Rat(1, 2), 3)])) == 2
    for rep in (adjoint, wedge):
        for block in range(1, rep.n + 1):
            entries(block_invariant_space(rep, block))
    assert entries(block_invariant_space(wedge, 2)) == 0 < entries(block_invariant_space(wedge, 1))
    flat = dataclasses.replace(split_spaces(adjoint, (2,), one), classes=("0",) * adjoint.dim)
    monkeypatch.setattr(weights, "split_spaces", lambda *args: flat)
    assert entries(hypothesis_space(adjoint, (2,), one, [(1, 2, 3), (0, 1, 0)])) == adjoint.dim


@pytest.mark.parametrize("n", [3, 4, 5])
def test_support_components_match_the_dense_reference(n):
    # the union-find of the support graph of every dense E_pq action, p and
    # q in the block, grouped by first member as the package groups them
    for rep in _all_reps(n):
        for block in range(2, n + 1):
            parent = list(range(rep.dim))

            def find(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            for p, q in itertools.permutations(range(block), 2):
                x = [[int((i, j) == (p, q)) for j in range(n)] for i in range(n)]
                for i, row in enumerate(algebra_matrix_reference(n, rep.kind, rep.degree, x)):
                    for j, v in enumerate(row):
                        if v != 0:
                            parent[find(i)] = find(j)
            comps = {}
            for i in range(rep.dim):
                comps.setdefault(find(i), []).append(i)
            assert weights._support_components(rep, block) == list(comps.values()), (rep, block)


def test_weight_alignment_across_reps():
    for rep, sizes in [
        (RepSpace(3, "wedge", 2), (2, 1)),
        (RepSpace(3, "adjoint"), (2, 1)),
        (RepSpace(4, "wedge", 2), (2, 1)),
        (RepSpace(4, "adjoint"), (3, 2)),
    ]:
        report = weight_alignment_check(rep, sizes)
        assert report.ok, (rep, sizes, report.violations)
        assert report.component_count >= 1


@pytest.mark.parametrize("n", range(2, 8))
def test_weight_alignment_matches_the_fraction_reference(n):
    # every rep of SL(n) and every strictly decreasing size tuple, k <= 3
    for rep in _all_reps(n):
        for k in (1, 2, 3):
            for sizes in itertools.combinations(range(n - 1, 0, -1), k):
                assert weight_alignment_check(rep, sizes) == alignment_reference(rep, sizes)


@pytest.mark.parametrize("shift", [-10, Rat(-21, 2)])
def test_weight_alignment_reports_a_perturbed_table_like_the_reference(monkeypatch, shift):
    # one weight moved by an integer, or made a half-integer: both checks
    # report the same violations, in the same order; against H_1, weight
    # (0, 0), the pair's sign at t = (1/2, 2) is +, and at t = (1/2, 1) -
    table_of = weights.weight_table

    def perturbed(rep, sizes):
        table = table_of(rep, sizes)
        first, last = table["E", 1, 2]
        table["E", 1, 2] = (first + shift, last)
        return table

    monkeypatch.setattr(weights, "weight_table", perturbed)
    rep, sizes = RepSpace(4, "adjoint"), (2, 1)
    got = weight_alignment_check(rep, sizes)
    kinds = {v[0] for v in got.violations}
    assert kinds == {"affine-relation", "grid-sign", "grid-sign-truncated"}
    assert got == alignment_reference(rep, sizes)


def test_curve_containment_check():
    rep = RepSpace(3, "adjoint")
    growth = GrowthSpec.simple([(1, 1)])
    good = curve_hypothesis_fixed_check(rep, (2,), growth, Curve.parse("s, s^2"))
    assert good.ok
    # a line does not affinely span the plane; containment genuinely fails
    bad = curve_hypothesis_fixed_check(rep, (2,), growth, Curve.parse("s, 2*s"))
    assert not bad.ok
    assert bad.hypothesis_dim > 0


def _block_subgroup_elements(n, block):
    """Three elements [[A, w], [0, I]], det A = 1, of the block subgroup."""

    def shear(p, q, c):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[p - 1][q - 1] = c
        return ExactMatrix(rows)

    if block == 1:
        return [shear(1, n, 3), shear(1, 2, -2), shear(1, n, 3) @ shear(1, 2, -2)]
    d = ExactMatrix.diagonal([2, Rat(1, 2)] + [1] * (n - 2))
    return [shear(1, block, 1), shear(block, 1, -2), d @ shear(1, n, 3) @ shear(2, n, -1)]


@pytest.mark.parametrize(
    "rep, block, dim, inside, outside",
    [
        # e1^e2 spans the invariants of the upper 2-block
        (RepSpace(3, "wedge", 2), 2, 1, (1, 2), (2, 3)),
        (RepSpace(3, "wedge", 2), 1, 2, (1, 3), (2, 3)),
        (RepSpace(3, "adjoint"), 1, 2, ("E", 1, 3), ("E", 3, 1)),
        (RepSpace(3, "adjoint"), 2, 0, None, ("E", 1, 2)),
    ],
    ids=["wedge-3-2-block-2", "wedge-3-2-block-1", "adjoint-3-block-1", "adjoint-3-block-2"],
)
def test_block_invariant_space_fixed_vectors(rep, block, dim, inside, outside):
    space = block_invariant_space(rep, block)
    assert space.dim == dim
    # elements of the block subgroup fix the basis
    for g in _block_subgroup_elements(rep.n, block):
        act = rep.group_matrix(g)
        for vec in space.basis:
            assert mat_vec(act.rows, vec) == list(vec)
    labels = rep.labels()

    def unit(lab):
        return tuple(Rat(int(x == lab)) for x in labels)

    if inside is not None:
        assert space.contains(unit(inside))
    assert not space.contains(unit(outside))


def test_hypothesis_space_shrinks_with_points():
    rep = RepSpace(3, "adjoint")
    growth = GrowthSpec.simple([(1, 1)])
    one = hypothesis_space(rep, (2,), growth, [(0, 0)])
    three = hypothesis_space(rep, (2,), growth, [(0, 0), (1, 0), (0, 1)])
    assert three.dim <= one.dim
    assert three.is_contained_in(one)


def _curves(n, rng):
    """The moment curve, two curves in a proper subspace (s, 2s, 3s, ...
    and s, 0, ..., 0) and a seeded generic curve of degree n - 1, each
    into Q^{n-1}."""
    k = n - 1
    generic = ", ".join(
        " + ".join("%d/%d*s^%d" % (rng.randint(-9, 9), rng.randint(1, 5), p) for p in range(n))
        for _ in range(k)
    )
    return [
        Curve.parse(", ".join("s^%d" % (j + 1) for j in range(k))),
        Curve.parse(", ".join("%d*s" % (j + 1) for j in range(k))),
        Curve.parse(", ".join(["s"] + ["0"] * (k - 1))),
        Curve.parse(generic),
    ]


def _sizes_and_growth(n):
    """Every valid set of block sizes for SL(n), with one simple growth
    layer i^l per block l."""
    for k in range(1, n):
        for sizes in itertools.combinations(range(n - 1, 0, -1), k):
            yield sizes, GrowthSpec.simple([(1, l) for l in range(1, k + 1)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hypothesis_space_and_fixed_check_match_the_references(n):
    # the early stop returns the space all the curve's samples give, and
    # the fixed check the report of a check that always builds the target
    rng = random.Random(2800 + n)
    for rep in _all_reps(n):
        targets = {m: block_invariant_space(rep, m + 1) for m in range(1, n)}
        for curve in _curves(n, rng):
            count = rep.entry_degree * max(curve.degree, 1) + 1
            pts = [curve.eval_exact(s) for s in curve.sample_points(count)]
            actions = [rep.group_matrix(row_unipotent(e)) for e in pts]
            for sizes, growth in _sizes_and_growth(n):
                want = hypothesis_space_reference(split_spaces(rep, sizes, growth), actions)
                assert hypothesis_space(rep, sizes, growth, iter(pts)) == want
                got = curve_hypothesis_fixed_check(rep, sizes, growth, curve)
                assert (got.ok, got.hypothesis_dim, got.violations) == fixed_check_reference(
                    want, targets[sizes[0]]
                )


def test_hypothesis_space_without_points_or_expanding_index_is_everything(monkeypatch):
    rep = RepSpace(4, "adjoint")
    growth = GrowthSpec.simple([(1, 1)])
    everything = Subspace.from_generators(
        [[int(i == j) for j in range(rep.dim)] for i in range(rep.dim)], rep.dim
    )
    split = split_spaces(rep, (2,), growth)
    assert hypothesis_space(rep, (2,), growth, []) == everything
    assert hypothesis_space_reference(split, []) == everything
    # no valid split lacks an expanding weight (their leading growth terms
    # sum to a nonzero traceless diagonal), so one is forced here
    flat = dataclasses.replace(split, classes=("0",) * rep.dim)
    monkeypatch.setattr(weights, "split_spaces", lambda *args: flat)
    pts = [(1, 2, 3), (0, 1, 0)]
    actions = [rep.group_matrix(row_unipotent(e)) for e in pts]
    assert hypothesis_space(rep, (2,), growth, pts) == everything
    assert hypothesis_space_reference(flat, actions) == everything
    # the lemma checks act on every point of the whole space, each once
    counted = _count_calls(monkeypatch, RepSpace, "group_matrix")
    projection, spanning = lemma_reports(rep, (2,), growth, pts, require_spanning=False)
    assert projection.hypothesis_dim == spanning.hypothesis_dim == rep.dim
    assert len(counted) == len(pts)


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "rep, sizes, pts, dim, calls",
    [
        # {0} after 4 of the 5 points: the fifth is never acted on
        (RepSpace(6, "wedge", 3), (4, 2),
         [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)], 0, 4),
        # a space that is not {0}: each point's action is computed once, for
        # the space and for its images alike
        (RepSpace(4, "adjoint"), (2, 1), [(0, 0, 0), (1, 0, 0), (0, 1, 0)], 2, 3),
    ],
    ids=["wedge63-zero", "adjoint4"],
)
def test_lemma_reports_act_on_each_point_once(monkeypatch, rep, sizes, pts, dim, calls):
    actions = _count_calls(monkeypatch, RepSpace, "group_matrix")
    projection, spanning = lemma_reports(rep, sizes, GrowthSpec.simple([(1, 1), (1, 2)]), pts)
    assert projection.hypothesis_dim == spanning.hypothesis_dim == dim
    assert projection.ok and spanning.ok
    assert len(actions) == calls


def test_fixed_check_stops_at_the_zero_space(monkeypatch):
    # wedge:6:3 with sizes 4,2 reaches {0} after 4 of its 16 sample points,
    # and {0} lies in every subspace, so no target is built
    rep = RepSpace(6, "wedge", 3)
    growth = GrowthSpec.simple([(1, 1), (1, 2)])
    curve = Curve.parse("s, s^2, s^3, s^4, s^5")
    assert rep.entry_degree * curve.degree + 1 == 16
    actions = _count_calls(monkeypatch, RepSpace, "group_matrix")

    def no_target(*args):
        raise AssertionError("block_invariant_space built for the zero space")

    monkeypatch.setattr(weights, "block_invariant_space", no_target)
    report = curve_hypothesis_fixed_check(rep, (4, 2), growth, curve)
    assert (report.ok, report.hypothesis_dim) == (True, 0)
    assert len(actions) == 4


def test_fixed_check_builds_the_target_for_a_nonzero_space(monkeypatch):
    # a space that is not {0}: every sample is read and the target is built,
    # once, whether the space lies in it (wedge:6:3) or not (s, 2s)
    for rep, sizes, curve, ok in [
        (RepSpace(6, "wedge", 3), (2,), Curve.parse("s, s^2, s^3, s^4, s^5"), True),
        (RepSpace(3, "adjoint"), (2,), Curve.parse("s, 2*s"), False),
    ]:
        with monkeypatch.context() as m:
            actions = _count_calls(m, RepSpace, "group_matrix")
            targets = _count_calls(m, weights, "block_invariant_space")
            report = curve_hypothesis_fixed_check(rep, sizes, GrowthSpec.simple([(1, 1)]), curve)
            assert report.ok is ok and report.hypothesis_dim > 0
            assert len(actions) == rep.entry_degree * curve.degree + 1
            assert len(targets) == 1
