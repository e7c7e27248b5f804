"""Weight-space machinery for wedge and adjoint representations of SL(n).

Fix block sizes m_1 > m_2 > ... > m_k >= 1 (all < n).  Each block size m
contributes the diagonal generator diag(m, -1, ..., -1, 0, ..., 0) (m minus
ones).  The standard basis of a wedge power or of the traceless matrices
consists of simultaneous eigenvectors of all these generators; the
per-generator eigenvalues make up the weight of a basis vector.  A growth
specification (one divergent ``ClosedForm`` per block, a sum of c * i^p
whose exponents may be rational) classifies every weight as expanding (+),
bounded (0), or contracting (-), and the lemma verifiers
below check, by exact linear algebra, that vectors whose shear translates
avoid the expanding part must keep a nonzero bounded-or-better shadow.

The group and algebra actions follow the structure of the matrices rather
than multiplying dense ones.  On the adjoint, g E_pq g^-1 is the rank-one
product (column p of g)(row q of g^-1) and [x, E_pq] is
(column p of x) e_q^T - e_p (row q of x); on a wedge power column J of g
is the exterior product of the sparse columns j of g, and columns that
share a prefix share its product.  Zero factors are skipped throughout;
shears u(e) are mostly zeros.

Everything in this module runs on the exact backend, and its linear
algebra runs on integers.  The minors and the rank-one terms are computed
on D g (and D' g^-1), D the common denominator, and each entry is divided
once at the end; the E_pq actions of the alignment and containment checks
are integer columns.  One loop, `_hypothesis`, computes the hypothesis
space for the containment check and the lemma trials alike, each shear
action once, and `lemma_reports` builds both reports in one pass over
those actions, on integer images of the hypothesis basis.  The kernel of
no rows is the whole space (`_kernel`).  Every matrix and vector returned
holds Fractions.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

from . import linalg
from .backend import Rat, _poly_terms, rat
from .algebra import ExactMatrix, row_unipotent


def block_generator(n, m) -> ExactMatrix:
    """diag(m, -1 x m, 0 x (n - m - 1)): the traceless diagonal generator
    attached to block size m, built from `_generator_diagonal`."""
    return ExactMatrix.diagonal(_generator_diagonal(n, m))


def _generator_diagonal(n, m):
    """The diagonal of the block generator of size m, as Fractions: the
    one place it is written."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    return tuple(Rat(x) for x in [m] + [-1] * m + [0] * (n - m - 1))


def validate_block_sizes(n, sizes):
    sizes = tuple(int(m) for m in sizes)
    if not sizes:
        raise ValueError("need at least one block size")
    if any(not 1 <= m < n for m in sizes):
        raise ValueError("block sizes must lie in [1, n)")
    if any(a <= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("block sizes must be strictly decreasing")
    return sizes


@dataclass(frozen=True)
class RepSpace:
    """A wedge power of the standard representation, or the adjoint."""

    n: int
    kind: str
    degree: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a representation of SL(n) needs n >= 2, got n = %r" % (self.n,))
        if self.kind not in ("wedge", "adjoint"):
            raise ValueError("kind must be 'wedge' or 'adjoint'")
        if self.kind == "wedge" and not 1 <= self.degree <= self.n - 1:
            raise ValueError("wedge degree must lie in [1, n-1]")

    def labels(self):
        if self.kind == "wedge":
            return tuple(itertools.combinations(range(1, self.n + 1), self.degree))
        out = [("E", p, q) for p in range(1, self.n + 1) for q in range(1, self.n + 1) if p != q]
        out += [("H", i) for i in range(1, self.n)]
        return tuple(out)

    @property
    def dim(self):
        if self.kind == "wedge":
            d = 1
            for t in range(self.degree):
                d = d * (self.n - t) // (t + 1)
            return d
        return self.n * self.n - 1

    # polynomial degree of the matrix entries of the group action in the
    # entries of the acting matrix: minors of size d, or conjugation
    @property
    def entry_degree(self):
        return self.degree if self.kind == "wedge" else 2

    # -- adjoint coordinate helpers -----------------------------------------
    def _adjoint_coords(self, terms):
        """Coordinates of the traceless matrix sum of +-u v^T over the
        (negate, u, v) terms of integer vectors; zero entries of u and v
        are skipped.

        E_pq takes entry (p, q) and H_i the sum of the first i diagonal
        entries, the coordinates of sum_i c_i H_i in which the diagonal of a
        traceless matrix is written.
        """
        n = self.n
        col = [0] * self.dim
        diag = [0] * n
        for negate, u, v in terms:
            vs = [(b, y) for b, y in enumerate(v) if y != 0]
            for a, x in enumerate(u):
                if x == 0:
                    continue
                if negate:
                    x = -x
                base = a * (n - 1)
                for b, y in vs:
                    if a == b:
                        diag[a] = diag[a] + x * y
                    else:
                        k = base + b - (b > a)
                        col[k] = col[k] + x * y
        total = 0
        for i in range(n - 1):
            total = total + diag[i]
            col[n * (n - 1) + i] = total
        return col

    def _adjoint_columns(self, image):
        """Integer columns of a linear map on sl(n) given on each E_pq
        (0-based p, q) as a sum of integer rank-one terms image(p, q);
        H_i = E_ii - E_{i+1,i+1} maps to image(i, i) minus
        image(i + 1, i + 1)."""
        cols = []
        for lab in self.labels():
            if lab[0] == "E":
                terms = image(lab[1] - 1, lab[2] - 1)
            else:
                i = lab[1] - 1
                terms = image(i, i) + [(not neg, u, v) for neg, u, v in image(i + 1, i + 1)]
            cols.append(self._adjoint_coords(terms))
        return cols

    # -- actions --------------------------------------------------------------
    def group_matrix(self, g: ExactMatrix) -> ExactMatrix:
        """The representation matrix of a group element.

        Wedge: entry (I, J) is the minor of g on rows I and columns J, the
        coefficient of e_I in g e_{j_1} ^ ... ^ g e_{j_d}; the columns are
        exterior products of sparse columns (`_wedge_columns`), and only
        the nonzero minors are written over one shared zero.  Adjoint:
        g E_pq g^-1 is the rank-one matrix (column p of g)(row q of g^-1).
        Both run on integers: the minors of D g, and the rank-one terms of
        D_1 g and D_2 g^-1, for D, D_1 and D_2 the common denominators
        (`linalg.clear_denominators`), each entry divided by D^d or by
        D_1 D_2 once at the end.
        """
        if g.nrows != self.n:
            raise ValueError("acting matrix must be %d x %d" % (self.n, self.n))
        if self.kind == "wedge":
            scale, rows = linalg.clear_denominators(g.rows)
            den, zero = scale**self.degree, Rat(0)
            index = {lab: t for t, lab in enumerate(self.labels())}
            out = [[zero] * self.dim for _ in range(self.dim)]
            for t, col in enumerate(_wedge_columns(rows, self.degree)):
                for I, c in col:
                    out[index[I]][t] = Rat(c, den)
            return ExactMatrix._trusted(out)
        # g E_pq g^-1 = (column p of g)(row q of g^-1)
        d1, gcols = linalg.clear_denominators(g.columns())
        d2, ginv = linalg.clear_denominators(g.inverse().rows)
        cols = self._adjoint_columns(lambda p, q: [(False, gcols[p], ginv[q])])
        return ExactMatrix._trusted(zip(*_over(cols, d1 * d2)))

    def _algebra_columns(self, xrows):
        """Integer columns of the derived action of the n x n integer
        matrix xrows."""
        labs = self.labels()
        if self.kind == "wedge":
            index = {J: t for t, J in enumerate(labs)}
            cols = []
            for J in labs:
                col = [0] * len(labs)
                for t, j in enumerate(J):
                    for p in range(1, self.n + 1):
                        c = xrows[p - 1][j - 1]
                        if c == 0:
                            continue
                        res = _wedge_replace(J, t, p)
                        if res is None:
                            continue
                        J2, sign = res
                        col[index[J2]] = col[index[J2]] + sign * c
                cols.append(col)
            return cols
        # [x, E_pq] = (column p of x) e_q^T - e_p (row q of x)
        xcols, unit = list(zip(*xrows)), linalg.identity(self.n)
        return self._adjoint_columns(
            lambda p, q: [(False, xcols[p], unit[q]), (True, unit[p], xrows[q])]
        )


def _over(rows, scale):
    """Rows of the Rats x / scale for rows of integers x; with scale 1 each
    Rat is built without a gcd, and the zeros share one Rat."""
    zero = Rat(0)
    if scale == 1:
        return [[Rat(x) if x else zero for x in row] for row in rows]
    return [[Rat(x, scale) if x else zero for x in row] for row in rows]


def _wedge_columns(rows, d):
    """Column J of the d-th wedge power of the square integer matrix rows,
    for every J in `RepSpace.labels` order: the (I, minor of rows on rows I
    and columns J) pairs whose minor is nonzero, I and J 1-based sorted
    tuples.

    Column J is g e_{j_1} ^ ... ^ g e_{j_d}: the column of its prefix
    J[:-1], built once and shared by every J that starts with it, wedged
    with the sparse column j_d of g.  e_I ^ e_i is 0 for i in I, and
    otherwise e_{I + i} with the sign of the len(I) - k entries of I that
    e_i passes, k its insertion point.  Zero entries and zero sums are
    dropped, so the column of a shear u(e) has at most d + 1 pairs.
    """
    n = len(rows)
    cols = [[(i + 1, rows[i][j]) for i in range(n) if rows[i][j] != 0] for j in range(n)]
    labs = list(itertools.combinations(range(1, n + 1), d))
    built = {(): [((), 1)]}
    for J in labs:
        for t in range(1, d + 1):
            if J[:t] not in built:
                acc = {}
                for I, x in built[J[: t - 1]]:
                    for i, y in cols[J[t - 1] - 1]:
                        k = bisect.bisect_left(I, i)
                        if k == len(I) or I[k] != i:
                            key = I[:k] + (i,) + I[k:]
                            acc[key] = acc.get(key, 0) + (-x * y if (len(I) - k) % 2 else x * y)
                built[J[:t]] = [(I, x) for I, x in acc.items() if x != 0]
    return [built[J] for J in labs]


def _wedge_replace(J, t, p):
    """In the wedge monomial J, replace slot t by e_p; (sorted, sign) or None."""
    if p == J[t]:
        return J, 1
    rest = J[:t] + J[t + 1 :]
    if p in rest:
        return None
    c = sum(1 for r in rest if r < p)
    new = tuple(sorted(rest + (p,)))
    sign = -1 if (t - c) % 2 else 1
    return new, sign


def weight_table(rep: RepSpace, block_sizes):
    """Ordered mapping label -> weight tuple: the eigenvalues of each
    block's generator on the basis vector, read off its diagonal
    (`_generator_diagonal`): d_i + d_j + ... on a wedge monomial, d_p - d_q
    on E_pq, 0 on H_i."""
    n = rep.n
    diags = [_generator_diagonal(n, m) for m in validate_block_sizes(n, block_sizes)]

    def eigenvalue(d, lab):
        if rep.kind == "wedge":
            return sum(d[i - 1] for i in lab)
        return d[lab[1] - 1] - d[lab[2] - 1] if lab[0] == "E" else Rat(0)

    return {lab: tuple(eigenvalue(d, lab) for d in diags) for lab in rep.labels()}


@dataclass(frozen=True)
class ClosedForm:
    """A finite sum  c_1 * i^{p_1} + ... + c_r * i^{p_r}  with rational c
    and rational p >= 0, stored canonically (exponents strictly decreasing,
    zero coefficients dropped, an integral exponent as an int).  Exact
    evaluation needs integer exponents."""

    terms: tuple  # ((c, p), ...) canonical

    def __post_init__(self):
        agg = {}
        for c, p in self.terms:
            c, p = rat(c), rat(p)
            if p < 0:
                raise ValueError("negative exponent in closed form")
            if p.denominator == 1:
                p = int(p)
            agg[p] = agg.get(p, Rat(0)) + c
        canon = tuple(
            (c, p) for p, c in sorted(agg.items(), reverse=True) if c != 0
        )
        object.__setattr__(self, "terms", canon)

    # -- constructors ---------------------------------------------------

    @classmethod
    def parse(cls, text) -> "ClosedForm":
        """Parse '2*i^2 + i - 3' style text (variable letter i)."""
        terms = _poly_terms(text, "i")
        if not terms:
            raise ValueError("empty closed form in %r" % text)
        return cls(tuple(terms))

    # -- arithmetic ------------------------------------------------------

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        return ClosedForm(self.terms + tuple((-c, p) for c, p in other.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for c, p in self.terms:
            if p == 0:
                bits.append(str(c))
                continue
            head = "i" if p == 1 else ("i^%s" if isinstance(p, int) else "i^(%s)") % p
            if c == 1:
                bits.append(head)
            elif c == -1:
                bits.append("-" + head)
            else:
                bits.append("%s*%s" % (c, head))
        return " + ".join(bits).replace("+ -", "- ")

    # -- structure -------------------------------------------------------

    def eval_exact(self, i):
        i = rat(i)
        total = Rat(0)
        for c, p in self.terms:
            if not isinstance(p, int):
                raise ValueError("exact evaluation needs integer exponents: %s" % self)
            total += c * i**p
        return total

    def eval_float(self, i) -> float:
        return float(self.eval_exact(i))

    @property
    def leading(self):
        """(coefficient, exponent) of the dominant term; (0, 0) for the
        zero form."""
        return self.terms[0] if self.terms else (Rat(0), 0)

    def growth_part(self) -> "ClosedForm":
        """The exponent > 0 terms."""
        return ClosedForm(tuple((c, p) for c, p in self.terms if p > 0))

    def constant_part(self):
        for c, p in self.terms:
            if p == 0:
                return c
        return Rat(0)

    def is_bounded(self) -> bool:
        return all(p == 0 for _, p in self.terms)

    def diverges(self) -> bool:
        c, p = self.leading
        return p > 0 and c > 0

    def root_bound(self) -> int:
        """Integer B with no real roots in [B, inf): Cauchy's
        1 + max |a_q| / |a_lead| over the lower-order terms."""
        if not self.terms or len(self.terms) == 1:
            return 1
        lead = abs(self.terms[0][0])
        worst = max(abs(c) for c, _ in self.terms[1:])
        b = 1 + worst / lead
        out = int(b)
        return out + 1 if out < b else max(out, 1)


@dataclass(frozen=True)
class GrowthSpec:
    """One divergent closed form t_l(i) per block: layers[l] is a
    ClosedForm whose leading term has a positive coefficient and a positive
    (possibly rational) exponent."""

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        for layer in self.layers:
            if not layer.diverges():
                raise ValueError("each layer must diverge to +infinity; got %s" % layer)

    @classmethod
    def simple(cls, monomials):
        """One (coefficient, exponent) monomial per layer."""
        return cls(tuple(ClosedForm((pair,)) for pair in monomials))

    @property
    def k(self):
        return len(self.layers)

    def truncate(self, count):
        if not 1 <= count <= self.k:
            raise ValueError("truncation length out of range")
        return GrowthSpec(self.layers[:count])

    def classify(self, weight):
        """Sign of the limit of weight . t_i: '+', '-', or '0' (bounded)."""
        if len(weight) != self.k:
            raise ValueError("weight length mismatch")
        terms = [(mu * c, p) for mu, t in zip(weight, self.layers) for c, p in t.terms if p > 0]
        c, _ = ClosedForm(tuple(terms)).leading
        return "+" if c > 0 else "-" if c < 0 else "0"


@dataclass(frozen=True)
class WeightSplit:
    """Weights of a representation classified against a growth spec."""

    rep: RepSpace
    block_sizes: tuple
    growth: GrowthSpec
    labels: tuple
    weights: tuple
    classes: tuple

    def indices(self, cls):
        return tuple(i for i, c in enumerate(self.classes) if c == cls)

    def zero_weight_indices(self, first=None):
        """Indices whose first `first` weight entries all vanish (default:
        all of them — the fully invariant weight space)."""
        take = self.growth.k if first is None else first
        return tuple(
            i for i, w in enumerate(self.weights) if all(x == 0 for x in w[:take])
        )


def split_spaces(rep: RepSpace, block_sizes, growth: GrowthSpec) -> WeightSplit:
    sizes = validate_block_sizes(rep.n, block_sizes)
    if len(sizes) != growth.k:
        raise ValueError("block count and growth layer count differ")
    return _split(rep, sizes, growth)


# every argument and the result are frozen, so one split serves all trials
@functools.lru_cache(maxsize=64)
def _split(rep, sizes, growth):
    table = weight_table(rep, sizes)
    ws = tuple(table.values())
    cls = tuple(growth.classify(w) for w in ws)
    return WeightSplit(rep, sizes, growth, tuple(table), ws, cls)


def _int_sum(coeffs, vecs):
    """The integer vector sum of c * v over paired integer coefficients and
    integer vectors; zero coefficients and entries are skipped."""
    out = [0] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c != 0:
            for i, x in enumerate(v):
                if x != 0:
                    out[i] += c * x
    return out


def _combine(coeffs, scaled):
    """The vector sum of c * v over paired rational coefficients and
    vectors, given the vectors as scaled = (E, E * vecs) with E * vecs
    integral (`linalg.clear_denominators`).  The sum runs on the integers
    D c and divides by D E once, D the coefficients' common denominator."""
    scale, (ints,) = linalg.clear_denominators([coeffs])
    vscale, vecs = scaled
    return _over([_int_sum(ints, vecs)], scale * vscale)[0]


def _kernel(rows, dim):
    """Fraction basis of the common kernel of the rows in Q^dim.  No rows
    leave the whole space, the unit vectors; `linalg.kernel_basis([])` is []."""
    if not rows:
        return [[Rat(int(i == j)) for j in range(dim)] for i in range(dim)]
    return linalg.kernel_basis(rows)


@dataclass(frozen=True)
class Subspace:
    """Exact subspace in canonical (reduced row echelon) form."""

    ambient_dim: int
    basis: tuple  # rref rows, tuple of tuples

    @classmethod
    def from_generators(cls, vecs, ambient_dim):
        vecs = [list(v) for v in vecs if any(x != 0 for x in v)]
        if not vecs:
            return cls(ambient_dim, ())
        rows, pivots = linalg.rref(vecs)
        basis = tuple(tuple(r) for r in rows[: len(pivots)])
        return cls(ambient_dim, basis)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        if self.dim == 0:
            return all(x == 0 for x in vec)
        stacked = [list(b) for b in self.basis] + [list(vec)]
        return linalg.rank(stacked) == self.dim

    def is_contained_in(self, other: "Subspace"):
        return all(other.contains(b) for b in self.basis)


def _points_ok(points, n, m1):
    """Points live in Q^{n-1}, are supported on the first m1 coordinates,
    and affinely span that copy of R^{m1}."""
    pts = [tuple(rat(x) for x in p) for p in points]
    if any(len(p) != n - 1 for p in pts):
        return False
    if any(any(x != 0 for x in p[m1:]) for p in pts):
        return False
    if len(pts) < m1 + 1:
        return False
    diffs = [[p[i] - pts[0][i] for i in range(m1)] for p in pts[1:]]
    return linalg.rank(diffs) == m1


def _hypothesis(rep: RepSpace, plus, points):
    """(space, actions): the common kernel of the rows plus of the actions
    u(e) of the points, and the actions of the points read, in order.

    The points are read one at a time, so they may come lazily, and each
    action is computed once, when its point is reached.  The rows are held
    as integers (`linalg._primitive_row`).  Once at least rep.dim are held
    they are replaced by the nonzero rows of their rref, each kept as an
    integer multiple (`linalg._gauss_jordan`), and once their rank reaches
    rep.dim the space is {0} and no further point is read.  The answer is
    the one all points give: more rows only shrink the kernel, and the rref
    is unique, so the reduced rows have the kernel of the rows they
    replace.  With no rows, the space is the whole space (`_kernel`).
    """
    dim = rep.dim
    rows, actions = [], []
    for e in points:
        actions.append(rep.group_matrix(row_unipotent(e)))
        rows += [linalg._primitive_row(actions[-1].rows[i]) for i in plus]
        if len(rows) >= dim:
            pivots = linalg._gauss_jordan(rows)
            if len(pivots) == dim:
                return Subspace(dim, ()), actions
            del rows[len(pivots) :]
    return Subspace.from_generators(_kernel(rows, dim), dim), actions


def hypothesis_space(rep: RepSpace, block_sizes, growth: GrowthSpec, points) -> Subspace:
    """Vectors all of whose shear translates by the given points have zero
    component in every expanding weight direction: the common kernel of the
    expanding rows of the actions u(e), from `_hypothesis`, the one loop
    that `lemma_reports` runs too.  The points may come lazily, and none is
    read after the space is {0}."""
    return _hypothesis(rep, split_spaces(rep, block_sizes, growth).indices("+"), points)[0]


@dataclass(frozen=True)
class LemmaReport:
    ok: bool
    hypothesis_dim: int
    violations: tuple
    notes: tuple = ()


def _report(space: Subspace, violations):
    notes = () if space.dim else ("hypothesis space trivial",)
    return LemmaReport(not violations, space.dim, tuple(violations), notes)


def lemma_reports(rep: RepSpace, block_sizes, growth: GrowthSpec, points, require_spanning=True):
    """(projection report, spanning report) from one pass over the points:
    the loop `_hypothesis` that `hypothesis_space` runs too, then one loop
    over (point, shear action) that builds both reports.

    The spanning report is the full-strength conclusion: on the hypothesis
    space, every shear translate keeps a nonzero fully-invariant
    (all-blocks-zero) component.  With one block this is the
    zero-projection lemma, and it is the projection report too; a single
    divergent growth layer classifies each weight by its sign alone, so
    there the reports do not depend on the growth spec.

    With k >= 2 blocks the projection report checks two clauses per point:

    (i) dropping the last block, shear translates of the hypothesis space
        still avoid the truncated expanding directions;
    (ii) a translate whose fully-invariant component vanishes also loses
        its first-(k-1)-blocks-invariant component.

    The images u(e) b of the hypothesis basis are integer columns, the
    basis cleared once (S b) summed over the action's cleared columns
    (E u(e)): one positive multiple S E of the true images per point, so
    no zero test and no kernel changes.  The coefficients y whose translate
    has no fully invariant component are the kernel of the images' fully
    invariant rows (`_kernel`), and a violation names the vector y b.

    require_spanning=False skips the span test (`_points_ok`), for points
    a caller has drawn with it."""
    split = split_spaces(rep, block_sizes, growth)
    m1, k = split.block_sizes[0], growth.k
    pts = [tuple(rat(x) for x in p) for p in points]
    if require_spanning and not _points_ok(pts, rep.n, m1):
        raise ValueError("points must affinely span the embedded R^%d" % m1)
    space, actions = _hypothesis(rep, split.indices("+"), pts)
    layered, spanning = [], []
    if space.dim:  # else there is no image and no violation
        zero_full = split.zero_weight_indices()
        if k > 1:
            plus_trunc = split_spaces(rep, split.block_sizes[:-1], growth.truncate(k - 1)).indices("+")
            zero_head = split.zero_weight_indices(first=k - 1)
        basis = linalg.clear_denominators(space.basis)
        for e, act in zip(pts, actions):
            cols = linalg.clear_denominators(act.columns())[1]
            rows = list(zip(*(_int_sum(b, cols) for b in basis[1])))
            kernel = _kernel([rows[i] for i in zero_full], space.dim)
            vecs = [tuple(_combine(y, basis)) for y in kernel]
            spanning += [(e, vec) for vec in vecs]
            if k > 1:
                layered += [("expanding-after-truncation", e, i) for i in plus_trunc if any(rows[i])]
                layered += [("invariant-shadow-lost", e, vec) for y, vec in zip(kernel, vecs)
                            if any(linalg.dot(rows[i], y) != 0 for i in zero_head)]
    spanning = _report(space, spanning)
    return (spanning if k == 1 else _report(space, layered)), spanning


@dataclass(frozen=True)
class AlignmentReport:
    ok: bool
    component_count: int
    violations: tuple


def _elementary_actions(rep: RepSpace, block, last):
    """The algebra action of each elementary E_pq with p <= block and
    q <= last, q != p (1-based), p major, as its integer columns
    (`RepSpace._algebra_columns`, D = 1)."""
    n = rep.n
    for p in range(block):
        for q in range(last):
            if q != p:
                rows = [[0] * n for _ in range(n)]
                rows[p][q] = 1
                yield rep._algebra_columns(rows)


def _support_components(rep: RepSpace, block):
    """Connected components of the basis-support graph under the action of
    the leading-block algebra (off-diagonal elementary matrices)."""
    labs = rep.labels()
    dim = len(labs)
    parent = list(range(dim))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for cols in _elementary_actions(rep, block, block):
        for j, col in enumerate(cols):
            for i, x in enumerate(col):
                if x != 0:
                    union(i, j)
    comps = {}
    for i in range(dim):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


def weight_alignment_check(rep: RepSpace, block_sizes):
    """Within each irreducible piece under the last block's algebra, weight
    differences line up along the last coordinate.

    Checks (a) the centralizer-shift scalar identity on the leading columns,
    (b) the exact affine relation mu_l - nu_l = f_l (mu_k - nu_k), f_l =
    (m_l + 1) / (m_k + 1), for every weight pair in every piece, and (c) on
    the grid {1/2, 1, 2}^k of layer values t, the sign equivalences: mu.t >=
    nu.t iff mu_k >= nu_k iff (for k >= 2) the truncated forms satisfy the
    same inequality.  (b) and (c) run on integers: the weights times their
    common denominator, (b) multiplied through by m_k + 1 and the grid by 2,
    which changes no equality and no sign.  Each block generator's diagonal
    is read once.
    """
    sizes = validate_block_sizes(rep.n, block_sizes)
    k = len(sizes)
    mk = sizes[-1]
    violations = []

    # (a) scalar identity on the defining representation's leading block
    dk = _generator_diagonal(rep.n, mk) if k > 1 else ()
    for m in sizes[:-1]:
        dl = _generator_diagonal(rep.n, m)
        f, scalar_expect = Rat(m + 1, mk + 1), Rat(m - mk, mk + 1)
        for i in range(mk + 1):
            got = dl[i] - f * dk[i]
            if got != scalar_expect:
                violations.append(("scalar-identity", m, i, got))

    labs = rep.labels()
    _, ws = linalg.clear_denominators(weight_table(rep, sizes).values())
    comps = _support_components(rep, mk + 1)
    grid = list(zip(itertools.product((Rat(1, 2), Rat(1), Rat(2)), repeat=k),
                    itertools.product((1, 2, 4), repeat=k)))

    for comp in comps:
        for a, b in itertools.combinations(comp, 2):
            diff = [x - y for x, y in zip(ws[a], ws[b])]
            dk, pair = diff[-1], (labs[a], labs[b])
            if any(d * (mk + 1) != (m + 1) * dk for d, m in zip(diff[:-1], sizes)):
                violations.append(("affine-relation",) + pair)
            up = dk >= 0
            for t, t2 in grid:
                head = sum(d * x for d, x in zip(diff[:-1], t2))
                if (head + dk * t2[-1] >= 0) != up:
                    violations.append(("grid-sign",) + pair + (t,))
                if k >= 2 and (head >= 0) != up:
                    violations.append(("grid-sign-truncated",) + pair + (t,))
    return AlignmentReport(not violations, len(comps), tuple(violations))


def block_invariant_space(rep: RepSpace, block) -> Subspace:
    """Common kernel of the block subgroup's algebra in the representation:
    exactly the vectors fixed by the whole block subgroup [[A, w], [0, I]].

    The algebra is generated by the E_pq with p in the block and q != p.
    Those with q in the block generate sl(block), since [E_pq, E_qp] =
    E_pp - E_qq, and a vector that X and Y send to 0 is sent to 0 by [X, Y].
    The zero rows of the actions are dropped before the one kernel_basis
    (rref ignores them, so the kernel is the same); with no nonzero row the
    space is the whole space (`_kernel`).
    """
    if not 1 <= block <= rep.n:
        raise ValueError("block out of range")
    rows = [
        row
        for cols in _elementary_actions(rep, block, rep.n)
        for row in zip(*cols)
        if any(row)
    ]
    return Subspace.from_generators(_kernel(rows, rep.dim), rep.dim)


def _check_curve_dim(rep: RepSpace, curve):
    """Refuse a curve that does not map into Q^{n-1}."""
    if curve.k != rep.n - 1:
        raise ValueError("curve must map into Q^%d" % (rep.n - 1))


def curve_hypothesis_fixed_check(rep: RepSpace, block_sizes, growth: GrowthSpec, curve):
    """The hypothesis space generated by sampling a full polynomial curve is
    fixed by the leading block subgroup.

    Sampling at entry_degree * curve.degree + 1 distinct parameters spans
    the same constraint space as the whole curve (Vandermonde), so the
    finite check is exact, not a heuristic.  The samples are evaluated
    lazily, so those after `hypothesis_space` finds {0} never are, and {0}
    lies in every subspace, so then `block_invariant_space` is not built.
    """
    sizes = validate_block_sizes(rep.n, block_sizes)
    _check_curve_dim(rep, curve)
    count = rep.entry_degree * max(curve.degree, 1) + 1
    pts = (curve.eval_exact(s) for s in curve.sample_points(count))
    space = hypothesis_space(rep, sizes, growth, pts)
    contained = not space.dim or space.is_contained_in(block_invariant_space(rep, sizes[0] + 1))
    return _report(space, () if contained else space.basis)
