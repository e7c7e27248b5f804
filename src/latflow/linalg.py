"""Small dense linear algebra over exact rationals or floats.

Everything in this package works at n <= ~35 (adjoint of sl(6)), so plain
list-of-lists Gaussian elimination is the right tool; no numpy.  Matrices are
lists of rows.  The exact routines take int or Fraction entries and
decide every comparison with 0 exactly; the float variants pick pivots by
magnitude.  The exact `det` scales its input by the common denominator
and runs fraction-free (Bareiss) elimination on integers.  `rref` (and
with it `rank` and `kernel_basis`) is fraction-free per row: each row is
scaled to integers by its own denominators, Gauss-Jordan runs on those,
and the Fractions x / pivot are built once at the end.  The exact
`inverse` is the right half of `rref([a | I])`, so it runs the same way.
`rref` and the float `det` skip zero entries: `rref` updates only the
columns where the pivot row is nonzero beyond a row's rescaling, and `det`
updates no row whose entry below the pivot is zero, so sparse and
triangular input is cheap.
gram_schmidt takes float or rational entries (not plain ints, which `/`
turns into floats); its only caller here is the float LLL.

There is one LLL per backend.  `lll_reduce` reduces float bases.  It runs
Gram-Schmidt in full once and then incrementally: row j of Gram-Schmidt
depends only on columns 0..j, so a size reduction of column k recomputes
rows k onwards and a swap of columns k - 1, k rows k - 1 onwards.  The
rows kept are those a full pass would compute, bit for bit.  Two planar
columns, the only float bases the k = 1 sweeps reduce, go through
`_lll_planar`: the same loop on scalars (Lagrange-Gauss reduction), with
the same floating-point operations in the same order, so the result is
equal in repr and no Gram-Schmidt lists are built.  On the exact backend
`lll_integral` reduces integer columns (a rational basis is
first scaled by its common denominator) and keeps integer Gram
determinants and scaled Gram-Schmidt coefficients, updated in place on
each size reduction and swap, so no rational Gram-Schmidt is ever
recomputed.
"""

from __future__ import annotations

import math
import warnings
from operator import mul

from .backend import LLLIterationCap, Rat, rat


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, p = len(a), len(b[0]), len(b)
    if len(a[0]) != p:
        raise ValueError("shape mismatch %dx%d @ %dx%d" % (n, len(a[0]), p, m))
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            s = ai[0] * b[0][j]
            for k in range(1, p):
                s = s + ai[k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def dot(u, v):
    s = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        s = s + x * y
    return s


def _pivot_index(col, start, approx):
    if approx:
        best, arg = 0.0, -1
        for i in range(start, len(col)):
            if abs(col[i]) > best:
                best, arg = abs(col[i]), i
        return arg if best > 0.0 else -1
    for i in range(start, len(col)):
        if col[i] != 0:
            return i
    return -1


def det(a, approx=False):
    """Determinant of a square matrix.  Exact input is scaled by its common
    denominator D (`clear_denominators`) and D A goes through fraction-free
    Bareiss elimination, so det A = det(D A) / D^n comes back as one Rat;
    approx picks float pivots by magnitude."""
    n = len(a)
    if not approx:
        scale, m = clear_denominators(a)
        # Bareiss (1968): after step j the rows below j hold (j+1) x (j+1)
        # minors, so each division by the previous pivot is exact and the
        # last pivot is the determinant
        sign, prev = 1, 1
        for j in range(n):
            piv = _pivot_index([m[i][j] for i in range(n)], j, False)
            if piv < 0:
                return Rat(0)
            if piv != j:
                m[piv], m[j] = m[j], m[piv]
                sign = -sign
            pj = m[j]
            p = pj[j]
            for i in range(j + 1, n):
                row = m[i]
                f = row[j]
                for c in range(j + 1, n):
                    row[c] = (row[c] * p - f * pj[c]) // prev
            prev = p
        return Rat(sign * prev, scale**n)
    m = [list(row) for row in a]
    sign = 1
    prod = 1.0
    for j in range(n):
        piv = _pivot_index([m[i][j] for i in range(n)], j, True)
        if piv < 0:
            return prod * 0
        if piv != j:
            m[piv], m[j] = m[j], m[piv]
            sign = -sign
        p = m[j][j]
        prod = prod * p
        for i in range(j + 1, n):
            if m[i][j] != 0:  # a zero below the pivot needs no row update
                f = m[i][j] / p
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return prod * sign


def inverse(a, approx=False):
    """Inverse of a square matrix.  Exact input: the right half of
    rref([a | I]), so it runs fraction-free like `rref` and refuses floats
    as `rat` does; a is singular when the left half lacks a pivot.  approx
    runs float Gauss-Jordan with pivots picked by magnitude."""
    n = len(a)
    m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    if not approx:
        rows, pivots = rref(m)
        if pivots[:n] != list(range(n)):
            raise ValueError("singular matrix")
        return [row[n:] for row in rows]
    for j in range(n):
        piv = _pivot_index([m[i][j] for i in range(n)], j, True)
        if piv < 0:
            raise ValueError("singular matrix")
        m[piv], m[j] = m[j], m[piv]
        p = m[j][j]
        m[j] = [x / p for x in m[j]]
        for i in range(n):
            if i != j and m[i][j] != 0:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return [row[n:] for row in m]


def _primitive_row(row):
    """The row as coprime integers, a positive multiple of it: scaled by the
    lcm of its denominators and divided by the gcd of the result.  Entries
    are coerced as by `rat`, so a float is refused."""
    pairs = [(x if type(x) is int or type(x) is Rat else rat(x)).as_integer_ratio() for x in row]
    scale = math.lcm(*(d for _, d in pairs))
    row = [n for n, _ in pairs] if scale == 1 else [n * (scale // d) for n, d in pairs]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(a):
    """Exact reduced row echelon form; returns (rref_rows, pivot_columns).

    Fraction-free: each row is scaled to integers by its own denominators
    (`_primitive_row`) and Gauss-Jordan runs on those (`_gauss_jordan`).
    A pivot row stays an integer multiple of its reduced row, so the
    Fractions x / pivot are built once at the end; the reduced form is
    unique, so they are the entries any exact elimination gives.
    """
    if not a:
        return [], []
    rows = [_primitive_row(row) for row in a]
    pivots = _gauss_jordan(rows)
    zero = Rat(0)
    out = [[Rat(x, row[j]) if x else zero for x in row] for row, j in zip(rows, pivots)]
    out += [[zero] * len(rows[0]) for _ in range(len(pivots), len(rows))]
    return out, pivots


def _gauss_jordan(rows):
    """Gauss-Jordan in place on a nonempty list of primitive integer rows
    (`_primitive_row`); returns the pivot columns.

    Afterwards rows[t] is an integer multiple, with coprime entries, of
    row t of the reduced row echelon form, and the rows from len(pivots)
    on are zero.  Clearing column j of a row with entry f against the
    pivot row with entry p sets it to (p row - f pivot_row) / g for
    g = gcd(p, f), touching only the pivot row's nonzero columns beyond the
    rescaling, and then divides the row by the gcd of its entries.
    """
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for j in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if rows[i][j] != 0:
                piv = i
                break
        if piv < 0:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        prow = rows[r]
        p = prow[j]
        # the pivot row is zero left of j; only its nonzero columns change
        # anything beyond the rescaling, as x - f * 0 is x
        nz = [c for c in range(j, ncols) if prow[c] != 0]
        for i in range(nrows):
            row = rows[i]
            f = row[j]
            if i == r or f == 0:
                continue
            g = math.gcd(p, f)
            if p != g:
                row = [x * (p // g) for x in row]
            f //= g
            for c in nz:
                row[c] -= f * prow[c]
            g = math.gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(j)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(a):
    return len(rref(a)[1]) if a else 0


def kernel_basis(a):
    """Exact basis of the right kernel {x : a x = 0}; list of vectors."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = rref(a)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Rat(0)] * ncols
        v[f] = Rat(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def gram_schmidt(cols):
    """Gram-Schmidt on a list of column vectors; returns (bstar, mu, norms2)."""
    n = len(cols)
    bstar, mu, norms2 = [None] * n, [[0] * n for _ in range(n)], [None] * n
    _gram_schmidt_from(cols, 0, bstar, mu, norms2)
    return bstar, mu, norms2


def _gram_schmidt_from(cols, start, bstar, mu, norms2):
    """Recompute rows start, start + 1, ... of the Gram-Schmidt data in
    place.  Row i depends only on cols[0..i], so after a change to
    cols[start:] the rows before start are still those of a full pass."""
    for i in range(start, len(cols)):
        b = cols[i]
        v = list(b)
        row = mu[i]
        for j in range(i):
            m = dot(b, bstar[j]) / norms2[j]
            row[j] = m
            if m != 0:
                v = [x - m * y for x, y in zip(v, bstar[j])]
        bstar[i] = v
        c = dot(v, v)
        if c == 0:
            raise ValueError("linearly dependent columns")
        norms2[i] = c


def clear_denominators(cols):
    """(D, D * cols) for D the least common denominator of the rational
    entries, so that the second item holds integer columns."""
    scale = math.lcm(*(x.denominator for col in cols for x in col))
    return scale, [
        [x.numerator * (scale // x.denominator) for x in col]
        for col in cols
    ]


def lll_reduce(cols, max_iters=100_000):
    """Float LLL reduction (delta = 3/4) of a list of column vectors.

    Returns (reduced_cols, u_cols, mu, c).  u_cols are the columns of the
    unimodular integer transform U with  B_reduced = B_original U,  so a
    coefficient vector x w.r.t. the reduced basis pulls back to U x.  mu
    and c are the Gram-Schmidt coefficients and squared norms of
    reduced_cols, equal to what gram_schmidt(reduced_cols) returns.

    Each pass size-reduces column k against j = k-1, ..., 0 with q the
    integer nearest mu_kj (halves away from 0), then applies the Lovasz
    test.  Gram-Schmidt runs in full once; after that only the rows from
    the first changed column on are recomputed (k after a size reduction
    of column k, k - 1 after a swap), which is the same floating-point
    arithmetic as a full pass.  The loop stops after max_iters passes
    (float LLL may cycle on degenerate input; the basis is still valid).
    Exact bases go through lll_integral.

    Two planar columns go through `_lll_planar`, which keeps them, U, mu_10
    and c as scalars and does the floating-point operations of this loop
    in the same order: its result is equal in repr, bit for bit, and it
    counts passes, warns at the cap and refuses dependent columns as this
    loop does.
    """
    n = len(cols)
    if n == 2 and len(cols[0]) == 2 and len(cols[1]) == 2:
        return _lll_planar(cols, max_iters)
    b = [list(c) for c in cols]
    u = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns
    bstar, mu, c = gram_schmidt(b)
    k = 1
    iters = 0
    while k < n:
        iters += 1
        if iters > max_iters:
            warnings.warn(
                "float LLL stopped at its cap of %d passes; the basis is "
                "valid but may not be reduced" % max_iters,
                LLLIterationCap,
                stacklevel=2,
            )
            break
        for j in range(k - 1, -1, -1):
            m = mu[k][j]
            q = int(m + 0.5) if m >= 0 else -int(-m + 0.5)
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                _gram_schmidt_from(b, k, bstar, mu, c)
        if c[k] >= (0.75 - mu[k][k - 1] * mu[k][k - 1]) * c[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            _gram_schmidt_from(b, k - 1, bstar, mu, c)
            k = max(k - 1, 1)
    return b, u, mu, c


def _lll_planar(cols, max_iters):
    """`lll_reduce` of two columns of length 2: Lagrange-Gauss reduction
    with the two columns, U, mu_10 and c kept as scalars.

    Every expression is the one `gram_schmidt`, `_gram_schmidt_from` and
    `dot` evaluate for n = 2, in their order: c0 = x0 x0 + y0 y0, then
    m = (x1 x0 + y1 y0) / c0, the projection b1 - m b0 only when m != 0,
    and c1 its squared norm.  Row 0 of mu is never written, so it stays
    [0, 0] as in the general loop, and the result is equal in repr."""
    (x0, y0), (x1, y1) = cols
    u00, u01, u10, u11 = 1, 0, 0, 1
    iters = 0
    new_pass = True  # at the start and after a swap both rows are stale
    while True:
        if new_pass:
            c0 = x0 * x0 + y0 * y0
            if c0 == 0:
                raise ValueError("linearly dependent columns")
        m = (x1 * x0 + y1 * y0) / c0
        if m != 0:
            v0, v1 = x1 - m * x0, y1 - m * y0
        else:
            v0, v1 = x1, y1
        c1 = v0 * v0 + v1 * v1
        if c1 == 0:
            raise ValueError("linearly dependent columns")
        if new_pass:
            iters += 1
            if iters > max_iters:
                warnings.warn(
                    "float LLL stopped at its cap of %d passes; the basis is "
                    "valid but may not be reduced" % max_iters,
                    LLLIterationCap,
                    stacklevel=3,
                )
                break
            q = int(m + 0.5) if m >= 0 else -int(-m + 0.5)
            if q != 0:
                # size reduction: recompute row 1, then the Lovasz test
                x1, y1 = x1 - q * x0, y1 - q * y0
                u10, u11 = u10 - q * u00, u11 - q * u01
                new_pass = False
                continue
        if c1 >= (0.75 - m * m) * c0:
            break
        x0, y0, x1, y1 = x1, y1, x0, y0
        u00, u01, u10, u11 = u10, u11, u00, u01
        new_pass = True
    return [[x0, y0], [x1, y1]], [[u00, u01], [u10, u11]], [[0, 0], [m, 0]], [c0, c1]


def lll_integral(b, max_iters=100_000):
    """Integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7) of integer columns b; returns (reduced, u, lam, d).

    reduced and u are as in lll_reduce, with reduced integral.  d[i] is
    the Gram determinant of the first i reduced columns (d[0] = 1), and
    lam[i][j] = d[j+1] * mu[i][j] for j < i, both integral, so
    c[i] = d[i+1] / d[i].  Column k is size-reduced against
    j = k-1, ..., 0 with q = floor(mu_kj + 1/2) (so mu = 1/2 reduces and
    mu = -1/2 does not).  Every size reduction and swap updates only the
    entries it changes, in place; Gram-Schmidt is never recomputed.
    Raises RuntimeError after max_iters passes and ValueError on dependent
    columns.  A rational basis is reduced as D * cols, D its common
    denominator (clear_denominators): mu and the Lovasz test do not see D,
    so the steps taken are those of LLL on cols itself.
    """
    n = len(b)
    b = [list(col) for col in b]
    u = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        bi, li = b[i], lam[i]
        for j in range(i + 1):
            lj = lam[j]
            s = sum(map(mul, bi, b[j]))
            for m in range(j):
                s = (d[m + 1] * s - li[m] * lj[m]) // d[m]
            if j < i:
                li[j] = s
            elif s == 0:
                raise ValueError("linearly dependent columns")
            else:
                d[i + 1] = s
    entries = range(len(b[0]) if n else 0)
    k = 1
    iters = 0
    while k < n:
        iters += 1
        if iters > max_iters:
            raise RuntimeError("LLL failed to terminate")
        bk, uk, lk = b[k], u[k], lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            q = (2 * lk[j] + dj) // (2 * dj)  # floor(mu_kj + 1/2)
            if q != 0:
                bj, uj, lj = b[j], u[j], lam[j]
                for i in entries:
                    bk[i] -= q * bj[i]
                for i in range(n):
                    uk[i] -= q * uj[i]
                lk[j] -= q * dj
                for i in range(j):
                    lk[i] -= q * lj[i]
        l = lk[k - 1]
        dk = d[k]
        # c_k >= (3/4 - mu^2) c_{k-1}, times 4 d[k] d[k-1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * dk * dk - 4 * l * l:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], bk
            u[k], u[k - 1] = u[k - 1], uk
            lk1 = lam[k - 1]
            for j in range(k - 1):
                lk[j], lk1[j] = lk1[j], lk[j]
            dk1 = d[k + 1]
            dnew = (d[k - 1] * dk1 + l * l) // dk
            for i in range(k + 1, n):
                li = lam[i]
                t = li[k]
                li[k] = s = (dk1 * li[k - 1] - l * t) // dk
                li[k - 1] = (dnew * t + l * s) // dk1
            d[k] = dnew
            k = max(k - 1, 1)
    return b, u, lam, d
