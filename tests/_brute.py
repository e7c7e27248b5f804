"""Brute-force oracles, deliberately independent of the package: plain
fractions.Fraction arithmetic, textbook Gaussian elimination, full
integer-box scans.  Slow on purpose; tests keep the boxes small.  The
float routines are lll_float_reference, the float LLL loop written out
with a full Gram-Schmidt pass after every change, and
float_walk_reference, the recursive float Fincke-Pohst walk on top of it,
which warns through the package's `warn_if_near_face` so that its
warnings carry the package's category and message.  The hypothesis-space
references check the early stop alone, so they stack the package's own
actions and take the package's kernel; alignment_reference checks the
integer scaling alone, so it reads the package's weight table and
components.  pull_back_and_mirror and tent_value are the enumeration's
loop over n coordinates and the tent's value written out once more, the
references for the planar pull-back and for `Tent.total`.  shear_at is
the twist scan's per-sample function as it was before the scan built its
diagonal and its row shears once per job: it builds both at every sample.
lemma_reports_reference is the lemma checks through the three helpers
they used before one pass built both reports: Fraction images cleared per
basis vector, then a spanning and a layered pass of their own."""

import math
import warnings
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter, mul

from latflow import experiments, linalg, weights
from latflow.algebra import diagonal_shear, expanding_diagonal
from latflow.backend import FLOAT_SLACK, rat, warn_if_near_face
from latflow.lattice import siegel_transform


def frac(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return Fraction(str(x))  # e.g. a string such as '3/4'


def mat_vec(rows, v):
    """The product of the matrix rows and the vector v, over Fractions."""
    return [sum((frac(a) * frac(x) for a, x in zip(row, v)), Fraction(0)) for row in rows]


def inverse_reference(rows):
    """Gauss-Jordan on Fractions, whole rows, the first nonzero entry as
    pivot; ValueError("singular matrix") when a column has none."""
    n = len(rows)
    a = [
        [frac(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _floor(f):
    return f.numerator // f.denominator


def _ceil(f):
    return -((-f).numerator // f.denominator)


def _strict_top(b):
    # largest integer m with m < b, for b > 0
    return (b.numerator - 1) // b.denominator


def coefficient_tops(basis_cols, bounds):
    """Cramer bounds: |c_i| <= sum_j |(B^-1)_{ij}| * bound_j."""
    cols = [[frac(x) for x in c] for c in basis_cols]
    n = len(cols)
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    inv = inverse_reference(rows)
    return [
        _floor(sum(abs(inv[i][j]) * frac(bounds[j]) for j in range(n)))
        for i in range(n)
    ]


def scan_cost(basis_cols, bounds):
    cost = 1
    for t in coefficient_tops(basis_cols, bounds):
        cost *= 2 * t + 1
    return cost


def enumerate_box(basis_cols, bounds, closed):
    """All nonzero integer combinations of the columns with |v_i| <= bound_i
    (closed[i]) or |v_i| < bound_i (open), by full coefficient-box scan."""
    return [v for v, _ in enumerate_box_coeffs(basis_cols, bounds, closed)]


def _inside(v, bounds, closed):
    return all(abs(x) < b or (cl and abs(x) == b) for x, b, cl in zip(v, bounds, closed))


def enumerate_box_coeffs(basis_cols, bounds, closed):
    """enumerate_box as sorted (point, coefficients) pairs."""
    cols = [[frac(x) for x in c] for c in basis_cols]
    n = len(cols)
    tops = coefficient_tops(basis_cols, bounds)
    bs = [frac(b) for b in bounds]
    hits = []
    for coeff in product(*[range(-t, t + 1) for t in tops]):
        if not any(coeff):
            continue
        v = tuple(sum(c * cols[j][i] for j, c in enumerate(coeff)) for i in range(n))
        if _inside(v, bs, closed):
            hits.append((v, coeff))
    hits.sort()
    return hits


def fincke_pohst_reference(basis_cols, bounds, closed, first_only=False):
    """Textbook Fincke-Pohst walk over Fractions, for the visiting order.

    Each coordinate is divided by its bound, the basis is reduced by
    lll_reference, and the tree is walked inside the sphere of radius^2 n:
    at level j, with center = sum_{l>j} mu_lj x_l, x_j runs over the
    integers with c_j (x_j + center)^2 <= the remaining radius, from
    floor(1/2 - center) outward (mid, mid - 1, mid + 1, ...).  At a level
    whose higher coefficients are all 0 it skips x_j > 0, so it reaches one
    point of each +-v pair: the one whose last nonzero coefficient is
    negative.  Returns (hits, nodes): the (point, coefficients) pairs in
    the box in the order the walk reaches them, each followed by its mirror
    (-point, -coefficients) unless first_only, and the number of x_j values
    tried (up to the first hit with first_only)."""
    bs = [frac(b) for b in bounds]
    n = len(bs)
    unit = [[frac(c[i]) / bs[i] for i in range(n)] for c in basis_cols]
    red, u = lll_reference(unit)
    mu, c = _gram_schmidt(red)
    xs = [0] * n
    hits = []
    nodes = 0

    def walk(j, rem):
        """Walks level j; True once first_only has its hit."""
        nonlocal nodes
        if j < 0:
            if any(xs):
                v = [sum(xs[l] * red[l][i] for l in range(n)) for i in range(n)]
                if _inside(v, [Fraction(1)] * n, closed):
                    coeffs = tuple(sum(u[l][i] * xs[l] for l in range(n)) for i in range(n))
                    point = tuple(x * b for x, b in zip(v, bs))
                    hits.append((point, coeffs))
                    if not first_only:
                        hits.append((tuple(-x for x in point), tuple(-x for x in coeffs)))
            return first_only and bool(hits)
        top = not any(xs[j + 1 :])
        center = sum((mu[l][j] * xs[l] for l in range(j + 1, n)), Fraction(0))
        mid = _floor(Fraction(1, 2) - center)
        d = 0
        while True:
            live = False
            for x in (mid,) if d == 0 else (mid - d, mid + d):
                if top and x > 0:
                    continue
                step = c[j] * (x + center) ** 2
                if step <= rem:
                    live = True
                    nodes += 1
                    xs[j] = x
                    if walk(j - 1, rem - step):
                        return True
            if not live:  # the admissible x_j form an interval around mid
                break
            d += 1
        xs[j] = 0
        return False

    walk(n - 1, Fraction(n))
    return hits, nodes


def shortest_sup(basis_cols):
    """Minimum sup-norm over nonzero lattice points (exact input).  The scan
    box is the shortest basis column's, capped at the closed unit cube when
    the covolume is 1: by Minkowski's theorem that cube holds a nonzero
    lattice point."""
    bound = min(max(abs(frac(x)) for x in col) for col in basis_cols)
    if abs(det_reference(basis_cols)) == 1:
        bound = min(bound, 1)
    pts = enumerate_box(
        basis_cols, [bound] * len(basis_cols), [True] * len(basis_cols)
    )
    return min(max(abs(x) for x in p) for p in pts)


def tent_sum(basis_cols, center, radius, height):
    """Sum of the sup-norm tent over the nonzero lattice points."""
    center = [frac(c) for c in center]
    radius, height = frac(radius), frac(height)
    bounds = [radius + abs(c) for c in center]
    total = Fraction(0)
    for p in enumerate_box(basis_cols, bounds, [True] * len(basis_cols)):
        dist = max(abs(x - c) for x, c in zip(p, center))
        if dist < radius:
            total += height * (1 - dist / radius)
    return total


def pull_back_and_mirror(found, u_cols, first_only=False):
    """The pull-back and mirror of `lattice.enumerate_basis_in_box` as one
    loop over any n: found holds the walk's (point, xs) pairs in walk
    order and u_cols the columns of its U.  Each coefficient is
    sum(map(mul, row, xs)) over a row of U, each mirror 0 - t per
    coordinate with -coeffs, and the list is sorted stably by point."""
    u_rows = list(zip(*u_cols))
    results = []
    for v, x_red in found:
        coeffs = tuple(sum(map(mul, row, x_red)) for row in u_rows)
        results.append((v, coeffs))
        if not first_only:
            results.append((tuple(0 - t for t in v), tuple(-c for c in coeffs)))
    results.sort(key=itemgetter(0))
    return results


def tent_value(v, center, radius, height):
    """The float sup-norm tent at v: |x - c| per coordinate, their max in
    coordinate order (the first of equal ones kept), t = 1 - max / radius,
    and height * t, or 0.0 when t <= 0."""
    dist = None
    for x, cx in zip(v, center):
        d = x - cx
        if d < 0:
            d = -d
        dist = d if dist is None else (d if d > dist else dist)
    t = 1 - dist / radius
    return height * t if t > 0 else 0.0


def shear_at(job, s):
    """(base, sheared values) of the twist scan at the sample s, or None
    when no aligning element exists, for the job (curve, deriv, rates,
    tent, t_list, block, budget): the Siegel sum of z a u(phi(s)) Z^n and
    of u(t e_1) z a u(phi(s)) Z^n for each t, with a and each u(t e_1)
    built here."""
    curve, deriv, rates, tent, t_list, block, budget = job
    n = curve.k + 1
    z = experiments._aligning_element(deriv.eval_float(s)[:block], n)
    if z is None:
        return None
    unit = (1.0,) * (n - 1)
    m = linalg.mat_mul(
        linalg.mat_mul(z, expanding_diagonal(rates)),
        diagonal_shear(unit, curve.eval_float(s)),
    )
    base_val = siegel_transform(experiments._checked_columns(m), tent, budget)
    sheared = []
    for t in t_list:
        if t == 0:
            sheared.append(base_val)
            continue
        shift = (t,) + (0.0,) * (n - 2)
        g = linalg.mat_mul(diagonal_shear(unit, shift), m)
        sheared.append(siegel_transform(experiments._checked_columns(g), tent, budget))
    return base_val, tuple(sheared)


def primal_soluble(xi, weights, mu):
    """Nonzero (p, q) with |q.xi - p| <= mu / prod(N) and |q_j| < mu N_j."""
    xi = [frac(x) for x in xi]
    weights = [frac(w) for w in weights]
    mu = frac(mu)
    total = Fraction(1)
    for w in weights:
        total *= w
    beta = mu / total
    tops = [_strict_top(mu * w) for w in weights]
    for q in product(*[range(-t, t + 1) for t in tops]):
        target = sum(qj * xj for qj, xj in zip(q, xi))
        for p in range(_ceil(target - beta), _floor(target + beta) + 1):
            if p == 0 and not any(q):
                continue
            return True
    return False


def dual_soluble(xi, weights, mu):
    """Nonzero (q, p) with |q| < mu prod(N), |q xi_j + p_j| < mu / N_j for
    j < k and <= mu / N_k on the last form."""
    xi = [frac(x) for x in xi]
    weights = [frac(w) for w in weights]
    mu = frac(mu)
    total = Fraction(1)
    for w in weights:
        total *= w
    k = len(weights)
    for q in range(-_strict_top(mu * total), _strict_top(mu * total) + 1):
        ranges = []
        feasible = True
        for j in range(k):
            center = -q * xi[j]
            beta = mu / weights[j]
            if j == k - 1:
                lo, hi = _ceil(center - beta), _floor(center + beta)
            else:
                lo, hi = _floor(center - beta) + 1, _ceil(center + beta) - 1
            if lo > hi:
                feasible = False
                break
            ranges.append(range(lo, hi + 1))
        if not feasible:
            continue
        for ps in product(*ranges):
            if q == 0 and not any(ps):
                continue
            return True
    return False


def primal_direct_reference(xi, weights, mu):
    """(soluble, witness) of the primal system by the direct loop over
    Fractions: q in itertools.product order over |q_j| < mu N_j, then p
    upward over the closed range around q . xi; the first hit is the
    witness (p, q)."""
    xi = [frac(x) for x in xi]
    weights = [frac(w) for w in weights]
    mu = frac(mu)
    total = Fraction(1)
    for w in weights:
        total *= w
    beta = mu / total
    tops = [_strict_top(mu * w) for w in weights]
    for q in product(*[range(-t, t + 1) for t in tops]):
        target = sum((qj * xj for qj, xj in zip(q, xi)), Fraction(0))
        for p in range(_ceil(target - beta), _floor(target + beta) + 1):
            if p == 0 and not any(q):
                continue
            return True, (p, tuple(q))
    return False, None


def dual_direct_reference(xi, weights, mu):
    """(soluble, witness) of the dual system by the direct loop over
    Fractions: q upward over |q| < mu prod(N), then (p_1..p_k) in
    itertools.product order over each form's range, open for j < k and
    closed for the last form; the first hit is the witness (q, p)."""
    xi = [frac(x) for x in xi]
    weights = [frac(w) for w in weights]
    mu = frac(mu)
    total = Fraction(1)
    for w in weights:
        total *= w
    k = len(weights)
    for q in range(-_strict_top(mu * total), _strict_top(mu * total) + 1):
        ranges = []
        for j in range(k):
            center = -q * xi[j]
            beta = mu / weights[j]
            if j == k - 1:
                lo, hi = _ceil(center - beta), _floor(center + beta)
            else:
                lo, hi = _floor(center - beta) + 1, _ceil(center + beta) - 1
            if lo > hi:
                break
            ranges.append(range(lo, hi + 1))
        else:
            for ps in product(*ranges):
                if q == 0 and not any(ps):
                    continue
                return True, (q, tuple(ps))
    return False, None


def improvability_flags(points, weight_rows, mu):
    """Per point: both systems are soluble at every weight row."""
    return [
        all(primal_soluble(xi, w, mu) and dual_soluble(xi, w, mu) for w in weight_rows)
        for xi in points
    ]


def improvability_fraction(points, weight_rows, mu):
    """Share of the points where both systems are soluble at every row."""
    flags = improvability_flags(points, weight_rows, mu)
    return Fraction(sum(flags), len(flags))


def threshold_by_full_scans(scan, fixed_tail, first_weights, lo, hi, step):
    """The all-soluble radius threshold on [lo, hi] with one full
    scan(fixed_tail, first_weights, radius) per radius: hi first (a
    ValueError unless it is all-soluble), then lo, which is the threshold
    when it is all-soluble, then bisection down to step.  Returns
    (threshold, the scan at it).  The scan is passed in, so this module
    stays independent of the package."""
    best = scan(fixed_tail, first_weights, hi)
    if not best.all_soluble:
        raise ValueError("scan not soluble even at radius %s" % hi)
    bottom = scan(fixed_tail, first_weights, lo)
    if bottom.all_soluble:
        return lo, bottom
    while hi - lo > step:
        mid = (lo + hi) / 2
        rep = scan(fixed_tail, first_weights, mid)
        if rep.all_soluble:
            hi, best = mid, rep
        else:
            lo = mid
    return hi, best


def threshold_by_two_scans(scan, fixed_tail, first_weights, mu, lo, hi, step):
    """`constructions --threshold` by two full scans: the scan at mu, which
    the command prints, and threshold_by_full_scans on [lo, hi].  Returns
    (threshold, the scan at it, the scan at mu), in the order of
    `scan_radius_threshold`."""
    printed = scan(fixed_tail, first_weights, mu)
    return threshold_by_full_scans(scan, fixed_tail, first_weights, lo, hi, step) + (printed,)


def random_unimodular(rng, n, ops=6, max_mult=2):
    """Integer matrix of determinant +-1 built from elementary row ops;
    small multipliers keep the inverse (hence brute scans) small."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        m = rng.randint(-max_mult, max_mult)
        rows[i] = [a + m * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i], rows[j] = rows[j], rows[i]
    return rows


def _gram_schmidt(cols):
    bstar, mu, norms2 = [], [], []
    for i, b in enumerate(cols):
        v = list(b)
        row = []
        for j in range(i):
            m = sum(x * y for x, y in zip(b, bstar[j])) / norms2[j]
            row.append(m)
            v = [x - m * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        mu.append(row)
        norms2.append(sum(x * x for x in v))
    return mu, norms2


def lll_reference(cols):
    """Textbook LLL (delta = 3/4) over Fractions, recomputing Gram-Schmidt
    from scratch after every change.  Column k is size-reduced against
    j = k-1, ..., 0 by q = floor(mu_kj + 1/2) before the Lovasz test.
    Returns (reduced_cols, u_cols) with reduced = cols @ U."""
    b = [[frac(x) for x in col] for col in cols]
    n = len(b)
    u = [[int(i == j) for i in range(n)] for j in range(n)]
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            mu, _ = _gram_schmidt(b)
            q = _floor(mu[k][j] + Fraction(1, 2))
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
        mu, c = _gram_schmidt(b)
        if c[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * c[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            k = max(k - 1, 1)
    return b, u


def lll_integral_reference(b, max_iters=100_000):
    """The integral LLL of integer columns written with a fresh list per
    size-reduced column and a dot product per Gram entry; returns
    (reduced, u, lam, d) as `linalg.lll_integral` does, with the same
    RuntimeError after max_iters passes and ValueError on dependent
    columns."""
    n = len(b)
    b = [list(col) for col in b]
    u = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = b[i][0] * b[j][0]
            for x, y in zip(b[i][1:], b[j][1:]):
                s = s + x * y
            for m in range(j):
                s = (d[m + 1] * s - lam[i][m] * lam[j][m]) // d[m]
            if j < i:
                lam[i][j] = s
            elif s == 0:
                raise ValueError("linearly dependent columns")
            else:
                d[i + 1] = s
    k = 1
    iters = 0
    while k < n:
        iters += 1
        if iters > max_iters:
            raise RuntimeError("LLL failed to terminate")
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            q = (2 * lk[j] + dj) // (2 * dj)  # floor(mu_kj + 1/2)
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                lk[j] -= q * dj
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        l = lk[k - 1]
        # c_k >= (3/4 - mu^2) c_{k-1}, times 4 d[k] d[k-1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * l * l:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            lk1 = lam[k - 1]
            for j in range(k - 1):
                lk[j], lk1[j] = lk1[j], lk[j]
            dk = (d[k - 1] * d[k + 1] + l * l) // d[k]
            for i in range(k + 1, n):
                li = lam[i]
                t = li[k]
                li[k] = (d[k + 1] * li[k - 1] - l * t) // d[k]
                li[k - 1] = (dk * t + l * li[k]) // d[k + 1]
            d[k] = dk
            k = max(k - 1, 1)
    return b, u, lam, d


def _float_dot(u, v):
    """The dot product summed from its first product, not from the int 0:
    products that are all -0.0 sum to -0.0."""
    s = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        s = s + x * y
    return s


def _float_gram_schmidt(cols):
    n = len(cols)
    bstar, norms2 = [], []
    mu = [[0] * n for _ in range(n)]
    for i, b in enumerate(cols):
        v = list(b)
        for j in range(i):
            m = _float_dot(b, bstar[j]) / norms2[j]
            mu[i][j] = m
            if m != 0:
                v = [x - m * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        c = _float_dot(v, v)
        if c == 0:
            raise ValueError("linearly dependent columns")
        norms2.append(c)
    return mu, norms2


def lll_float_reference(cols, max_iters=100_000):
    """Float LLL (delta = 3/4) recomputing Gram-Schmidt in full after every
    size reduction and swap.  q is the integer nearest mu_kj, halves away
    from 0.  Returns (reduced_cols, u_cols, mu, c) of the reduced basis."""
    n = len(cols)
    b = [list(c) for c in cols]
    u = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    mu, c = _float_gram_schmidt(b)
    k = 1
    iters = 0
    while k < n:
        iters += 1
        if iters > max_iters:
            break
        for j in range(k - 1, -1, -1):
            m = mu[k][j]
            q = int(m + 0.5) if m >= 0 else -int(-m + 0.5)
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                mu, c = _float_gram_schmidt(b)
        if c[k] >= (0.75 - mu[k][k - 1] * mu[k][k - 1]) * c[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            mu, c = _float_gram_schmidt(b)
            k = max(k - 1, 1)
    return b, u, mu, c


def float_walk_reference(basis_cols, bounds, closed, shrink=False, first_only=False):
    """The recursive float walk, for any n: the box-normalised columns are
    reduced by lll_float_reference, and a depth-first Fincke-Pohst walk
    visits the half tree (one point of each +-v pair, the one whose last
    nonzero coefficient is negative), each level from the integer nearest
    its center outward.  shrink lowers the sphere to n (m^2 (1 +
    FLOAT_SLACK) + 1e-13) at each point found, m its sup-norm in the unit
    box, and narrows the levels on the stack; first_only stops at the
    first point.  Returns (leaves, nodes, warns): the points in walk order
    as (repr(point), tuple(xs)), xs their coefficients w.r.t. the reduced
    basis; the nodes visited; and the face warnings as (category, message)."""
    n = len(basis_cols)
    bounds = [float(b) for b in bounds]
    cols = [[c[i] / bounds[i] for i in range(n)] for c in basis_cols]
    reduced, _, mu, c = lll_float_reference(cols)
    xs = [0] * n
    leaves = []
    nodes = 0
    r2 = n * (1.0 + FLOAT_SLACK)

    def level(j, rem):
        center = 0.0
        for l in range(j + 1, n):
            if xs[l]:
                center = center + mu[l][j] * xs[l]
        q = rem / c[j]
        if q < 0.0:
            return 1, 0, 0, center
        r = math.sqrt(q) * (1.0 + 1e-12) + 1e-12
        mid = math.floor(-center + 0.5)
        return math.ceil(-center - r), math.floor(-center + r), mid, center

    def inside(v):
        for x, cl in zip(v, closed):
            a = -x if x < 0 else x
            if abs(1.0 - a) <= FLOAT_SLACK:
                warn_if_near_face(1.0 - a)
            if not (a <= 1.0 if cl else a < 1.0):
                return False
        return True

    def rec(j, rem, top):
        nonlocal nodes, r2
        if j < 0:
            if not any(xs):
                return False
            v = [0.0] * n
            for l in range(n):
                if xs[l]:
                    for i in range(n):
                        v[i] = v[i] + xs[l] * reduced[l][i]
            if not inside(v):
                return False
            if shrink:
                m = max(map(abs, v))
                r2 = min(r2, n * (m * m * (1.0 + FLOAT_SLACK) + 1e-13))
            leaves.append((repr(tuple(x * b for x, b in zip(v, bounds))), tuple(xs)))
            return first_only
        lo, hi, mid, center = level(j, rem)
        if top:
            hi = min(hi, 0)
        if lo > hi:
            return False
        x = mid = min(max(mid, lo), hi)
        seen = r2
        while True:
            nodes += 1
            xs[j] = x
            y = 1 * x + center
            if rec(j - 1, rem - c[j] * y * y, top and not x):
                return True
            if r2 != seen:
                rem -= seen - r2
                seen = r2
                if rem < 0.0:
                    break
                lo, hi = level(j, rem)[:2]
                if top:
                    hi = min(hi, 0)
            x = 2 * mid - x - (x >= mid)
            if not lo <= x <= hi:
                x = 2 * mid - x - (x >= mid)
                if not lo <= x <= hi:
                    break
        xs[j] = 0
        return False

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec(n - 1, r2, True)
    return leaves, nodes, [(w.category, str(w.message)) for w in caught]


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def det_reference(rows):
    """Determinant by Gaussian elimination with row swaps."""
    a = [[frac(x) for x in row] for row in rows]
    n = len(a)
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            d = -d
        d *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return d


def random_rational_invertible(rng, n, den=6, mag=9, zero_share=0.4):
    """Invertible n x n Fraction matrix, about zero_share of it zeros."""
    while True:
        rows = [
            [
                Fraction(0) if rng.random() < zero_share
                else Fraction(rng.randint(-mag, mag), rng.randint(1, den))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        if det_reference(rows) != 0:
            return rows


def rep_labels(n, kind, degree):
    """Basis labels of a wedge power (sorted index tuples) or of sl(n)
    (E_pq for p != q in row-major order, then H_1 .. H_{n-1})."""
    if kind == "wedge":
        return list(combinations(range(1, n + 1), degree))
    labs = [("E", p, q) for p in range(1, n + 1) for q in range(1, n + 1) if p != q]
    return labs + [("H", i) for i in range(1, n)]


def weight_reference(n, kind, lab, sizes):
    """Per-block eigenvalue tuple of a basis label, one diagonal
    diag(m, -1 x m, 0, ...) written out per block size m."""
    out = []
    for m in sizes:
        diag = [Fraction(m)] + [Fraction(-1)] * m + [Fraction(0)] * (n - m - 1)
        if kind == "wedge":
            out.append(sum(diag[i - 1] for i in lab))
        elif lab[0] == "E":
            out.append(diag[lab[1] - 1] - diag[lab[2] - 1])
        else:
            out.append(Fraction(0))
    return tuple(out)


def classify_reference(layer_terms, weight):
    """Sign of the leading term of sum_l weight[l] t_l(i), each t_l given by
    its (c, p) terms: the coefficients of each exponent p > 0 summed in a
    dict and scanned from the largest p down to the first nonzero sum."""
    agg = {}
    for mu, terms in zip(weight, layer_terms):
        mu = Fraction(mu)
        if mu == 0:
            continue
        for c, p in terms:
            if p > 0:
                agg[p] = agg.get(p, Fraction(0)) + mu * c
    for p in sorted(agg, reverse=True):
        if agg[p] > 0:
            return "+"
        if agg[p] < 0:
            return "-"
    return "0"


def _sl_basis(n, lab):
    m = [[Fraction(0)] * n for _ in range(n)]
    if lab[0] == "E":
        m[lab[1] - 1][lab[2] - 1] = Fraction(1)
    else:
        m[lab[1] - 1][lab[1] - 1] = Fraction(1)
        m[lab[1]][lab[1]] = Fraction(-1)
    return m


def _sl_coords(n, y):
    """Coordinates of a traceless matrix: entry (p, q) on E_pq, and on H_i
    the sum of the first i diagonal entries."""
    coords = [y[p][q] for p in range(n) for q in range(n) if p != q]
    return coords + [sum((y[j][j] for j in range(i)), Fraction(0)) for i in range(1, n)]


def group_matrix_reference(n, kind, degree, g):
    """Rows of the representation matrix of g: every wedge entry is a minor
    of g by elimination; every adjoint column is g X g^-1 by two dense
    products, written in the E/H basis."""
    g = [[frac(x) for x in row] for row in g]
    labs = rep_labels(n, kind, degree)
    if kind == "wedge":
        return [
            [det_reference([[g[i - 1][j - 1] for j in J] for i in I]) for J in labs]
            for I in labs
        ]
    ginv = inverse_reference(g)
    cols = [_sl_coords(n, _mat_mul(_mat_mul(g, _sl_basis(n, lab)), ginv)) for lab in labs]
    return [list(r) for r in zip(*cols)]


def _parity(seq):
    return sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]) % 2


def algebra_matrix_reference(n, kind, degree, x):
    """Rows of the derived action of x.  Wedge: x acts on e_J as a
    derivation, sum over slots t and rows p of x[p][j_t] times the wedge
    with e_p in slot t, re-sorted with the sign of its permutation.
    Adjoint: the commutator xX - Xx by dense products."""
    x = [[frac(v) for v in row] for row in x]
    labs = rep_labels(n, kind, degree)
    if kind == "wedge":
        index = {J: t for t, J in enumerate(labs)}
        cols = []
        for J in labs:
            col = [Fraction(0)] * len(labs)
            for t, j in enumerate(J):
                for p in range(1, n + 1):
                    seq = J[:t] + (p,) + J[t + 1 :]
                    if len(set(seq)) < len(seq):
                        continue
                    c = x[p - 1][j - 1]
                    col[index[tuple(sorted(seq))]] += -c if _parity(seq) else c
            cols.append(col)
    else:
        cols = []
        for lab in labs:
            b = _sl_basis(n, lab)
            xb, bx = _mat_mul(x, b), _mat_mul(b, x)
            cols.append(_sl_coords(n, [[u - v for u, v in zip(r, s)] for r, s in zip(xb, bx)]))
    return [list(r) for r in zip(*cols)]


def rref_reference(rows):
    """Textbook Gauss-Jordan on whole rows; (rref rows, pivot columns)."""
    a = [[frac(x) for x in row] for row in rows]
    if not a:
        return [], []
    pivots = []
    r = 0
    for col in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][col] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == len(a):
            break
    return a, pivots


def dual_block_stabilizer_reference(rows, m):
    """Membership of the square rows in the mirror subgroup [[I, *], [0, A]]
    with det A = 1 (A the lower-right m x m block), tested directly."""
    n = len(rows)
    if not 1 <= m <= n:
        raise ValueError("block size out of range")
    for j in range(n - m):
        for i in range(n):
            if rows[i][j] != (1 if i == j else 0):
                return False
    return det_reference([list(rows[i][n - m :]) for i in range(n - m, n)]) == 1


def unit_triangular_reference(rows, lower):
    """Whether the square rows are unit lower (or, lower=False, unit upper)
    triangular, tested directly."""
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 1:
            return False
        for j in range(n):
            if lower and j > i and rows[i][j] != 0:
                return False
            if not lower and j < i and rows[i][j] != 0:
                return False
    return True


def hypothesis_space_reference(split, actions):
    """The hypothesis space with no early stop: the expanding rows of every
    action stacked, and one kernel_basis of all of them.  It checks only
    the early stop, so the split, the actions and the kernel come from the
    package."""
    dim = split.rep.dim
    rows = [list(act.rows[i]) for act in actions for i in split.indices("+")]
    if not rows:
        return weights.Subspace(dim, tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))
    return weights.Subspace.from_generators(linalg.kernel_basis(rows), dim)


def fixed_check_reference(space, target):
    """(ok, hypothesis_dim, violations) of the containment check of the
    hypothesis space in the target block_invariant_space, for every space,
    {0} included."""
    ok = space.is_contained_in(target)
    return ok, space.dim, () if ok else space.basis


def wedge_minors_reference(rows, d):
    """Every d x d minor of the square integer matrix rows, keyed by (row
    indices, column indices), 0-based sorted tuples, by Laplace expansion
    along the first column into minors one size smaller, each computed
    once and shared."""
    n = len(rows)
    # a size-s minor is needed only on the last s columns of a degree-d set,
    # which start at column d - s or later
    minors = {((i,), (j,)): rows[i][j] for i in range(n) for j in range(d - 1, n)}
    for s in range(2, d + 1):
        bigger = {}
        for J in combinations(range(d - s, n), s):
            j, rest = J[0], J[1:]
            for I in combinations(range(n), s):
                total = 0
                for t, i in enumerate(I):
                    x = rows[i][j]
                    if x != 0:
                        m = minors[I[:t] + I[t + 1 :], rest]
                        if m != 0:
                            total = total - x * m if t % 2 else total + x * m
                bigger[I, J] = total
        minors = bigger
    return minors


def alignment_reference(rep, sizes):
    """weights.AlignmentReport of the weight alignment check with every
    comparison on Fractions: the affine relation against the factor
    (m_l + 1) / (m_k + 1), the grid {1/2, 1, 2}^k as it is.  It checks the
    integer scaling alone, so the table (looked up on the module when
    called), the generators and the components come from the package."""
    sizes = weights.validate_block_sizes(rep.n, sizes)
    k = len(sizes)
    mk = sizes[-1]
    factors = [Fraction(m + 1, mk + 1) for m in sizes]
    violations = []
    for m, f in zip(sizes[:-1], factors[:-1]):
        gl = weights.block_generator(rep.n, m)
        gk = weights.block_generator(rep.n, mk)
        scalar_expect = Fraction(m - mk, mk + 1)
        for i in range(mk + 1):
            got = gl.rows[i][i] - f * gk.rows[i][i]
            if got != scalar_expect:
                violations.append(("scalar-identity", m, i, got))
    table = weights.weight_table(rep, sizes)
    labs = rep.labels()
    comps = weights._support_components(rep, mk + 1)
    grid = list(product((Fraction(1, 2), Fraction(1), Fraction(2)), repeat=k))
    for comp in comps:
        ws = [table[labs[i]] for i in comp]
        for a in range(len(ws)):
            for b in range(a + 1, len(ws)):
                mu, nu = ws[a], ws[b]
                dk = mu[-1] - nu[-1]
                for l in range(k - 1):
                    if mu[l] - nu[l] != factors[l] * dk:
                        violations.append(("affine-relation", labs[comp[a]], labs[comp[b]]))
                        break
                for t in grid:
                    lhs = sum((mu[l] - nu[l]) * t[l] for l in range(k))
                    if (lhs >= 0) != (dk >= 0):
                        violations.append(("grid-sign", labs[comp[a]], labs[comp[b]], t))
                    if k >= 2:
                        head = sum((mu[l] - nu[l]) * t[l] for l in range(k - 1))
                        if (head >= 0) != (dk >= 0):
                            violations.append(
                                ("grid-sign-truncated", labs[comp[a]], labs[comp[b]], t)
                            )
    return weights.AlignmentReport(not violations, len(comps), tuple(violations))


def _kernel_on_selected_rows(cols, row_indices, dim_h):
    """Coefficient kernel of the map v -> (u(e) v restricted to rows).

    An empty row selection means the projection is identically zero, so its
    kernel is everything — NOT nothing; that case matters when a
    representation has no fully-invariant weight direction at all.
    """
    if not row_indices:
        return [
            [Fraction(1) if i == j else Fraction(0) for i in range(dim_h)] for j in range(dim_h)
        ]
    mat = [[col[i] for col in cols] for i in row_indices]
    return linalg.kernel_basis(mat)


def _lemma_images(rep, block_sizes, growth, points, require_spanning):
    """The common core of the lemma checks: (split, points, space, images,
    shadow_kernels), with the images u(e_t) b as Fractions, each basis
    vector b cleared and divided on its own."""
    split = weights.split_spaces(rep, block_sizes, growth)
    m1 = split.block_sizes[0]
    pts = [tuple(rat(x) for x in p) for p in points]
    if require_spanning and not weights._points_ok(pts, rep.n, m1):
        raise ValueError("points must affinely span the embedded R^%d" % m1)
    space, actions = weights._hypothesis(rep, split.indices("+"), pts)
    if not space.dim:
        return split, pts, space, [], []
    images = []
    for act in actions:
        cols = linalg.clear_denominators(act.columns())
        images.append([weights._combine(b, cols) for b in space.basis])
    zero_full = split.zero_weight_indices()
    kernels = [_kernel_on_selected_rows(cols, zero_full, space.dim) for cols in images]
    return split, pts, space, images, kernels


def _layered_violations(split, pts, space, images, kernels):
    """Clauses (i) and (ii) of the projection report, point by point."""
    rep, growth = split.rep, split.growth
    plus_trunc = weights.split_spaces(rep, split.block_sizes[:-1], growth.truncate(growth.k - 1)).indices("+")
    zero_head = split.zero_weight_indices(first=growth.k - 1)
    basis = linalg.clear_denominators(space.basis)
    violations = []
    for e, cols, kernel in zip(pts, images, kernels):
        for i in plus_trunc:
            if any(col[i] != 0 for col in cols):
                violations.append(("expanding-after-truncation", e, i))
        hmat = [[col[i] for col in cols] for i in zero_head]
        for y in kernel:
            if any(linalg.dot(row, y) != 0 for row in hmat):
                vec = weights._combine(y, basis)
                violations.append(("invariant-shadow-lost", e, tuple(vec)))
    return violations


def _spanning_violations(pts, space, kernels):
    """(point, vector) for each hypothesis vector whose translate loses its
    fully invariant component."""
    basis = linalg.clear_denominators(space.basis)
    return [
        (e, tuple(weights._combine(y, basis)))
        for e, kernel in zip(pts, kernels)
        for y in kernel
    ]


def lemma_reports_reference(rep, block_sizes, growth, points, require_spanning=True):
    """(projection report, spanning report) of weights.lemma_reports through
    three helpers: the images of each basis vector as Fractions, then the
    spanning and the layered violations in passes of their own.  It checks
    the one pass alone, so the split, the hypothesis space and its actions,
    the kernels and the vector sums come from the package."""
    split, pts, space, images, kernels = _lemma_images(rep, block_sizes, growth, points, require_spanning)
    spanning = weights._report(space, _spanning_violations(pts, space, kernels))
    if growth.k == 1:
        return spanning, spanning
    return weights._report(space, _layered_violations(split, pts, space, images, kernels)), spanning
