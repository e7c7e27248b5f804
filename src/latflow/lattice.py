"""Unimodular lattices, symmetric boxes, and exact point enumeration.

The enumeration engine LLL-reduces the basis, circumscribes the box with a
sphere, and walks a depth-first Fincke-Pohst tree with per-level integer
intervals.  On the exact backend the box normalisation itself runs on
integers: each entry c/b of the normalised basis is reduced with gcd from
the numerators and denominators of c and of its bound b, and D is the lcm
of the reduced denominators.  Everything from there to the leaf runs on
Python integers: LLL is integral, the walk takes its centers and radii from
the integer Gram determinants and scaled coefficients that LLL returns
(interval ends come from math.isqrt), each leaf is tested against the box
[-D, D]^n, so membership on a box face is decided exactly, and a point in
the box becomes one Rat per coordinate.  The float path inflates radii by
1e-9, tests each leaf against the unit box with no Box built per call, and
warns when a point lands within 1e-9 of a face.  Both leaf tests share
one membership rule (`_inside`), which the planar float loop inlines.

A `Lattice` holds an exact basis given from outside and checks its
determinant on integers: `linalg.det` scales B by its common denominator D
and computes det B = det(D B) / D^n by fraction-free (Bareiss)
elimination.  The float lattices of the Monte-Carlo sweeps are plain lists
of basis columns, checked where they are built: `siegel_transform` sums a
float `Tent`, whose support box is built once with the tent, over the
points of such columns, and `shortest_sup_norm` takes columns on either
backend.

One walk (`_walk`) serves both backends and hands each point in the box to
a leaf callback; it refuses a basis that is not square.  On floats, a
planar basis (n = 2, every walk of the sweeps on the default curve) is
walked after its LLL reduction by `_walk_planar`, two nested loops on
scalars that do the recursive walk's floating-point operations in its
order: the same points in the same order, the same node count, stops and
warnings, bit for bit.  A `Box` carries no backend: it holds its bounds
as given, and the walk's `backend` argument names their scalar kind
once.  One rule holds: an exact walk refuses a float anywhere
(`BackendMismatch`), in a basis entry or a bound; a float walk computes
in floats and refuses a `Fraction` bound.  Ints serve both.  The walk
visits one point of each +-v pair, the one whose last nonzero
coefficient is negative: the node budget counts that half tree, and a
FaceProximity warning fires once per pair it visits.
`enumerate_basis_in_box` collects the points, pulls their coefficients back
to the given basis and adds each point's mirror (for n = 2 on scalars);
`enumerate_in_box` is built on it, and `siegel_transform` sums the tent over
its sorted points with `Tent.total`.  `shortest_sup_norm` walks the closed
unit cube once itself, keeping a running minimum m: each point found
shrinks the search sphere to n m^2 (with the first sphere's slack), and the
intervals of the levels on the stack narrow with it.  The box stays the
unit cube, so every point it visits has the bits of a full walk; it takes
no mirrors, pull-back or sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter, mul

from . import linalg
from .backend import (
    EXACT,
    FLOAT,
    BackendMismatch,
    BudgetExceeded,
    FLOAT_SLACK,
    Rat,
    rat,
    warn_if_near_face,
)
from .algebra import ExactMatrix

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class Box:
    """Origin-symmetric box {v : |v_i| <~ bounds_i} with a per-coordinate
    closed (<=) or open (<) face flag.  The bounds are kept as given; a
    walk takes them as the scalar kind its `backend` argument names."""

    bounds: tuple
    closed: tuple

    def __post_init__(self):
        if len(self.bounds) != len(self.closed):
            raise ValueError("bounds/closed length mismatch")
        if any(not x > 0 for x in self.bounds):  # nan fails too
            raise ValueError("box bounds must be positive")

    @property
    def dim(self):
        return len(self.bounds)


def _inside(v, bounds, closed, backend):
    """Whether |v_i| <= bounds_i on closed faces and < on open ones, for
    every i.  On the float backend, warns for a coordinate within
    FLOAT_SLACK of its face, where the decision is not trustworthy."""
    for x, b, cl in zip(v, bounds, closed):
        a = -x if x < 0 else x
        if backend == FLOAT and abs(b - a) <= FLOAT_SLACK:
            warn_if_near_face(b - a)
        if cl:
            if not a <= b:
                return False
        elif not a < b:
            return False
    return True


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice of covolume 1, generated by the exact basis columns."""

    basis: ExactMatrix

    def __post_init__(self):
        b = self.basis
        if b.nrows != b.ncols:
            raise ValueError("basis must be square")
        d = b.det()
        if abs(d) != 1:
            raise ValueError("basis is not unimodular (det = %r)" % (d,))

    @property
    def n(self):
        return self.basis.nrows


def _integral_box_basis(basis_cols, bounds):
    """(D, columns of D y) for the box-normalised basis y_ji = c_ji / b_i of
    exact columns c and box bounds b.  Each quotient is formed from integer
    numerators and denominators and reduced with gcd, and D is the lcm of
    the reduced denominators: the same D and columns as a Fraction division
    followed by linalg.clear_denominators.  Int entries build no Fraction."""
    n = len(basis_cols)
    b_num = [b.numerator for b in bounds]
    b_den = [b.denominator for b in bounds]
    quotients = []
    for c in basis_cols:
        col = []
        for i in range(n):
            x = c[i] if type(c[i]) is int else rat(c[i])
            num = x.numerator * b_den[i]
            den = x.denominator * b_num[i]
            g = math.gcd(num, den)
            col.append((num // g, den // g))
        quotients.append(col)
    scale = math.lcm(*(den for col in quotients for _, den in col))
    return scale, [[num * (scale // den) for num, den in col] for col in quotients]


def _walk(basis_cols, box: Box, backend, budget, leaf, shrink=False):
    """The depth-first Fincke-Pohst walk over the nonzero integer
    combinations of the basis columns, on either backend.

    Calls leaf(point, xs) on one combination of each +-xs pair inside the
    box, the one whose last nonzero coefficient is negative, in walk
    order: point is its tuple of coordinates, xs the live list of its
    coefficients w.r.t. the LLL-reduced basis (copy it to keep it).  Its
    mirror -point, -xs is in the box too, and the leaf is not called on it.
    A true return from leaf stops the walk.  Returns u_cols, the columns of
    the unimodular U that pulls xs back to coefficients w.r.t. the given
    basis.  Raises BudgetExceeded after budget nodes of this half tree,
    and ValueError, before any reduction, for a basis that is not square
    (n columns of length n).

    The backend names the scalar kind of the box bounds.  The exact walk
    takes each bound through `rat` and each basis entry too, so a float
    anywhere raises BackendMismatch; the float walk divides the columns
    by the bounds in floats and raises BackendMismatch for a Fraction
    bound.  Int bounds serve both.

    shrink=True lowers the search sphere to sphere(m), about n m^2, at each
    point found, m its sup-norm in the normalised box: the walk reaches
    every point no longer than the shortest so far and skips most others.

    On the float backend with n = 2 the walk after the reduction is
    `_walk_planar`, which does this recursion's floating-point operations
    in its order: the leaf sees the same points, xs and order, and the
    budget, the stops and the FaceProximity warnings fall on the same
    nodes.  The exact backend and n >= 3 take the recursion below.
    """
    n = len(basis_cols)
    if any(len(col) != n for col in basis_cols):
        raise ValueError(
            "basis must be square: %d columns of lengths %s"
            % (n, [len(col) for col in basis_cols])
        )
    if box.dim != n:
        raise ValueError("box/basis dimension mismatch")
    closed = box.closed
    xs = [0] * n
    # Normalize each coordinate by its box bound: enumerate diag(bounds)^-1
    # B Z^n in the unit box instead of B Z^n in the original one.  Integer
    # coefficients are unchanged, and the search sphere R^2 = n stays tame
    # even for very anisotropic boxes (bounds spanning many decades would
    # otherwise blow up the Fincke-Pohst tree).

    # Level j of the walk is described by (lo, hi, mid, a, b, cost): x_j
    # runs over [lo, hi] from mid outward, and choosing x_j spends
    # cost * y^2 of the remaining radius, y = a * x_j + b.  hit(v) is the
    # point of the box-normalised combination v, or None outside the box.
    # r2 is the squared radius of the sphere around the unit box, and
    # sphere(m) that of a sphere around the points of sup-norm <= m.
    if backend == EXACT:
        # Scale by the common denominator D: LLL and the walk then run on
        # integers, the unit box becomes [-D, D]^n and the sphere n D^2.
        # With lam, d from the integral LLL, the level-j center is
        # N_j / d_{j+1}, N_j = sum_{l>j} lam_lj x_l, and the step
        # c_j (x_j + center)^2 is y^2 / (d_j d_{j+1}), y = d_{j+1} x_j + N_j.
        # Radii are kept as integers over the one denominator
        # M = lcm_j(d_j d_{j+1}), so the step is w_j y^2 with
        # w_j = M / (d_j d_{j+1}), and |y| <= isqrt(rem // w_j) is exact.
        bounds = [rat(b) for b in box.bounds]
        scale, cols = _integral_box_basis(basis_cols, bounds)
        reduced, u_cols, lam, d = linalg.lll_integral(cols)
        den = math.lcm(*(d[j] * d[j + 1] for j in range(n)))
        w = [den // (d[j] * d[j + 1]) for j in range(n)]

        def sphere(m):  # n m^2 over the denominator M, m in [0, D]
            return n * m * m * den

        r2 = sphere(scale)
        zero = 0

        def level(j, rem):
            dj = d[j + 1]
            s = 0
            for l in range(j + 1, n):
                if xs[l]:
                    s += lam[l][j] * xs[l]
            r = math.isqrt(rem // w[j])
            mid = (dj - 2 * s) // (2 * dj)  # floor(-center + 1/2)
            return -((r + s) // dj), (r - s) // dj, mid, dj, s, w[j]

        unit = (scale,) * n
        # the point's coordinate i is v_i b_i / D, one Rat from integers
        nums = [b.numerator for b in bounds]
        dens = [scale * b.denominator for b in bounds]

        def hit(v):
            if not _inside(v, unit, closed, EXACT):
                return None
            return tuple(Rat(v[i] * nums[i], dens[i]) for i in range(n))
    elif backend == FLOAT:
        if any(isinstance(b, Rat) for b in box.bounds):
            raise BackendMismatch(
                "refusing a Fraction bound on the float backend: %r" % (box.bounds,)
            )
        # dividing by a float bound takes an int or Fraction entry to
        # float(entry) / bound, so the columns are floats on any input
        bounds = [float(b) for b in box.bounds]
        cols = [[c[i] / bounds[i] for i in range(n)] for c in basis_cols]
        reduced, u_cols, mu, c = linalg.lll_reduce(cols)
        if n == 2:
            _walk_planar(reduced, mu[1][0], c, bounds, closed, budget, leaf, shrink)
            return u_cols
        r2 = n * (1.0 + FLOAT_SLACK)

        def sphere(m):
            # the first sphere's slack, plus a margin over the rounding error
            # of the radii left at each level: a few ulps of that first
            # sphere, however far it has shrunk
            return n * (m * m * (1.0 + FLOAT_SLACK) + 1e-13)

        zero = 0.0

        def level(j, rem):
            center = 0.0
            for l in range(j + 1, n):
                if xs[l]:
                    center = center + mu[l][j] * xs[l]
            q = rem / c[j]
            if q < 0.0:
                return 1, 0, 0, 1, center, c[j]
            r = math.sqrt(q) * (1.0 + 1e-12) + 1e-12
            mid = math.floor(-center + 0.5)
            return math.ceil(-center - r), math.floor(-center + r), mid, 1, center, c[j]

        unit = (1.0,) * n

        def hit(v):
            if not _inside(v, unit, closed, FLOAT):
                return None
            return tuple(map(mul, v, bounds))
    else:
        raise ValueError("unknown backend %r" % (backend,))

    nodes = 0

    def rec(j, rem, top):
        nonlocal nodes, r2
        if j < 0:
            if not any(xs):
                return False
            v = [zero] * n
            for l in range(n):
                if xs[l]:
                    col = reduced[l]
                    x = xs[l]
                    for i in range(n):
                        v[i] = v[i] + x * col[i]
            point = hit(v)
            if point is None:
                return False
            if shrink:
                r2 = min(r2, sphere(max(map(abs, v))))
            return leaf(point, xs)
        lo, hi, mid, a, b, cost = level(j, rem)
        if top:  # center 0, symmetric interval: keep x_j <= 0, one of each +-v
            hi = min(hi, 0)
        if lo > hi:
            return False
        # x_j runs over [lo, hi] from mid, an integer nearest the level's
        # center (clamped into [lo, hi]), fanning outward:
        # mid, mid - 1, mid + 1, mid - 2, ...  Center-first order reaches an
        # interior leaf almost at once, which makes first_only decisions
        # cheap even when the box holds millions of points.  At a level whose
        # higher coefficients are all 0, mid = 0 = hi and the order is
        # 0, -1, -2, ...: each +-v pair is reached through its negative member.
        x = mid = min(max(mid, lo), hi)
        seen = r2
        while True:
            nodes += 1
            if nodes > budget:
                raise _budget_exceeded(budget)
            xs[j] = x
            y = a * x + b
            if rec(j - 1, rem - cost * y * y, top and not x):
                return True
            if r2 != seen:  # a point found below shrank the sphere: narrow [lo, hi]
                rem -= seen - r2
                seen = r2
                if rem < zero:
                    break
                lo, hi = level(j, rem)[:2]
                if top:
                    hi = min(hi, 0)
            x = 2 * mid - x - (x >= mid)  # the other side of mid, or one further out
            if not lo <= x <= hi:
                x = 2 * mid - x - (x >= mid)
                if not lo <= x <= hi:  # both sides have left [lo, hi]
                    break
        xs[j] = 0
        return False

    rec(n - 1, r2, True)
    return u_cols


def _budget_exceeded(budget):
    return BudgetExceeded(
        "enumeration exceeded %d nodes; lattice too skew or box too big" % budget
    )


def _walk_planar(reduced, mu10, c, bounds, closed, budget, leaf, shrink):
    """`_walk`'s float branch for n = 2 after the LLL reduction, as two
    nested loops on scalars: x_1 (the top level, center 0.0) outside, x_0
    inside, with no recursion, closure or call per node but the leaf's.

    reduced holds the two reduced box-normalised columns, mu10 and c their
    Gram-Schmidt data, bounds the float bounds and closed the face flags.
    Every floating-point operation is the general walk's for n = 2, in its
    order: the level-0 center 0.0 + mu_10 x_1, y = 1 x + center, rem - c_j
    y y, the radius sqrt(q) (1 + 1e-12) + 1e-12 and its floor/ceil ends,
    the point 0.0 + x_0 b_0 + x_1 b_1 (a zero coefficient skipped), the
    `_inside` rule (coordinate 1 tested only if coordinate 0 passes) and
    the shrunk sphere.  The leaves, the xs handed to them, the node at
    which the budget trips, the stops and the FaceProximity warnings are
    therefore those of the general walk.  The level-0 step rem - c_0 y y
    is left out: a leaf never reads it."""
    (b00, b01), (b10, b11) = reduced
    c0, c1 = c
    bound0, bound1 = bounds
    closed0, closed1 = closed
    slack = 1.0 + FLOAT_SLACK
    xs = [0, 0]
    nodes = 0
    r2 = rem1 = 2 * slack
    # level 1: center 0.0, so mid is floor(0.5) = 0; hi is clamped to 0,
    # keeping x_1 <= 0, one of each +-v pair
    r = math.sqrt(rem1 / c1) * (1.0 + 1e-12) + 1e-12
    lo1, hi1 = math.ceil(-0.0 - r), min(math.floor(-0.0 + r), 0)
    x1 = mid1 = min(max(0, lo1), hi1)
    seen1 = r2
    while True:
        nodes += 1
        if nodes > budget:
            raise _budget_exceeded(budget)
        xs[1] = x1
        y = x1 + 0.0  # 1 x_1 + center, with center 0.0
        rem = rem1 - c1 * y * y
        # level 0
        center = 0.0 + mu10 * x1 if x1 else 0.0
        q = rem / c0
        if q < 0.0:
            lo0, hi0 = 1, 0
        else:
            r = math.sqrt(q) * (1.0 + 1e-12) + 1e-12
            mid0 = math.floor(-center + 0.5)
            lo0, hi0 = math.ceil(-center - r), math.floor(-center + r)
            if not x1:  # the top level still: keep x_0 <= 0
                hi0 = min(hi0, 0)
        if lo0 <= hi0:
            x0 = mid0 = min(max(mid0, lo0), hi0)
            seen0 = r2
            while True:
                nodes += 1
                if nodes > budget:
                    raise _budget_exceeded(budget)
                xs[0] = x0
                if x0 or x1:
                    if x0:
                        v0, v1 = 0.0 + x0 * b00, 0.0 + x0 * b01
                        if x1:
                            v0, v1 = v0 + x1 * b10, v1 + x1 * b11
                    else:
                        v0, v1 = 0.0 + x1 * b10, 0.0 + x1 * b11
                    # _inside on the unit box, coordinate 0 first
                    a = -v0 if v0 < 0 else v0
                    if abs(1.0 - a) <= FLOAT_SLACK:
                        warn_if_near_face(1.0 - a)
                    if (a <= 1.0) if closed0 else (a < 1.0):
                        a = -v1 if v1 < 0 else v1
                        if abs(1.0 - a) <= FLOAT_SLACK:
                            warn_if_near_face(1.0 - a)
                        if (a <= 1.0) if closed1 else (a < 1.0):
                            if shrink:
                                m = max(abs(v0), abs(v1))
                                r2 = min(r2, 2 * (m * m * slack + 1e-13))
                            if leaf((v0 * bound0, v1 * bound1), xs):
                                return
                if r2 != seen0:  # the leaf shrank the sphere: narrow [lo0, hi0]
                    rem -= seen0 - r2
                    seen0 = r2
                    if rem < 0.0:
                        break
                    # rem >= 0 and c0 > 0 here, so q = rem / c0 is not < 0
                    r = math.sqrt(rem / c0) * (1.0 + 1e-12) + 1e-12
                    lo0, hi0 = math.ceil(-center - r), math.floor(-center + r)
                    if not x1:
                        hi0 = min(hi0, 0)
                x0 = 2 * mid0 - x0 - (x0 >= mid0)
                if not lo0 <= x0 <= hi0:
                    x0 = 2 * mid0 - x0 - (x0 >= mid0)
                    if not lo0 <= x0 <= hi0:
                        break
            xs[0] = 0
        if r2 != seen1:  # a leaf shrank the sphere: narrow [lo1, hi1]
            rem1 -= seen1 - r2
            seen1 = r2
            if rem1 < 0.0:
                break
            r = math.sqrt(rem1 / c1) * (1.0 + 1e-12) + 1e-12
            lo1, hi1 = math.ceil(-0.0 - r), min(math.floor(-0.0 + r), 0)
        x1 = 2 * mid1 - x1 - (x1 >= mid1)
        if not lo1 <= x1 <= hi1:
            x1 = 2 * mid1 - x1 - (x1 >= mid1)
            if not lo1 <= x1 <= hi1:
                break


def enumerate_basis_in_box(
    basis_cols, box: Box, backend, budget=DEFAULT_NODE_BUDGET, first_only=False
):
    """Nonzero integer combinations of the basis columns inside the box.

    Works for any nonsingular basis (no unimodularity assumed); this is the
    engine under both lattice enumeration and general linear-forms systems.
    Returns [(point, coeffs)] sorted by point, coeffs w.r.t. the GIVEN basis.

    first_only=True stops at the first point found (DFS order, so which one
    is unspecified but deterministic).  Solubility decisions need this: at
    rational inputs a window can legitimately hold millions of points, and
    emptiness is the only question.  The backend names the scalar kind of
    the box bounds; a float bound on the exact backend, or a Fraction bound
    on the float one, raises BackendMismatch (see `_walk`).

    Two columns pull back and mirror on scalars, with the same ints and
    floats as the loop over n (a mirror is 0 - v: a zero stays +0.0).
    """
    found = []

    def keep(point, xs):
        found.append((point, tuple(xs)))
        return first_only

    u_cols = _walk(basis_cols, box, backend, budget, keep)
    results = []
    if len(u_cols) == 2:  # the loop below on scalars: the same ints and floats
        (u00, u10), (u01, u11) = u_cols
        for v, (x0, x1) in found:
            c0, c1 = 0 + u00 * x0 + u01 * x1, 0 + u10 * x0 + u11 * x1
            results.append((v, (c0, c1)))
            if not first_only:
                results.append(((0 - v[0], 0 - v[1]), (-c0, -c1)))
    else:
        u_rows = list(zip(*u_cols))
        for v, x_red in found:
            coeffs = tuple(sum(map(mul, row, x_red)) for row in u_rows)
            results.append((v, coeffs))
            if not first_only:  # the mirror -v; 0 - t keeps a zero coordinate +0.0
                results.append((tuple(0 - t for t in v), tuple(-c for c in coeffs)))
    results.sort(key=itemgetter(0))
    return results


def enumerate_in_box(lat: Lattice, box: Box, budget=DEFAULT_NODE_BUDGET, first_only=False):
    """All nonzero lattice points inside the box, sorted lexicographically.

    first_only=True returns at most one point (see enumerate_basis_in_box).
    Raises BudgetExceeded when the search tree outgrows the node budget.
    """
    results = enumerate_basis_in_box(
        lat.basis.columns(), box, EXACT, budget=budget, first_only=first_only
    )
    return [v for v, _ in results]


def avoids_open_unit_box(lat: Lattice) -> bool:
    """True iff the open unit box meets the lattice only at 0."""
    box = Box((1,) * lat.n, (False,) * lat.n)
    return not enumerate_in_box(lat, box, first_only=True)


@dataclass(frozen=True)
class Tent:
    """Sup-norm tent bump on floats: height at the center, linear to 0 at
    distance radius.  Its support box is built once, with the tent."""

    center: tuple
    radius: float
    height: float
    support_box: Box = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        center = tuple(float(x) for x in self.center)
        radius, height = float(self.radius), float(self.height)
        if not center:
            raise ValueError("tent center must have at least one coordinate")
        if not all(math.isfinite(x) for x in center):
            raise ValueError("tent center must be finite, got %r" % (center,))
        for name, x in (("radius", radius), ("height", height)):
            if not 0 < x < math.inf:  # nan fails both
                raise ValueError("tent %s must be finite and > 0, got %r" % (name, x))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "height", height)
        bounds = tuple((cx if cx >= 0 else -cx) + radius for cx in center)
        object.__setattr__(self, "support_box", Box(bounds, (True,) * len(center)))

    @property
    def dim(self):
        return len(self.center)

    def value(self, v):
        """The tent at the point v, whose length must be dim."""
        if len(v) != self.dim:
            raise ValueError("point of length %d for a tent of dimension %d" % (len(v), self.dim))
        return self.total((v,))

    def total(self, points):
        """0.0 plus the tent at each point in the order given, the tent read
        once: per point the max of |x - c| in coordinate order, t = 1 - max
        / radius, and height * t when t > 0.  Lengths are not checked."""
        center, radius, height = self.center, self.radius, self.height
        total = 0.0
        for v in points:
            dist = None
            for x, cx in zip(v, center):
                d = x - cx
                if d < 0:
                    d = -d
                dist = d if dist is None else (d if d > dist else dist)
            t = 1 - dist / radius
            if t > 0:  # else the value is 0.0, and total + 0.0 == total
                total = total + height * t
        return total

    def integral(self):
        """Integral over n-space: height * (2 radius)^n / (n + 1)."""
        n = self.dim
        return math.prod([2 * self.radius] * n, start=self.height) / (n + 1)


def siegel_transform(basis_cols, tent: Tent, budget=DEFAULT_NODE_BUDGET):
    """Sum of the tent over the nonzero points of the lattice spanned by the
    float basis columns, in the sorted order of `enumerate_basis_in_box`."""
    if tent.dim != len(basis_cols):
        raise ValueError("dimension mismatch")
    pairs = enumerate_basis_in_box(basis_cols, tent.support_box, FLOAT, budget=budget)
    return tent.total(map(itemgetter(0), pairs))


def shortest_sup_norm(basis_cols, backend, budget=DEFAULT_NODE_BUDGET):
    """Sup-norm of a shortest nonzero vector of the covolume-1 lattice
    spanned by the basis columns, on the given backend.

    By Minkowski's convex body theorem the closed unit cube, of volume 2^n,
    holds a nonzero point of every covolume-1 lattice, so one walk of that
    cube finds a shortest vector.  The walk keeps a running minimum m and
    shrinks its search sphere to n m^2 as it goes, so it skips most points
    longer than m (on a nearly divergent translate, the multiples of one
    tiny vector that fill the cube); it needs no mirrors and no coefficients.
    On floats, FaceProximity warns only for the points the walk visits.
    """
    best = None

    def keep(point, xs):
        nonlocal best
        m = max(map(abs, point))
        if best is None or m < best:
            best = m
        return False

    n = len(basis_cols)
    cube = Box((1,) * n, (True,) * n)
    _walk(basis_cols, cube, backend, budget, keep, shrink=True)
    if best is None:
        raise RuntimeError("no lattice point in the closed unit cube; basis badly scaled")
    return best
