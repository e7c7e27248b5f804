"""Unimodular lattices, symmetric boxes, and exact point enumeration.

The enumeration engine LLL-reduces the basis, circumscribes the box with a
sphere, and walks a depth-first tree with per-level integer intervals.  On
the exact backend the box-normalised basis is first scaled by its common
denominator D, so LLL runs integrally and each leaf is tested against the
box [-D, D]^n with integer arithmetic; interval bounds are rational
comparisons, so membership on a box face is decided exactly.  The float
path inflates radii by 1e-9 and warns when a point lands within 1e-9 of a
face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .backend import (
    EXACT,
    FLOAT,
    BackendMismatch,
    BudgetExceeded,
    FLOAT_SLACK,
    check_same_backend,
    format_scalar,
    parse_scalar,
    rat_floor,
    scalar,
    warn_if_near_face,
)
from .algebra import ExactMatrix, _det_is_one

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class Box:
    """Origin-symmetric box {v : |v_i| <~ bounds_i} with a per-coordinate
    closed (<=) or open (<) face flag."""

    bounds: tuple
    closed: tuple
    backend: str = EXACT

    def __post_init__(self):
        b = tuple(scalar(x, self.backend) for x in self.bounds)
        c = tuple(bool(f) for f in self.closed)
        if len(b) != len(c):
            raise ValueError("bounds/closed length mismatch")
        if any(not x > 0 for x in b):
            raise ValueError("box bounds must be positive")
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "closed", c)

    @property
    def dim(self):
        return len(self.bounds)

    def contains(self, v):
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        for x, b, cl in zip(v, self.bounds, self.closed):
            a = -x if x < 0 else x
            if self.backend == FLOAT:
                warn_if_near_face(float(b) - float(a))
            if cl:
                if not a <= b:
                    return False
            else:
                if not a < b:
                    return False
        return True

    def margin(self, v) -> float:
        """Smallest signed face distance (float view); negative = outside."""
        return min(float(b) - abs(float(x)) for x, b in zip(v, self.bounds))

    def to_json(self):
        return {
            "kind": "box",
            "backend": self.backend,
            "bounds": [format_scalar(b, self.backend) for b in self.bounds],
            "closed": list(self.closed),
        }

    @classmethod
    def from_json(cls, obj):
        if obj.get("kind") != "box":
            raise ValueError("not a serialized box")
        backend = obj["backend"]
        return cls(
            tuple(parse_scalar(b, backend) for b in obj["bounds"]),
            tuple(obj["closed"]),
            backend,
        )


def window_box(n, mu, backend=EXACT) -> Box:
    """The solubility window: radius mu, first coordinate closed, rest open."""
    mu = scalar(mu, backend)
    if not (0 < mu <= 1):
        raise ValueError("window radius must lie in (0, 1]")
    return Box((mu,) * n, (True,) + (False,) * (n - 1), backend)


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice of covolume 1, generated by the basis columns."""

    basis: ExactMatrix

    def __post_init__(self):
        b = self.basis
        if b.nrows != b.ncols:
            raise ValueError("basis must be square")
        d = b.det()
        if not _det_is_one(d, b.backend, up_to_sign=True):
            raise ValueError("basis is not unimodular (det = %r)" % (d,))

    @classmethod
    def standard(cls, n, backend=EXACT):
        return cls(ExactMatrix.identity(n, backend))

    @property
    def n(self):
        return self.basis.nrows

    @property
    def backend(self):
        return self.basis.backend

    def to_float(self) -> "Lattice":
        return Lattice(self.basis.to_float())


def _int_interval_exact(center, q):
    """All integers x with (x + center)^2 <= q, exactly (q, center rational)."""
    if q < 0:
        return 1, 0
    fc = float(center)
    try:
        fs = math.sqrt(max(float(q), 0.0))
    except OverflowError:  # pragma: no cover - gigantic radii don't occur here
        fs = float(math.isqrt(int(q) + 1))
    lo = math.ceil(-fc - fs)
    hi = math.floor(-fc + fs)
    # exact fix-up of the float seed, one step at a time
    while (lo - 1 + center) * (lo - 1 + center) <= q:
        lo -= 1
    while lo <= hi and (lo + center) * (lo + center) > q:
        lo += 1
    while (hi + 1 + center) * (hi + 1 + center) <= q:
        hi += 1
    while hi >= lo and (hi + center) * (hi + center) > q:
        hi -= 1
    if lo > hi:
        return 1, 0
    return lo, hi


def _int_interval_float(center, q):
    if q < 0.0:
        return 1, 0
    s = math.sqrt(q) * (1.0 + 1e-12) + 1e-12
    return math.ceil(-center - s), math.floor(-center + s)


class _FirstHit(Exception):
    """Internal: unwinds the search once a first point is wanted and found."""


def _zigzag(lo, hi, center):
    """Integers of [lo, hi], nearest to -center first, fanning outward.

    Center-first order makes the depth-first search reach an interior leaf
    (one that passes the box test, not just the sphere bound) almost
    immediately, which is what makes first_only decisions cheap even when
    the window holds millions of points.
    """
    if lo > hi:
        return
    mid = rat_floor(-center + scalar(1, EXACT) / 2) if not isinstance(
        center, float
    ) else int(math.floor(-center + 0.5))
    mid = min(max(mid, lo), hi)
    yield mid
    d = 1
    while True:
        a, b = mid - d, mid + d
        live = False
        if a >= lo:
            yield a
            live = True
        if b <= hi:
            yield b
            live = True
        if not live:
            return
        d += 1


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
    emptiness is the only question.
    """
    n = len(basis_cols)
    if box.dim != n:
        raise ValueError("box/basis dimension mismatch")
    # Normalize each coordinate by its box bound: enumerate D^{-1}B Z^n in
    # the unit box instead of B Z^n in the original one.  Integer
    # coefficients are unchanged, and the search sphere R^2 = n stays tame
    # even for very anisotropic boxes (bounds spanning many decades would
    # otherwise blow up the Fincke-Pohst tree).
    cols = [
        [scalar(c[i], backend) / box.bounds[i] for i in range(n)]
        for c in basis_cols
    ]
    scale = 1
    if backend == EXACT:
        # Scale by the common denominator D: LLL and the leaf test then run
        # on integers, the unit box becomes [-D, D]^n and the sphere n D^2.
        # mu and rem / c, hence the tree and its order, do not see D.
        scale, cols = linalg.clear_denominators(cols)
    unit = Box((scalar(scale, backend),) * n, box.closed, backend)
    reduced, u_cols, mu, c = linalg.lll_reduce(cols, backend)

    r2 = scalar(n * scale * scale, backend)
    if backend == FLOAT:
        r2 = r2 * (1.0 + FLOAT_SLACK)
    interval = _int_interval_exact if backend == EXACT else _int_interval_float
    zero = 0.0 if backend == FLOAT else 0

    xs = [0] * n
    found = []
    nodes = 0

    def rec(j, rem):
        nonlocal nodes
        if j < 0:
            if not any(xs):
                return
            v = [zero] * n
            for l in range(n):
                if xs[l]:
                    col = reduced[l]
                    x = xs[l]
                    for i in range(n):
                        v[i] = v[i] + x * col[i]
            if unit.contains(v):
                point = tuple(v[i] * box.bounds[i] / scale for i in range(n))
                found.append((point, tuple(xs)))
                if first_only:
                    raise _FirstHit
            return
        center = scalar(0, backend)
        for l in range(j + 1, n):
            if xs[l]:
                center = center + mu[l][j] * xs[l]
        lo, hi = interval(center, rem / c[j])
        for x in _zigzag(lo, hi, center):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(
                    "enumeration exceeded %d nodes; lattice too skew or box too big"
                    % budget
                )
            xs[j] = x
            step = c[j] * (x + center) * (x + center)
            rec(j - 1, rem - step)
        xs[j] = 0

    try:
        rec(n - 1, r2)
    except _FirstHit:
        pass

    results = []
    for v, x_red in found:
        coeffs = tuple(
            sum(u_cols[k][i] * x_red[k] for k in range(n)) for i in range(n)
        )
        results.append((v, coeffs))
    results.sort(key=lambda pc: tuple(pc[0]))
    return results


def enumerate_in_box(
    lat: Lattice,
    box: Box,
    budget=DEFAULT_NODE_BUDGET,
    return_coeffs=False,
    first_only=False,
):
    """All nonzero lattice points inside the box, sorted lexicographically.

    With return_coeffs=True each element is (point, coeffs) where
    basis @ coeffs == point, coeffs integral w.r.t. the original basis.
    first_only=True returns at most one point (see enumerate_basis_in_box).
    Raises BudgetExceeded when the search tree outgrows the node budget.
    """
    backend = check_same_backend(lat.backend, box.backend)
    results = enumerate_basis_in_box(
        lat.basis.columns(), box, backend, budget=budget, first_only=first_only
    )
    if return_coeffs:
        return results
    return [v for v, _ in results]


def avoids_window(lat: Lattice, mu) -> bool:
    """True iff the only lattice point in the solubility window is 0."""
    return not enumerate_in_box(
        lat, window_box(lat.n, mu, lat.backend), first_only=True
    )


def avoids_open_unit_box(lat: Lattice) -> bool:
    """True iff the open unit box meets the lattice only at 0 (exact only)."""
    if lat.backend != EXACT:
        raise BackendMismatch("open-unit-box membership is an exact-only decision")
    box = Box((1,) * lat.n, (False,) * lat.n, EXACT)
    return not enumerate_in_box(lat, box, first_only=True)


@dataclass(frozen=True)
class Tent:
    """Sup-norm tent bump: height at the center, linear to 0 at distance radius."""

    center: tuple
    radius: object
    height: object
    backend: str = FLOAT

    def __post_init__(self):
        object.__setattr__(
            self, "center", tuple(scalar(x, self.backend) for x in self.center)
        )
        object.__setattr__(self, "radius", scalar(self.radius, self.backend))
        object.__setattr__(self, "height", scalar(self.height, self.backend))
        if not self.radius > 0:
            raise ValueError("tent radius must be positive")

    @property
    def dim(self):
        return len(self.center)

    def value(self, v):
        dist = None
        for x, cx in zip(v, self.center):
            d = x - cx
            if d < 0:
                d = -d
            dist = d if dist is None else (d if d > dist else dist)
        t = 1 - dist / self.radius
        zero = scalar(0, self.backend)
        return self.height * t if t > 0 else zero

    def integral(self):
        """Integral over n-space: height * (2 radius)^n / (n + 1)."""
        n = self.dim
        two_r = 2 * self.radius
        val = self.height
        for _ in range(n):
            val = val * two_r
        return val / scalar(n + 1, self.backend)

    def support_box(self) -> Box:
        bounds = tuple(
            (cx if cx >= 0 else -cx) + self.radius for cx in self.center
        )
        return Box(bounds, (True,) * self.dim, self.backend)


def siegel_transform(lat: Lattice, tent: Tent, budget=DEFAULT_NODE_BUDGET):
    """Sum of the tent over all nonzero lattice points."""
    check_same_backend(lat.backend, tent.backend)
    if tent.dim != lat.n:
        raise ValueError("dimension mismatch")
    total = scalar(0, lat.backend)
    for v in enumerate_in_box(lat, tent.support_box(), budget=budget):
        total = total + tent.value(v)
    return total


def shortest_sup_norm(lat: Lattice, budget=DEFAULT_NODE_BUDGET):
    """Sup-norm of a shortest nonzero lattice vector, by growing boxes."""
    r = scalar(1, lat.backend)
    for _ in range(64):
        pts = enumerate_in_box(lat, Box((r,) * lat.n, (True,) * lat.n, lat.backend), budget=budget)
        if pts:
            best = None
            for v in pts:
                s = max(x if x >= 0 else -x for x in v)
                if best is None or s < best:
                    best = s
            return best
        r = r * 2
    raise RuntimeError("no lattice point found; basis badly scaled")  # pragma: no cover
