"""Core matrix algebra: the expanding diagonal, shear subgroups, and the
outer involution that swaps a system of linear forms with its dual.

Matrices are immutable, dense, and tagged with a scalar backend ("exact"
rationals or "float").  Group elements here are always square; the
determinant-one checks (one predicate, ``_det_is_one``) are exact on the
exact backend and 1e-9-tolerant on the float backend.

Conventions (fixed once, used everywhere):

- ``expanding_diagonal``: diag(prod(w), 1/w_1, ..., 1/w_{n-1}) where the
  weights w_j = exp(rate_j) are the per-form expansion factors.
- ``row_unipotent(shift)``: identity plus ``shift`` laid along the first row.
- ``diagonal_shear(weights, shift)``: the product of the two above, written
  in closed form.
- ``dual_involution(g)``: W (g^-1)^T W with W the coordinate reversal.  It is
  an involutive automorphism of SL(n) and exchanges the two shear families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .backend import EXACT, FLOAT, check_same_backend, scalar

_DET_TOL = 1e-9


def _det_is_one(d, backend, up_to_sign=False):
    """Whether the determinant d is 1 (or -1 too, with up_to_sign): exactly
    on the exact backend, within _DET_TOL on the float backend."""
    if up_to_sign:
        d = abs(d)
    if backend == EXACT:
        return d == 1
    return abs(float(d) - 1.0) <= _DET_TOL


class ExactMatrix:
    """Immutable dense matrix over one scalar backend."""

    __slots__ = ("rows", "nrows", "ncols", "backend")

    def __init__(self, rows, backend=EXACT):
        coerced = tuple(tuple(scalar(x, backend) for x in row) for row in rows)
        if not coerced or not coerced[0]:
            raise ValueError("empty matrix")
        width = len(coerced[0])
        if any(len(r) != width for r in coerced):
            raise ValueError("ragged rows")
        self._set(coerced, backend)

    def _set(self, rows, backend):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]))
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):  # __slots__ + frozen setattr need explicit pickling
        return (ExactMatrix, (self.rows, self.backend))

    # -- constructors ------------------------------------------------------
    @classmethod
    def _trusted(cls, rows, backend=EXACT):
        """Internal: the matrix of nonempty rectangular rows whose entries
        already have the backend's scalar type (a matrix's own entries, or
        the results of arithmetic on them), with no per-entry coercion."""
        self = object.__new__(cls)
        self._set(tuple(map(tuple, rows)), backend)
        return self

    @classmethod
    def identity(cls, n, backend=EXACT):
        return cls(linalg.identity(n), backend)

    @classmethod
    def diagonal(cls, entries, backend=EXACT):
        n = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)],
            backend,
        )

    # -- access ------------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return tuple(self.column(j) for j in range(self.ncols))

    def _lists(self):
        return [list(r) for r in self.rows]

    # -- arithmetic --------------------------------------------------------
    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        check_same_backend(self.backend, other.backend)
        rows = linalg.mat_mul(self._lists(), other._lists())
        return ExactMatrix._trusted(rows, self.backend)

    def apply(self, vec):
        """Matrix-vector product; returns a tuple."""
        v = [scalar(x, self.backend) for x in vec]
        return tuple(linalg.mat_vec(self._lists(), v))

    def inverse(self):
        return ExactMatrix._trusted(
            linalg.inverse(self._lists(), approx=self.backend == FLOAT), self.backend
        )

    def det(self):
        return linalg.det(self._lists(), approx=self.backend == FLOAT)

    # -- comparisons / conversions ------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.backend == other.backend
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.backend, self.rows))

    def to_float(self):
        if self.backend == FLOAT:
            return self
        return ExactMatrix([[float(x) for x in row] for row in self.rows], FLOAT)

    def __repr__(self):
        return "ExactMatrix(%r, backend=%r)" % (
            [list(r) for r in self.rows],
            self.backend,
        )


@dataclass(frozen=True)
class ExpansionRates:
    """Ordered expansion data for the diagonal flow on SL(n).

    Stores the multiplicative weights w_j = exp(rate_j), j = 1..n-1, which
    must satisfy w_1 >= w_2 >= ... >= w_{n-1} >= 1 (i.e. the log rates are
    nonincreasing and nonnegative).  On the exact backend the weights are
    rationals, so the full diagonal matrix stays exact.
    """

    weights: tuple
    backend: str = EXACT

    def __post_init__(self):
        w = tuple(scalar(x, self.backend) for x in self.weights)
        if not w:
            raise ValueError("need at least one weight (n >= 2)")
        for a, b in zip(w, w[1:]):
            if not a >= b:
                raise ValueError("weights must be nonincreasing: %r" % (w,))
        if not w[-1] >= 1:
            raise ValueError("weights must be >= 1: %r" % (w,))
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_rates(cls, rates):
        """Float-backend constructor from additive (log) rates."""
        return cls(tuple(math.exp(float(t)) for t in rates), FLOAT)

    @property
    def n(self):
        return len(self.weights) + 1

    def total_weight(self):
        p = self.weights[0]
        for w in self.weights[1:]:
            p = p * w
        return p


def expanding_diagonal(rates: ExpansionRates) -> ExactMatrix:
    """diag(prod w, 1/w_1, ..., 1/w_{n-1}): expands the first coordinate,
    contracts each remaining coordinate by its own weight."""
    one = scalar(1, rates.backend)
    entries = [rates.total_weight()] + [one / w for w in rates.weights]
    return ExactMatrix.diagonal(entries, rates.backend)


def diagonal_shear(weights, shift, backend=EXACT) -> ExactMatrix:
    """diag(prod w, 1/w_1, ..., 1/w_{n-1}) @ row_unipotent(shift), written
    entry by entry: first row (prod w)(1, 0 + shift_1, ..., 0 + shift_{n-1}),
    then 1/w_j on the diagonal.  The weights are scalars of the backend,
    as ExpansionRates holds them, and need not be ordered.
    Every entry equals that of the dense product, floats bit for bit: on
    floats the `0 +` turns a shift of -0.0 into +0.0, as the product's sums
    do.  The entries are backend scalars by construction and skip the
    per-entry coercion."""
    if len(shift) != len(weights):
        raise ValueError("dimension mismatch")
    one, zero = scalar(1, backend), scalar(0, backend)
    total = scalar(weights[0], backend)
    shift = [scalar(x, backend) for x in shift]
    if backend == FLOAT:
        shift = [zero + x for x in shift]
    for x in weights[1:]:
        total = total * x
    n = len(weights) + 1
    rows = [[total] + [total * x for x in shift]]
    for j, x in enumerate(weights):
        row = [zero] * n
        row[1 + j] = one / x
        rows.append(row)
    return ExactMatrix._trusted(rows, backend)


def row_unipotent(shift, backend=EXACT) -> ExactMatrix:
    """Identity plus the shift vector along the first row.  Each entry is
    coerced once; on floats the `0 +` turns a shift of -0.0 into +0.0, as
    adding the shift to the identity's zero does."""
    one, zero = scalar(1, backend), scalar(0, backend)
    n = len(shift) + 1
    rows = [[one] + [zero + scalar(x, backend) for x in shift]]
    for i in range(1, n):
        row = [zero] * n
        row[i] = one
        rows.append(row)
    return ExactMatrix._trusted(rows, backend)


def dual_involution(g: ExactMatrix) -> ExactMatrix:
    """W (g^-1)^T W: the outer automorphism exchanging primal and dual shears.

    Conjugation by the reversal W is done by index flipping rather than two
    matrix products.
    """
    it = linalg.transpose(linalg.inverse(g._lists(), approx=g.backend == FLOAT))
    n = len(it)
    flipped = [[it[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    return ExactMatrix(flipped, g.backend)


def _entries_equal(x, y, backend):
    if backend == EXACT:
        return x == y
    return abs(float(x) - float(y)) <= _DET_TOL


def is_block_stabilizer(g: ExactMatrix, m: int) -> bool:
    """Membership in the subgroup fixing e_{m+1}, ..., e_n and preserving the
    span of e_1..e_m with determinant one on it: shape [[A, *], [0, I]]."""
    n = g.nrows
    if not 1 <= m <= n:
        raise ValueError("block size out of range")
    for i in range(m, n):
        for j in range(n):
            want = 1 if i == j else 0
            if not _entries_equal(g.rows[i][j], want, g.backend):
                return False
    top = [list(g.rows[i][:m]) for i in range(m)]
    return _det_is_one(linalg.det(top, approx=g.backend == FLOAT), g.backend)


def is_dual_block_stabilizer(g: ExactMatrix, m: int) -> bool:
    """Membership in the mirror subgroup of shape [[I, *], [0, A]] with the
    lower-right m x m block of determinant one."""
    n = g.nrows
    if not 1 <= m <= n:
        raise ValueError("block size out of range")
    for j in range(n - m):
        for i in range(n):
            want = 1 if i == j else 0
            if not _entries_equal(g.rows[i][j], want, g.backend):
                return False
    bot = [list(g.rows[i][n - m :]) for i in range(n - m, n)]
    return _det_is_one(linalg.det(bot, approx=g.backend == FLOAT), g.backend)
