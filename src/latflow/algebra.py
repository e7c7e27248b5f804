"""Core matrix algebra: the expanding diagonal, shear subgroups, and the
outer involution that swaps a system of linear forms with its dual.

`ExactMatrix` is an immutable dense matrix of exact rationals: its
constructor coerces every entry with `rat`, so a float entry is refused
(`BackendMismatch`).  Group elements here are always square and their
determinant-one checks are exact.  A mirror predicate is its plain form
read through an index flip: `is_dual_block_stabilizer(g, m)` is
`is_block_stabilizer` of W g^T W.  The float side of the package, the
Monte-Carlo translates, runs on plain lists of rows: `ExpansionRates`,
`expanding_diagonal` and `diagonal_shear` are float-only.

Conventions (fixed once, used everywhere):

- ``expanding_diagonal``: diag(prod(w), 1/w_1, ..., 1/w_{n-1}) where the
  weights w_j = exp(rate_j) are the per-form expansion factors.
- ``row_unipotent(shift)``: identity plus ``shift`` laid along the first row.
- ``diagonal_shear(weights, shift)``: the product of the two above on
  floats, written in closed form.
- ``dual_involution(g)``: W (g^-1)^T W with W the coordinate reversal.  It is
  an involutive automorphism of SL(n) and exchanges the two shear families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .backend import Rat, rat


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix of exact rationals."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(rat(x) for x in row) for row in self.rows)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    # -- constructors ------------------------------------------------------
    @classmethod
    def _trusted(cls, rows):
        """Internal: the matrix of nonempty rectangular rows whose entries
        are already exact (a matrix's own entries, or the results of
        arithmetic on them), with no per-entry coercion."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        return self

    @classmethod
    def identity(cls, n):
        return cls(linalg.identity(n))

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- access ------------------------------------------------------------
    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def columns(self):
        return tuple(zip(*self.rows))

    # -- arithmetic: linalg reads the row tuples and writes new rows ----------
    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return ExactMatrix._trusted(linalg.mat_mul(self.rows, other.rows))

    def inverse(self):
        return ExactMatrix._trusted(linalg.inverse(self.rows))

    def det(self):
        return linalg.det(self.rows)


@dataclass(frozen=True)
class ExpansionRates:
    """Ordered expansion data for the diagonal flow on SL(n), on floats.

    Stores the multiplicative weights w_j = exp(rate_j), j = 1..n-1, which
    must satisfy w_1 >= w_2 >= ... >= w_{n-1} >= 1 (i.e. the log rates are
    nonincreasing and nonnegative).
    """

    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
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
        """Constructor from additive (log) rates."""
        return cls(tuple(math.exp(float(t)) for t in rates))

    def total_weight(self):
        return math.prod(self.weights)


def expanding_diagonal(rates: ExpansionRates):
    """Float rows of diag(prod w, 1/w_1, ..., 1/w_{n-1}): expands the first
    coordinate, contracts each remaining coordinate by its own weight."""
    entries = [rates.total_weight()] + [1.0 / w for w in rates.weights]
    n = len(entries)
    return [[entries[i] if i == j else 0.0 for j in range(n)] for i in range(n)]


def diagonal_shear(weights, shift):
    """Float rows of diag(prod w, 1/w_1, ..., 1/w_{n-1}) @ u(shift), u the
    identity plus shift along the first row, written entry by entry: first
    row (prod w)(1, 0 + shift_1, ..., 0 + shift_{n-1}), then 1/w_j on the
    diagonal.  The weights need not be ordered.  Every entry equals that
    of the dense product, bit for bit: the `0 +` turns a shift of -0.0
    into +0.0, as the product's sums do."""
    if len(shift) != len(weights):
        raise ValueError("dimension mismatch")
    weights = [float(x) for x in weights]
    shift = [0.0 + float(x) for x in shift]
    total = math.prod(weights)
    n = len(weights) + 1
    rows = [[total] + [total * x for x in shift]]
    for j, x in enumerate(weights):
        row = [0.0] * n
        row[1 + j] = 1.0 / x
        rows.append(row)
    return rows


def row_unipotent(shift) -> ExactMatrix:
    """Identity plus the shift vector along the first row; each entry is
    coerced once."""
    one, zero = Rat(1), Rat(0)
    n = len(shift) + 1
    rows = [[one] + [rat(x) for x in shift]]
    for i in range(1, n):
        row = [zero] * n
        row[i] = one
        rows.append(row)
    return ExactMatrix._trusted(rows)


def dual_involution(g: ExactMatrix) -> ExactMatrix:
    """W (g^-1)^T W: the outer automorphism exchanging primal and dual shears.

    Conjugation by the reversal W is done by index flipping rather than two
    matrix products.
    """
    it = linalg.transpose(linalg.inverse(g.rows))
    n = len(it)
    return ExactMatrix._trusted(
        [[it[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    )


def is_block_stabilizer(g: ExactMatrix, m: int) -> bool:
    """Membership in the subgroup fixing e_{m+1}, ..., e_n and preserving the
    span of e_1..e_m with determinant one on it: shape [[A, *], [0, I]]."""
    n = g.nrows
    if not 1 <= m <= n:
        raise ValueError("block size out of range")
    for i in range(m, n):
        for j in range(n):
            if g.rows[i][j] != (1 if i == j else 0):
                return False
    return linalg.det([list(g.rows[i][:m]) for i in range(m)]) == 1


def is_dual_block_stabilizer(g: ExactMatrix, m: int) -> bool:
    """Membership in the mirror subgroup of shape [[I, *], [0, A]] with the
    lower-right m x m block of determinant one: `is_block_stabilizer` of
    W g^T W, whose entry (i, j) is g's (n-1-j, n-1-i)."""
    n = g.nrows
    return is_block_stabilizer(
        ExactMatrix._trusted(
            [[g.rows[n - 1 - j][n - 1 - i] for j in range(n)] for i in range(n)]
        ),
        m,
    )
