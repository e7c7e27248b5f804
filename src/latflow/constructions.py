"""Integer unimodular normal forms and exact avoidance witnesses.

The staircase matrix attached to integer window weights eliminates, by unit
lower-triangular row operations, to an upper-triangular matrix whose
diagonal realizes the dual expansion profile exactly; the lower-triangular
factor generates a lattice that provably avoids the open unit box, and the
dual involution transports the whole picture to the mirror block subgroup.
All of this is exact integer/rational arithmetic, certified two ways
(structure and enumeration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .backend import Rat, rat
from .algebra import (
    ExactMatrix,
    dual_involution,
    is_block_stabilizer,
    is_dual_block_stabilizer,
)
from .diophantine import WindowSpec, _check_primal_witness, window_primal_soluble
from .lattice import Lattice, avoids_open_unit_box


def staircase_unimodular(weights) -> ExactMatrix:
    """The determinant-one integer matrix with column j < n carrying
    weight w_{k+1-j} on the diagonal and w_{k+1-j} - 1 below it, and a
    final column of ones.

    Row i, column j (1-based), k = len(weights), n = k + 1:
        j <= k:  w_{k+1-j} if i == j,  w_{k+1-j} - 1 if i > j,  0 if i < j
        j == n:  1
    """
    w = [int(x) for x in weights]
    if list(w) != [x for x in weights] or any(x < 1 for x in w):
        raise ValueError("staircase weights must be integers >= 1")
    k = len(w)
    n = k + 1
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, k + 1):
            wj = w[k - j]  # w_{k+1-j}
            if i == j:
                row.append(wj)
            elif i > j:
                row.append(wj - 1)
            else:
                row.append(0)
        row.append(1)
        rows.append(row)
    return ExactMatrix(rows)


def unit_lower_elimination(g: ExactMatrix):
    """Factor g = L U with L unit lower triangular; returns (h, u) where
    h = L^-1 (unit lower triangular) and u = h @ g is upper triangular.

    No pivoting: raises ValueError when a leading principal minor vanishes.
    """
    n = g.nrows
    if g.ncols != n:
        raise ValueError("square matrices only")
    work = [list(row) for row in g.rows]
    h = [[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = work[col][col]
        if pivot == 0:
            raise ValueError("zero pivot at %d; elimination needs full minors" % col)
        for i in range(col + 1, n):
            f = work[i][col] / pivot
            if f != 0:
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
                h[i] = [x - f * y for x, y in zip(h[i], h[col])]
    return ExactMatrix._trusted(h), ExactMatrix._trusted(work)


def _is_unit_lower(rows) -> bool:
    """Whether the square rows have ones on the diagonal and zeros above."""
    return all(
        row[i] == 1 and all(x == 0 for x in row[i + 1 :])
        for i, row in enumerate(rows)
    )


def unit_triangular_avoidance_check(g: ExactMatrix):
    """Certify that the lattice spanned by a unit (lower or upper) triangular
    matrix avoids the open unit box, both structurally and by enumeration.

    Structurally: the triangular shape forces any lattice point with all
    coordinates of absolute value < 1 to vanish coordinate by coordinate;
    an upper triangular g is tested as its unit lower transpose.  Returns
    (structural_ok, enumerated_ok); both must be True.
    """
    structural = _is_unit_lower(g.rows) or _is_unit_lower(g.columns())
    enumerated = avoids_open_unit_box(Lattice(g))
    return structural, enumerated


@dataclass(frozen=True)
class BlockTransportWitness:
    """Exact witness that the residual translate lands in the block subgroup.

    With w' = (1,...,1, w_{m+1}, ..., w_k) (m leading ones) and the
    staircase matrix S of w', elimination gives a unit lower h with
    h S = d' q', where d' is the mirror diagonal of w', q' is unipotent in
    the 1-block mirror subgroup; applying the dual involution,
    d g = sigma(h) sigma(S) with g = sigma(q') in the 1-block (hence any
    m+1-block) subgroup.  Both h Z^n and sigma(h) Z^n avoid the open unit
    box, which is exactly what the inheritance argument consumes.
    """

    weights: tuple
    leading_ones: int
    staircase: ExactMatrix
    h: ExactMatrix
    upper: ExactMatrix
    diag: ExactMatrix
    diag_mirror: ExactMatrix
    q_mirror: ExactMatrix
    g: ExactMatrix
    checks: dict

    @property
    def ok(self):
        return all(self.checks.values())


def block_transport_witness(weights, leading_ones):
    """Build and verify the full witness for integer weights and a given
    number of leading weights replaced by ones."""
    w = [int(x) for x in weights]
    m = int(leading_ones)
    if not 0 <= m <= len(w):
        raise ValueError("leading_ones out of range")
    if any(x < 1 for x in w):
        raise ValueError("weights must be >= 1")
    wprime = [1] * m + w[m:]
    k = len(wprime)
    n = k + 1

    s = staircase_unimodular(wprime)
    h, upper = unit_lower_elimination(s)

    total = math.prod(wprime)
    diag = ExactMatrix.diagonal([total] + [Rat(1) / Rat(x) for x in wprime])
    diag_mirror = ExactMatrix.diagonal(
        [Rat(x) for x in reversed(wprime)] + [Rat(1) / total]
    )

    q_mirror = diag_mirror.inverse() @ upper  # so h S = diag_mirror q_mirror
    g = dual_involution(q_mirror)
    sig_h = dual_involution(h)
    sig_s = dual_involution(s)

    checks = {
        "staircase_det_one": s.det() == 1,
        "upper_diagonal_realized": all(
            upper.rows[i][i] == diag_mirror.rows[i][i] for i in range(n)
        ),
        "elimination_identity": (h @ s) == upper,
        "mirror_factorization": (h @ s) == (diag_mirror @ q_mirror),
        "q_in_mirror_block": is_dual_block_stabilizer(q_mirror, 1),
        "transport_identity": (diag @ g) == (sig_h @ sig_s),
        "g_in_block": is_block_stabilizer(g, 1)
        and is_block_stabilizer(g, min(m + 1, n)),
        "h_lattice_avoids_unit_box": avoids_open_unit_box(Lattice(h)),
        "mirror_h_lattice_avoids_unit_box": avoids_open_unit_box(Lattice(sig_h)),
    }
    return BlockTransportWitness(
        tuple(w), m, s, h, upper, diag, diag_mirror, q_mirror, g, checks
    )


#: the resolution of the bisection in scan_radius_threshold
THRESHOLD_STEP = Rat(1, 128)


def default_scan_grid():
    """100 rational points (odd/20, b/10): chosen so the integer-weight
    control provably contains insoluble points at radius 19/20 while the
    half-integral scan stays soluble (see tests for the frozen instances)."""
    return [
        (Rat(2 * a + 1, 20), Rat(b, 10)) for a in range(10) for b in range(10)
    ]


@dataclass(frozen=True)
class ScanReport:
    radius: object
    fixed_tail: tuple
    first_weights: tuple
    rows: tuple  # (first_weight, point, soluble)
    insoluble: tuple  # (first_weight, point)

    @property
    def all_soluble(self):
        return not self.insoluble


def varying_first_weight_scan(fixed_tail, first_weights, mu, witnesses=None):
    """Primal solubility of every point of default_scan_grid for every
    first weight, with the remaining weights fixed; the heart of the
    half-integral experiment.  A dict passed as witnesses receives the
    witness of every soluble case, keyed by (window weights, point)."""
    tail = tuple(rat(x) for x in fixed_tail)
    grid = default_scan_grid()
    kdim = 1 + len(tail)
    if len(grid[0]) != kdim:
        raise ValueError("grid points must have %d coordinates" % kdim)
    rows = []
    bad = []
    for n1 in first_weights:
        w = WindowSpec((rat(n1),) + tail, mu)
        for xi in grid:
            soluble, witness = window_primal_soluble(xi, w, route="lattice")
            rows.append((n1, xi, soluble))
            if not soluble:
                bad.append((n1, xi))
            elif witnesses is not None:
                witnesses[(w.weights, xi)] = witness
    return ScanReport(rat(mu), tail, tuple(first_weights), tuple(rows), tuple(bad))


def scan_radius_threshold(fixed_tail, first_weights, mu=1):
    """Smallest radius in [1/2, 1], to THRESHOLD_STEP by bisection, at
    which the scan is all-soluble; solubility is monotone in the radius, so
    bisection is sound.  Returns (threshold, report_at_threshold, scan),
    scan the full scan at radius mu; raises if even radius 1 fails.

    Only radius mu runs a full scan, and it keeps the witness of every
    soluble case.  Radius 1 is decided next, then radius 1/2, the bottom of
    the range, which is the threshold when it is all-soluble; then each
    bisection radius.  Each of these is decided case by case, (first
    weight, grid point), and stops at its first insoluble case.  Every case
    keeps its last witness: one that passes the substitution check at the
    new radius makes the case soluble with no walk, so a case is walked
    again only where its witness fails.  The report at the threshold is
    the scan's at the threshold radius, all soluble."""
    lo, hi = Rat(1, 2), Rat(1)
    witnesses = {}
    scan = varying_first_weight_scan(fixed_tail, first_weights, mu, witnesses)
    weights = [(rat(n1),) + scan.fixed_tail for n1 in scan.first_weights]
    grid = default_scan_grid()

    def all_soluble(radius):
        for w in weights:
            window = WindowSpec(w, radius)
            for xi in grid:
                cached = witnesses.get((w, xi))
                if cached is not None and _check_primal_witness(xi, window, cached):
                    continue
                soluble, witness = window_primal_soluble(xi, window, route="lattice")
                if not soluble:
                    return False
                witnesses[(w, xi)] = witness
        return True

    def answer(radius):
        rows = tuple((n1, xi, True) for n1, xi, _ in scan.rows)
        return radius, replace(scan, radius=radius, rows=rows, insoluble=()), scan

    if not all_soluble(hi):
        raise ValueError("scan not soluble even at radius %s" % hi)
    if all_soluble(lo):
        return answer(lo)
    while hi - lo > THRESHOLD_STEP:
        mid = (lo + hi) / 2
        if all_soluble(mid):
            hi = mid
        else:
            lo = mid
    return answer(hi)
