"""Quadrature experiments over expanding translates of polynomial curves.

Each experiment averages an observable over lattices

    z(s) a_i u(phi(s)) g_0 Z^n,     s on a fixed sample grid,

with a_i the expanding diagonal of a rate schedule at index i.  Sampling
is equispaced by default (seeded-random grids are available for variance
estimation), per-sample work is pure, and results are reassembled by
sample index, so outputs are reproducible — bit-identical across thread
counts.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    ExactMatrix,
    ExpansionRates,
    dual_involution,
    expanding_diagonal,
    row_unipotent,
)
from .backend import EXACT, FLOAT, Rat, rat
from .diophantine import (
    Curve,
    WindowSpec,
    window_dual_soluble,
    window_primal_soluble,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    Lattice,
    Tent,
    shortest_sup_norm,
    siegel_transform,
)
from .sequences import RateSchedule, layered_presentation

__all__ = [
    "BasePoint",
    "SiegelRow",
    "NondivergenceRow",
    "ImprovabilityRow",
    "ShearRow",
    "sample_grid",
    "translate_lattice",
    "equidistribution_siegel",
    "nondivergence_scan",
    "improvability_scan",
    "shear_invariance_scan",
]


# ---------------------------------------------------------------------------
# base points and sample grids


@dataclass(frozen=True)
class BasePoint:
    """Base lattice g_0 Z^n, optionally with per-index overrides g_i -> g_0
    (a convergent approach sequence; .at(i) resolves the matrix used at
    experiment index i)."""

    matrix: ExactMatrix
    approach: tuple = ()  # ((index, ExactMatrix), ...)

    def __post_init__(self):
        mats = [self.matrix] + [m for _, m in self.approach]
        for m in mats:
            if m.nrows != m.ncols:
                raise ValueError("base point must be square")
            if m.backend == EXACT:
                if not m.has_det_one():
                    raise ValueError("base point must have determinant 1")
            elif abs(m.det() - 1.0) > 1e-9:
                raise ValueError("base point must have determinant 1")
        if len({m.nrows for m in mats}) != 1:
            raise ValueError("approach matrices must match the base size")

    @classmethod
    def identity(cls, n) -> "BasePoint":
        return cls(ExactMatrix.identity(n))

    @property
    def n(self) -> int:
        return self.matrix.nrows

    def at(self, i) -> ExactMatrix:
        for idx, m in self.approach:
            if idx == i:
                return m
        return self.matrix


def _resolve_base(base, n):
    if base is None:
        return BasePoint.identity(n)
    if isinstance(base, ExactMatrix):
        return BasePoint(base)
    if isinstance(base, BasePoint):
        return base
    raise TypeError("base must be a BasePoint, an ExactMatrix, or None")


def sample_grid(curve: Curve, count, mode="equispaced", seed=0):
    """Exact sample parameters in [a, b): equispaced, or seeded uniform."""
    if count < 1:
        raise ValueError("need at least one sample")
    if mode == "equispaced":
        return curve.sample_points(count)
    if mode != "random":
        raise ValueError("grid mode must be 'equispaced' or 'random'")
    rng = random.Random(seed)
    a, b = curve.domain
    span = rat(b) - rat(a)
    # dyadic rationals keep the exact backend exact
    return tuple(
        rat(a) + span * Rat(rng.getrandbits(53), 2**53) for _ in range(count)
    )


# ---------------------------------------------------------------------------
# translates


def translate_lattice(curve: Curve, rates: ExpansionRates, s, base=None, doubled=False):
    """The lattice a u(phi(s)) g_0 Z^n (with its reversal partner when
    doubled=True), on the backend of the given rates."""
    backend = rates.backend
    if backend == EXACT:
        phi = curve.eval_exact(s)
    else:
        phi = curve.eval_float(s)
    m = expanding_diagonal(rates) @ row_unipotent(phi, backend)
    g0 = _resolve_base(base, curve.k + 1).matrix
    if backend == FLOAT:
        g0 = g0.to_float()
    m = m @ g0
    if doubled:
        return Lattice(m), Lattice(dual_involution(m))
    return Lattice(m)


# ---------------------------------------------------------------------------
# worker plumbing (module-level functions so arguments pickle)


def _chunks(items, pieces):
    pieces = max(1, min(pieces, len(items)))
    size, extra = divmod(len(items), pieces)
    out, start = [], 0
    for j in range(pieces):
        stop = start + size + (1 if j < extra else 0)
        out.append(items[start:stop])
        start = stop
    return out


def _pool_map(fn, args_list, threads):
    if threads > 1 and len(args_list) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, args_list))
    return [fn(a) for a in args_list]


def _siegel_worker(args):
    curve, weights, base_rows, svals, tent_args, doubled, budget = args
    rates = ExpansionRates(weights, FLOAT)
    tent = Tent(*tent_args, FLOAT)
    base = ExactMatrix(base_rows, FLOAT) if base_rows is not None else None
    vals = []
    for s in svals:
        got = translate_lattice(curve, rates, float(s), base=base, doubled=doubled)
        if doubled:
            v = siegel_transform(got[0], tent, budget) * siegel_transform(
                got[1], tent, budget
            )
        else:
            v = siegel_transform(got, tent, budget)
        vals.append(v)
    return vals


def _shortest_worker(args):
    curve, weights, base_rows, svals, budget = args
    rates = ExpansionRates(weights, FLOAT)
    base = ExactMatrix(base_rows, FLOAT) if base_rows is not None else None
    return [
        float(shortest_sup_norm(translate_lattice(curve, rates, float(s), base=base), budget))
        for s in svals
    ]


def _window_flags_worker(args):
    curve, windows, svals, budget = args
    out = []
    for s in svals:
        xi = curve.eval_exact(s)
        flags = []
        for w in windows:
            ps, _ = window_primal_soluble(xi, w, route="lattice", budget=budget)
            if ps:
                flags.append(True)
                continue
            ds, _ = window_dual_soluble(xi, w, route="lattice", budget=budget)
            flags.append(ds)
        out.append(tuple(flags))
    return out


def _shear_worker(args):
    curve, weights, base_rows, svals, tent_args, t_list, block, budget = args
    rates = ExpansionRates(weights, FLOAT)
    tent = Tent(*tent_args, FLOAT)
    base = ExactMatrix(base_rows, FLOAT) if base_rows is not None else None
    n = curve.k + 1
    deriv = curve.derivative()
    out = []
    for s in svals:
        head = deriv.eval_float(float(s))[:block]
        z = _aligning_element(head, n)
        if z is None:
            out.append(None)
            continue
        m = z @ expanding_diagonal(rates) @ row_unipotent(
            curve.eval_float(float(s)), FLOAT
        )
        if base is not None:
            m = m @ base
        base_val = siegel_transform(Lattice(m), tent, budget)
        sheared = []
        for t in t_list:
            if t == 0:
                sheared.append(base_val)  # u(0) = identity, exactly
                continue
            shift = (float(t),) + (0.0,) * (n - 2)
            sheared.append(
                siegel_transform(Lattice(row_unipotent(shift, FLOAT) @ m), tent, budget)
            )
        out.append((base_val, tuple(sheared)))
    return out


def _aligning_element(head, n):
    """Block-diagonal z = diag(lambda, g, 1, ..., 1) in SL_n with
    lambda * head @ g^{-1} equal to the first standard basis row.

    g is a Householder reflection pair sending head to |head| e_1 followed
    by the diagonal scaling that lands the whole block in SL.  Such a z
    exists whenever head is nonzero -- except in the scalar-block case,
    where a negative head cannot be aligned (lambda^2 * head = 1 has no
    real solution), so those samples are skipped too.
    """
    m = len(head)
    nrm = math.sqrt(sum(x * x for x in head))
    if nrm < 1e-12:
        return None
    lam = nrm ** (-1.0 / (m + 1))
    if m == 1:
        if head[0] < 0:
            return None
        block = [[lam, 0.0], [0.0, 1.0 / lam]]
    else:
        v = [head[0] - nrm] + list(head[1:])
        vv = sum(x * x for x in v)
        if vv < 1e-24 * nrm * nrm:
            refl = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
        else:
            # H2 H1 with H1 v-reflection (head -> |head| e_1), H2 = diag(1,-1,1,..):
            # both have det -1, the pair is a rotation
            h1 = [
                [(1.0 if i == j else 0.0) - 2.0 * v[i] * v[j] / vv for j in range(m)]
                for i in range(m)
            ]
            refl = [[h1[i][j] * (-1.0 if i == 1 else 1.0) for j in range(m)] for i in range(m)]
        # g = lam * diag(|head|, 1, ..., 1) @ refl
        g = [
            [lam * (nrm if i == 0 else 1.0) * refl[i][j] for j in range(m)]
            for i in range(m)
        ]
        block = [[lam] + [0.0] * m]
        for row in g:
            block.append([0.0] + row)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(len(block)):
        for j in range(len(block)):
            rows[i][j] = block[i][j]
    for i in range(len(block), n):
        rows[i][i] = 1.0
    z = ExactMatrix(rows, FLOAT)
    d = z.det()
    if not abs(d - 1.0) <= 1e-6:  # also catches nan from overflowing heads
        raise ValueError(
            "aligning element for head %r is not in SL_%d (det %r)" % (head, n, d)
        )
    return z


# ---------------------------------------------------------------------------
# experiment drivers


@dataclass(frozen=True)
class SiegelRow:
    index: int
    count: int
    average: float
    reference: float
    abs_gap: float
    rel_gap: float


def _float_tent_args(tent: Tent):
    return (
        tuple(float(c) for c in tent.center),
        float(tent.radius),
        float(tent.height),
    )


def _float_base_rows(base, n):
    bp = _resolve_base(base, n)
    m = bp.matrix

    def rows_at(i):
        g = bp.at(i)
        return tuple(tuple(float(x) for x in r) for r in g.rows)

    return rows_at if (bp.approach or m != ExactMatrix.identity(n)) else lambda i: None


def equidistribution_siegel(
    curve: Curve,
    schedule: RateSchedule,
    indices,
    count,
    tent: Tent,
    base=None,
    doubled=False,
    threads=1,
    grid="equispaced",
    seed=0,
    budget=DEFAULT_NODE_BUDGET,
):
    """Per-index Siegel averages against the exact integral reference.

    The reference is the full-space integral of the tent (its product with
    the Siegel mean over unimodular lattices); for a doubled measure the
    observable is the product over the pair and the reference squares.
    """
    svals = [float(s) for s in sample_grid(curve, count, grid, seed)]
    ref = float(tent.integral())
    if doubled:
        ref = ref * ref
    rows_at = _float_base_rows(base, curve.k + 1)
    tent_args = _float_tent_args(tent)
    out = []
    for i in indices:
        weights = schedule.expansion_at(i).weights
        args = [
            (curve, weights, rows_at(i), chunk, tent_args, doubled, budget)
            for chunk in _chunks(svals, threads)
        ]
        vals = [v for part in _pool_map(_siegel_worker, args, threads) for v in part]
        avg = sum(vals) / len(vals)
        gap = abs(avg - ref)
        out.append(
            SiegelRow(
                index=i,
                count=count,
                average=avg,
                reference=ref,
                abs_gap=gap,
                rel_gap=gap / ref,
            )
        )
    return out


@dataclass(frozen=True)
class NondivergenceRow:
    index: int
    eps: float
    count: int
    below: int
    fraction: Fraction


def nondivergence_scan(
    curve: Curve,
    schedule: RateSchedule,
    indices,
    eps_list,
    count,
    base=None,
    threads=1,
    grid="equispaced",
    seed=0,
    budget=DEFAULT_NODE_BUDGET,
):
    """Fractions of samples whose translate has a lattice vector shorter
    (sup-norm) than eps, per (index, eps); the shortest vector is computed
    once per sample and compared against every eps."""
    svals = [float(s) for s in sample_grid(curve, count, grid, seed)]
    eps_list = [float(e) for e in eps_list]
    rows_at = _float_base_rows(base, curve.k + 1)
    out = []
    for i in indices:
        weights = schedule.expansion_at(i).weights
        args = [
            (curve, weights, rows_at(i), chunk, budget)
            for chunk in _chunks(svals, threads)
        ]
        shorts = [v for part in _pool_map(_shortest_worker, args, threads) for v in part]
        for eps in eps_list:
            below = sum(1 for v in shorts if v < eps)
            out.append(
                NondivergenceRow(
                    index=i,
                    eps=eps,
                    count=count,
                    below=below,
                    fraction=Fraction(below, count),
                )
            )
    return out


@dataclass(frozen=True)
class ImprovabilityRow:
    mu: object
    prefix: int
    hits: int
    count: int
    fraction: Fraction


def improvability_scan(
    curve: Curve,
    weight_rows,
    mu_list,
    count,
    threads=1,
    grid="equispaced",
    seed=0,
    budget=DEFAULT_NODE_BUDGET,
):
    """Fraction of samples whose translate pair misses the window-avoidance
    set at EVERY listed weight row up to each prefix length.

    A sample counts for prefix L when, for all rows i <= L, the primal or
    the dual system is soluble (equivalently the doubled translate misses
    the product of avoidance sets).  Everything is exact: fractions are
    true rationals, and rows are monotone nonincreasing in L by nesting.
    The L = 0 row is the vacuous conjunction, fraction 1.
    """
    samples = sample_grid(curve, count, grid, seed)
    rows = [tuple(r) for r in weight_rows]
    out = []
    for mu in mu_list:
        mu = rat(mu)
        windows = tuple(WindowSpec(r, mu) for r in rows)
        args = [
            (curve, windows, chunk, budget) for chunk in _chunks(samples, threads)
        ]
        flags = [f for part in _pool_map(_window_flags_worker, args, threads) for f in part]
        out.append(ImprovabilityRow(mu=mu, prefix=0, hits=count, count=count, fraction=Fraction(1)))
        for L in range(1, len(rows) + 1):
            hits = sum(1 for f in flags if all(f[:L]))
            out.append(
                ImprovabilityRow(
                    mu=mu, prefix=L, hits=hits, count=count, fraction=Fraction(hits, count)
                )
            )
    return out


@dataclass(frozen=True)
class ShearRow:
    index: int
    t: float
    used: int
    skipped: int
    base_average: float
    sheared_average: float
    defect: float
    sup_f: float


def shear_invariance_scan(
    curve: Curve,
    schedule: RateSchedule,
    indices,
    t_list,
    count,
    tent: Tent,
    base=None,
    threads=1,
    grid="equispaced",
    seed=0,
    budget=DEFAULT_NODE_BUDGET,
):
    """Invariance defect of the aligned empirical averages under the extra
    first-coordinate shear u(t e_1).

    Samples are aligned by the block element z(s) built from the leading
    block of the curve's derivative; samples where no aligning element
    exists (zero head, or the scalar-block negative case) are skipped and
    counted.  The expansion used here is the *anchored* one (residuals
    stripped), which the aligning elements commute with.  The defect at
    t = 0 is exactly 0 by construction.
    """
    pres = layered_presentation(schedule)
    block = pres.block_sizes[-1]  # innermost layer block, the shear's home
    svals = [float(s) for s in sample_grid(curve, count, grid, seed)]
    t_list = [float(t) for t in t_list]
    rows_at = _float_base_rows(base, curve.k + 1)
    tent_args = _float_tent_args(tent)
    sup_f = float(tent.height)
    out = []
    for i in indices:
        anchored = [f.eval_float(i) for f in pres.anchored]
        weights = ExpansionRates.from_rates(anchored).weights
        args = [
            (curve, weights, rows_at(i), chunk, tent_args, t_list, block, budget)
            for chunk in _chunks(svals, threads)
        ]
        vals = [v for part in _pool_map(_shear_worker, args, threads) for v in part]
        used = [v for v in vals if v is not None]
        skipped = len(vals) - len(used)
        if not used:
            raise ValueError(
                "no usable samples at index %r: aligning element missing everywhere" % i
            )
        base_avg = sum(v[0] for v in used) / len(used)
        for pos, t in enumerate(t_list):
            sheared_avg = sum(v[1][pos] for v in used) / len(used)
            out.append(
                ShearRow(
                    index=i,
                    t=t,
                    used=len(used),
                    skipped=skipped,
                    base_average=base_avg,
                    sheared_average=sheared_avg,
                    defect=abs(sheared_avg - base_avg),
                    sup_f=sup_f,
                )
            )
    return out
