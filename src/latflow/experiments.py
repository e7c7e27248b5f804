"""Quadrature experiments over expanding translates of polynomial curves.

Each experiment averages an observable over lattices

    z(s) a_i u(phi(s)) Z^n,     s on a fixed sample grid,

with a_i the expanding diagonal of a rate schedule at index i.  Sampling
is equispaced by default (seeded-random grids are available for variance
estimation), per-sample work is pure, and results are reassembled by
sample index, so outputs are reproducible — bit-identical across thread
counts.

The translates are float matrices held as plain lists: rows while they
are multiplied (`linalg.mat_mul`), columns when they are enumerated.  A
triangular translate a_i u(phi(s)), and its reversal partner, checks
det 1 from its diagonal in O(n); the aligned products of the twist scan
take a full `linalg.det`.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import ExpansionRates, diagonal_shear, expanding_diagonal
from .backend import FLOAT, Rat, rat
from .diophantine import (
    Curve,
    WindowSpec,
    window_dual_soluble,
    window_primal_soluble,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    Tent,
    shortest_sup_norm,
    siegel_transform,
)
from .sequences import RateSchedule, float_expansion, layered_presentation

__all__ = [
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
# sample grids


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


_DET_TOL = 1e-9


def _check_det(d):
    """Refuse a float basis whose determinant d is not +-1 within _DET_TOL."""
    if not abs(abs(d) - 1.0) <= _DET_TOL:  # also refuses nan
        raise ValueError("basis is not unimodular (det = %r)" % (d,))


def _check_triangular_det(cols):
    """_check_det of a triangular basis, from the product d_0 ... d_{n-1}
    of its diagonal in order (`math.prod`, from 1): the product
    `linalg.det(approx=True)` forms, with no row update, for a triangular
    matrix."""
    _check_det(math.prod(col[j] for j, col in enumerate(cols)))


def translate_lattice(curve: Curve, rates: ExpansionRates, s, doubled=False):
    """Float basis columns of the lattice a u(phi(s)) Z^n, with those of
    its reversal partner W (g^-1)^T W when doubled=True.

    The translate g is upper triangular (`diagonal_shear`), and so is its
    partner, so each checks det 1 in O(n).  The partner's columns are the
    reversed rows of g^-1, in reverse order."""
    rows = diagonal_shear(rates.weights, curve.eval_float(s))
    cols = linalg.transpose(rows)
    _check_triangular_det(cols)
    if not doubled:
        return cols
    partner = [row[::-1] for row in reversed(linalg.inverse(rows, approx=True))]
    _check_triangular_det(partner)
    return cols, partner


# ---------------------------------------------------------------------------
# the sweep and its per-sample functions (module-level, so that they pickle)


def _sweep(at, jobs, samples, threads):
    """[[at(job, s) for s in samples] for job in jobs].

    With threads > 1 the samples are cut once into at most `threads` chunks
    of one size (the last may be shorter), and every chunk of every job runs
    in one process pool with one worker per chunk.  Results come back in
    sample order, so the answer does not depend on the thread count.
    """
    size = -(-len(samples) // max(1, threads))
    workers = -(-len(samples) // size)
    if workers < 2:
        return [[at(job, s) for s in samples] for job in jobs]
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pending = [
            pool.map(at, [job] * len(samples), samples, chunksize=size) for job in jobs
        ]
        return [list(values) for values in pending]
    finally:
        # a failed job drops the queued chunks of the jobs after it
        pool.shutdown(cancel_futures=True)


def _siegel_at(job, s):
    curve, rates, tent, doubled, budget = job
    got = translate_lattice(curve, rates, s, doubled=doubled)
    if doubled:
        return siegel_transform(got[0], tent, budget) * siegel_transform(got[1], tent, budget)
    return siegel_transform(got, tent, budget)


def _shortest_at(job, s):
    curve, rates, budget = job
    return float(shortest_sup_norm(translate_lattice(curve, rates, s), FLOAT, budget))


def _window_flags_at(job, s):
    curve, windows, budget = job
    xi = curve.eval_exact(s)
    flags = []
    for w in windows:
        ps, _ = window_primal_soluble(xi, w, route="lattice", budget=budget)
        if ps:
            flags.append(True)
            continue
        ds, _ = window_dual_soluble(xi, w, route="lattice", budget=budget)
        flags.append(ds)
        if not ds:  # every longer prefix fails here already
            break
    return tuple(flags)


def _shear_at(job, s):
    curve, deriv, diag, tent, shears, block, budget = job
    n = curve.k + 1
    z = _aligning_element(deriv.eval_float(s)[:block], n)
    if z is None:
        return None
    # u(shift) is the shear with unit weights, entry for entry
    m = linalg.mat_mul(
        linalg.mat_mul(z, diag), diagonal_shear((1.0,) * (n - 1), curve.eval_float(s))
    )
    base_val = siegel_transform(_checked_columns(m), tent, budget)
    sheared = []
    for shear in shears:
        if shear is None:
            sheared.append(base_val)  # u(0) = identity, exactly
            continue
        g = linalg.mat_mul(shear, m)
        sheared.append(siegel_transform(_checked_columns(g), tent, budget))
    return base_val, tuple(sheared)


def _checked_columns(rows):
    """The columns of a float basis given by rows, after a full
    `linalg.det` check of its determinant."""
    _check_det(linalg.det(rows, approx=True))
    return linalg.transpose(rows)


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
    d = linalg.det(rows, approx=True)
    if not abs(d - 1.0) <= 1e-6:  # also catches nan from overflowing heads
        raise ValueError(
            "aligning element for head %r is not in SL_%d (det %r)" % (head, n, d)
        )
    return rows


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


def equidistribution_siegel(
    curve: Curve,
    schedule: RateSchedule,
    indices,
    count,
    tent: Tent,
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
    ref = tent.integral()
    if doubled:
        ref = ref * ref
    jobs = [
        (curve, schedule.expansion_at(i), tent, doubled, budget) for i in indices
    ]
    out = []
    for i, vals in zip(indices, _sweep(_siegel_at, jobs, svals, threads)):
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
    threads=1,
    grid="equispaced",
    seed=0,
    budget=DEFAULT_NODE_BUDGET,
):
    """Fractions of samples whose translate has a lattice vector shorter
    (sup-norm) than eps, per (index, eps); the shortest vector is computed
    once per sample and compared against every eps, which must be finite
    and > 0."""
    eps_list = [float(e) for e in eps_list]
    bad = [e for e in eps_list if not 0 < e < math.inf]  # nan fails both
    if bad:
        raise ValueError("eps must be finite and > 0, got %r" % (bad[0],))
    svals = [float(s) for s in sample_grid(curve, count, grid, seed)]
    jobs = [(curve, schedule.expansion_at(i), budget) for i in indices]
    out = []
    for i, shorts in zip(indices, _sweep(_shortest_at, jobs, svals, threads)):
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
    The L = 0 row is the vacuous conjunction, fraction 1.  A sample's
    windows are decided in row order up to its first window where both
    systems are insoluble; the later rows cannot change its prefixes.
    Each weight row needs one weight per curve coordinate.
    """
    rows = [tuple(r) for r in weight_rows]
    for pos, r in enumerate(rows, 1):
        if len(r) != curve.k:
            raise ValueError("weight row %d (%s) has %d weights; the curve has dimension %d"
                             % (pos, ",".join(map(str, r)), len(r), curve.k))
    samples = sample_grid(curve, count, grid, seed)
    mu_list = [rat(mu) for mu in mu_list]
    jobs = [(curve, tuple(WindowSpec(r, mu) for r in rows), budget) for mu in mu_list]
    out = []
    for mu, flags in zip(mu_list, _sweep(_window_flags_at, jobs, samples, threads)):
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
    t = 0 is exactly 0 by construction.  Every t must be finite.

    What depends only on the index or on t is built once, into the jobs:
    each index's expanding diagonal `expanding_diagonal(rates)`, and the
    row shear `diagonal_shear(unit, (t, 0.0, ...))` of each t != 0 (None
    for t == 0, -0.0 included, whose value is the base's).  These are the
    matrices each sample built before, so every value is the same, bit
    for bit.
    """
    t_list = [float(t) for t in t_list]
    bad = [t for t in t_list if not math.isfinite(t)]
    if bad:
        raise ValueError("shear t must be finite, got %r" % (bad[0],))
    pres = layered_presentation(schedule)
    block = pres.block_sizes[-1]  # innermost layer block, the shear's home
    svals = [float(s) for s in sample_grid(curve, count, grid, seed)]
    sup_f = tent.height
    deriv = curve.derivative()
    # the row shears u(t e_1), None for t == 0, shared by every index
    n = curve.k + 1
    unit = (1.0,) * (n - 1)
    shears = tuple(
        None if t == 0 else diagonal_shear(unit, (t,) + (0.0,) * (n - 2)) for t in t_list
    )
    jobs = [
        (
            curve,
            deriv,
            expanding_diagonal(float_expansion(pres.anchored, i)),
            tent,
            shears,
            block,
            budget,
        )
        for i in indices
    ]
    out = []
    for i, vals in zip(indices, _sweep(_shear_at, jobs, svals, threads)):
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
