"""Window solubility for simultaneous-approximation systems along curves.

A window (weights N_1..N_k, radius mu) asks for nonzero integer solutions of

  primal:  |q . xi - p|   <= mu / (N_1 ... N_k),   |q_j| < mu N_j
  dual:    |q xi_k + p_k| <= mu / N_k,  |q xi_j + p_j| < mu / N_j (j < k),
           |q| < mu N_1 ... N_k

with the first inequality closed and all others open; this matches the
face flags of the enumeration window exactly, so each system is soluble if
and only if the corresponding diagonal-times-shear translate of Z^n puts a
nonzero point in the window box.  Every decision here is exact; two
independent routes are compared whenever the direct loop is affordable.
The direct route loops over the inequality system on Python integers,
each inequality scaled by the common denominator of its two sides; the
lattice route asks for the first hit of the integral translate in the
window box, the query `minkowski_soluble` asks of its forms.  The two
routes share no helper, so a fault in one cannot hide in the other.

The two systems are exchanged by the outer involution of SL(k+1), and one
decider serves both: each system brings only what is its own, namely its
direct loop, its translate matrix, the map from lattice coefficients to
its witness, and its witness check.  The improvability driver built on
these deciders is ``experiments.improvability_scan``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import linalg
from .backend import EXACT, Rat, _poly_terms, rat
from .algebra import ExactMatrix
from .lattice import DEFAULT_NODE_BUDGET, Box, enumerate_basis_in_box


#: the largest direct-loop iteration count that route "auto" runs beside
#: the lattice route
DIRECT_LIMIT = 20_000


class RouteDisagreement(RuntimeError):
    """The direct and lattice solubility routes returned different answers.

    This never fires on correct code; it exists so a regression cannot pass
    silently by weakening one route.
    """


@dataclass(frozen=True)
class Curve:
    """Polynomial curve s -> (phi_1(s), ..., phi_k(s)) with rational
    coefficients; coeffs[j] is the coefficient vector of s^j."""

    coeffs: tuple
    domain: tuple = (0, 1)

    def __post_init__(self):
        cs = tuple(tuple(rat(x) for x in row) for row in self.coeffs)
        if not cs:
            raise ValueError("need at least the constant coefficient row")
        k = len(cs[0])
        if k < 1 or any(len(row) != k for row in cs):
            raise ValueError("ragged coefficient rows")
        dom = (rat(self.domain[0]), rat(self.domain[1]))
        if not dom[0] < dom[1]:
            raise ValueError("empty domain")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "domain", dom)
        # not a field: no eq, repr; float(Fraction) is correctly rounded
        object.__setattr__(self, "_float_coeffs", tuple(tuple(map(float, r)) for r in cs))

    @property
    def k(self):
        return len(self.coeffs[0])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @staticmethod
    def _horner(rows, s, zero):
        out = [zero] * len(rows[0])
        for row in reversed(rows):
            out = [v * s + c for v, c in zip(out, row)]
        return tuple(out)

    def eval_exact(self, s):
        return self._horner(self.coeffs, rat(s), Rat(0))

    def eval_float(self, s):
        return self._horner(self._float_coeffs, float(s), 0.0)

    def derivative(self) -> "Curve":
        if self.degree == 0:
            return Curve((tuple(Rat(0) for _ in range(self.k)),), self.domain)
        rows = tuple(
            tuple(j * x for x in self.coeffs[j]) for j in range(1, len(self.coeffs))
        )
        return Curve(rows, self.domain)

    def affine_span_full(self) -> bool:
        """True iff the curve's image affinely spans all k coordinates,
        i.e. the degree >= 1 coefficient rows have rank k."""
        rows = [list(r) for r in self.coeffs[1:]]
        if not rows:
            return self.k == 0
        return linalg.rank(rows) == self.k

    def sample_points(self, count):
        """count equispaced exact parameters a + (b-a) j/count, j < count."""
        a, b = self.domain
        step = (b - a) / Rat(count)
        return [a + step * j for j in range(count)]

    @classmethod
    def parse(cls, text, domain=(0, 1)) -> "Curve":
        """Parse 's, s^2' / '1/2*s + 3, s^3' style comma-separated polynomials."""
        coords = [t.strip() for t in text.split(",")]
        if not coords or any(not t for t in coords):
            raise ValueError("empty curve component in %r" % text)
        per_coord = []
        top = 0
        for comp in coords:
            powers = {}
            for coef, power in _poly_terms(comp, "s"):
                powers[power] = powers.get(power, Rat(0)) + coef
            per_coord.append(powers)
            top = max(top, max(powers) if powers else 0)
        rows = tuple(
            tuple(pc.get(j, Rat(0)) for pc in per_coord) for j in range(top + 1)
        )
        return cls(rows, domain)


@dataclass(frozen=True)
class WindowSpec:
    """Approximation window: per-form weights N_j >= 1 and radius mu in (0,1]."""

    weights: tuple
    radius: object

    def __post_init__(self):
        w = tuple(rat(x) for x in self.weights)
        if not w:
            raise ValueError("need at least one weight")
        if any(not x >= 1 for x in w):
            raise ValueError("window weights must be >= 1: %r" % (w,))
        mu = rat(self.radius)
        if not (0 < mu <= 1):
            raise ValueError("window radius must lie in (0, 1]")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "radius", mu)
        object.__setattr__(self, "_total", math.prod(w))  # not a field: no eq, repr

    @property
    def k(self):
        return len(self.weights)

    def total_weight(self):
        """N_1 ... N_k, computed once per window."""
        return self._total


def _integral_translate(system, xi, window: WindowSpec):
    """(D, the integer columns of D B) for the system's translate B at xi:
    each closed-form entry reduced with gcd from integer numerators and
    denominators, and D the lcm of the reduced denominators.  Both translates
    are upper triangular with det 1, checked on every call: the product of
    the integer diagonal must equal D^(k+1).

    The primal B is diag(prod N, 1/N_1, ..., 1/N_k) times the first-row
    shear by xi; it sends x = (p, q_1, ..., q_k) to

        ((prod N)(p + q . xi), q_1/N_1, ..., q_k/N_k).

    The dual B is diag(N_k, ..., N_1, 1/prod N) times the last-column shear
    by xi; it sends x = (p_k, ..., p_1, q) to

        (N_k (q xi_k + p_k), ..., N_1 (q xi_1 + p_1), q / prod N).
    """
    k = window.k
    if len(xi) != k:
        raise ValueError("dimension mismatch")
    total = window.total_weight().as_integer_ratio()
    ws = [w.as_integer_ratio() for w in window.weights]

    def times(a, x):  # the reduced (num, den) of a times the Fraction x
        num, den = a[0] * x.numerator, a[1] * x.denominator
        g = math.gcd(num, den)
        return num // g, den // g

    cols = [[(0, 1)] * (k + 1) for _ in range(k + 1)]
    if system == "primal":  # row 0 (prod N)(1, xi), then 1/N_j on the diagonal
        cols[0][0] = total
        for j in range(k):
            cols[1 + j][0], cols[1 + j][1 + j] = times(total, xi[j]), ws[j][::-1]
    else:  # row j: N_m at j and N_m xi_m at k, m = k-1-j; 1/prod N at k
        cols[k][k] = total[::-1]
        for j, m in enumerate(range(k - 1, -1, -1)):
            cols[j][j], cols[k][j] = ws[m], times(ws[m], xi[m])
    d = math.lcm(*(den for col in cols for _, den in col))
    cols = [[num * (d // den) for num, den in col] for col in cols]
    if math.prod(cols[j][j] for j in range(k + 1)) != d ** (k + 1):
        raise ValueError("%s translate is not unimodular at xi=%r" % (system, xi))
    return d, cols


def _strict_top(num, den):
    """Largest integer m with m < num / den (den > 0)."""
    return (num - 1) // den


def _primal_q_tops(window: WindowSpec):
    """Largest |q_j| with |q_j| < mu N_j, one per weight."""
    mn, md = window.radius.as_integer_ratio()
    tops = []
    for w in window.weights:
        wn, wd = w.as_integer_ratio()
        tops.append(_strict_top(mn * wn, md * wd))
    return tops


def _dual_q_top(window: WindowSpec):
    """Largest |q| with |q| < mu prod N."""
    mn, md = window.radius.as_integer_ratio()
    tn, td = window.total_weight().as_integer_ratio()
    return _strict_top(mn * tn, md * td)


# The direct loops run on integers: each inequality is scaled by the common
# denominator of its two sides, and every range is taken by floor division
# (-(-a // b) for a ceiling).  They share no helper with the lattice route.
def _primal_direct(xi, window: WindowSpec):
    # with L the lcm of the denominators of xi and mu / prod N = bn / bd,
    # q . xi = t / (L bd) and p runs over ceil((t - half) / den) ..
    # floor((t + half) / den) for den = L bd and half = bn L
    fracs = [x.as_integer_ratio() for x in xi]
    lcm = math.lcm(*(d for _, d in fracs))
    mn, md = window.radius.as_integer_ratio()
    tn, td = window.total_weight().as_integer_ratio()
    bn, bd = mn * td, md * tn
    den, half = lcm * bd, bn * lcm
    steps = [n * (lcm // d) * bd for n, d in fracs]
    for q in itertools.product(*[range(-t, t + 1) for t in _primal_q_tops(window)]):
        t = 0
        for qj, s in zip(q, steps):
            t += qj * s
        for p in range(-((half - t) // den), (t + half) // den + 1):
            if p == 0 and not any(q):
                continue
            return True, (p, q)
    return False, None


def _primal_direct_cost(window: WindowSpec):
    cost = 1
    for t in _primal_q_tops(window):
        cost *= 2 * t + 1
    return cost


def _dual_direct(xi, window: WindowSpec):
    # form j over den = d bd, for xi_j = n / d and mu / N_j = bn / bd: the
    # center -q xi_j is -q step / den and the half-width half / den
    mn, md = window.radius.as_integer_ratio()
    forms = []
    for x, w in zip(xi, window.weights):
        n, d = x.as_integer_ratio()
        wn, wd = w.as_integer_ratio()
        bn, bd = mn * wd, md * wn
        forms.append((n * bd, bn * d, d * bd))
    last = len(forms) - 1
    top = _dual_q_top(window)
    for q in range(-top, top + 1):
        ranges = []
        for j, (step, half, den) in enumerate(forms):
            c = -q * step
            if j == last:  # closed
                lo, hi = -((half - c) // den), (c + half) // den
            else:  # open
                lo, hi = (c - half) // den + 1, -((-c - half) // den) - 1
            if lo > hi:
                break
            ranges.append(range(lo, hi + 1))
        else:
            for ps in itertools.product(*ranges):
                if q == 0 and not any(ps):
                    continue
                return True, (q, ps)
    return False, None


def _dual_direct_cost(window: WindowSpec):
    return 2 * _dual_q_top(window) + 1


# The witness checks cross-multiply each inequality by the positive
# denominators of its two sides, so that they compare integers.
def _check_primal_witness(xi, window, witness):
    p, q = witness
    mn, md = window.radius.as_integer_ratio()
    tn, td = window.total_weight().as_integer_ratio()
    # |q . xi - p| <= mu / prod N, with E = L (q . xi - p) for L the lcm of
    # the denominators of xi
    fracs = [x.as_integer_ratio() for x in xi]
    lcm = math.lcm(*(d for _, d in fracs))
    err = -p * lcm
    for qj, (n, d) in zip(q, fracs):
        err += qj * n * (lcm // d)
    if abs(err) * md * tn > mn * td * lcm:
        return False
    for qj, w in zip(q, window.weights):  # |q_j| < mu N_j
        wn, wd = w.as_integer_ratio()
        if not abs(qj) * md * wd < mn * wn:
            return False
    return p != 0 or any(q)


def _check_dual_witness(xi, window, witness):
    q, ps = witness
    k = window.k
    mn, md = window.radius.as_integer_ratio()
    tn, td = window.total_weight().as_integer_ratio()
    if not abs(q) * md * td < mn * tn:  # |q| < mu prod N
        return False
    for j in range(k):
        # |q xi_j + p_j| = |q n + p_j d| / d against mu / N_j
        n, d = xi[j].as_integer_ratio()
        wn, wd = window.weights[j].as_integer_ratio()
        lhs = abs(q * n + ps[j] * d) * md * wn
        rhs = mn * wd * d
        if j == k - 1:
            if lhs > rhs:
                return False
        elif not lhs < rhs:
            return False
    return q != 0 or any(ps)


def _first_hit(cols, bounds, budget):
    """The coefficients, in the basis cols, of the first nonzero lattice
    point v found with |v_0| <= bounds[0] and |v_j| < bounds[j] for j >= 1,
    or None when there is none: the question of Minkowski's linear forms
    theorem, with the first face closed."""
    pts = enumerate_basis_in_box(
        cols, Box(bounds, (True,) + (False,) * (len(bounds) - 1)), EXACT, budget, first_only=True
    )
    return pts[0][1] if pts else None


def _decide(system, xi, window, route, budget, direct, direct_cost, witness_of, check):
    """The decision both systems share, given the system's own pieces: its
    direct loop and that loop's iteration count, the map from lattice
    coefficients to its witness, and its witness check.  The lattice route
    walks the integral translate D B in the window box scaled by D, both on
    integers: for the radius mu = mn / md, the columns md (D B) in the box
    of int bounds mn D, which has the same box-normalised basis."""
    if route not in ("auto", "direct", "lattice"):
        raise ValueError("unknown route %r; choose auto, direct or lattice" % (route,))
    xi = tuple(rat(x) for x in xi)
    if len(xi) != window.k:
        raise ValueError("point/window dimension mismatch")
    answers = {}
    if route in ("auto", "direct"):
        if route == "direct" or direct_cost(window) <= DIRECT_LIMIT:
            answers["direct"] = direct(xi, window)
    if route in ("auto", "lattice"):
        d, cols = _integral_translate(system, xi, window)
        mn, md = window.radius.as_integer_ratio()
        if md != 1:
            cols = [[md * x for x in col] for col in cols]
        c = _first_hit(cols, (mn * d,) * (window.k + 1), budget)
        answers["lattice"] = (False, None) if c is None else (True, witness_of(c))
    kinds = {s for s, _ in answers.values()}
    if len(kinds) > 1:
        raise RouteDisagreement(
            "%s routes disagree at xi=%r window=%r: %r" % (system, xi, window, answers)
        )
    soluble, witness = answers.get("direct", answers.get("lattice"))
    if soluble and not check(xi, window, witness):
        raise RouteDisagreement("%s witness failed substitution: %r" % (system, witness))
    return soluble, witness


def window_primal_soluble(xi, window: WindowSpec, route="auto", budget=DEFAULT_NODE_BUDGET):
    """Decide the primal system at the point xi; returns (soluble, witness).

    The witness is (p, (q_1..q_k)) checked by substitution before returning.
    route: 'auto' runs the direct loop when its iteration count is at most
    DIRECT_LIMIT AND the lattice route, and raises RouteDisagreement unless
    they agree; 'direct' or 'lattice' force one route.
    """
    return _decide(
        "primal", xi, window, route, budget,
        _primal_direct, _primal_direct_cost,
        lambda c: (-c[0], tuple(c[1:])),  # x = (-p, q_1..q_k)
        _check_primal_witness,
    )


def window_dual_soluble(xi, window: WindowSpec, route="auto", budget=DEFAULT_NODE_BUDGET):
    """Decide the dual system at xi; returns (soluble, (q, (p_1..p_k))),
    with routes and checks as in window_primal_soluble."""
    return _decide(
        "dual", xi, window, route, budget,
        _dual_direct, _dual_direct_cost,
        lambda c: (c[-1], tuple(reversed(c[:-1]))),  # x = (p_k..p_1, q)
        _check_dual_witness,
    )


def minkowski_soluble(forms: ExactMatrix, alphas, mu=1, budget=DEFAULT_NODE_BUDGET):
    """Nonzero integer solubility of |(forms x)_1| <= mu a_1,
    |(forms x)_j| < mu a_j for j >= 2; returns (soluble, x or None).

    With mu = 1 and prod(a_j) >= |det forms| this is guaranteed soluble
    (Minkowski's linear forms theorem, closed first face).
    """
    n = forms.nrows
    alphas = tuple(rat(a) for a in alphas)
    if len(alphas) != n or any(not a > 0 for a in alphas):
        raise ValueError("need %d positive bounds" % n)
    mu = rat(mu)
    x = _first_hit(forms.columns(), tuple(mu * a for a in alphas), budget)
    return x is not None, x


@dataclass(frozen=True)
class CorrespondenceReport:
    ok: bool
    primal_soluble: bool
    dual_soluble: bool
    primal_witness: object
    dual_witness: object


def correspondence_check(xi, window: WindowSpec, budget=DEFAULT_NODE_BUDGET):
    """Cross-validate every route pair at one instance.

    Runs the direct and lattice routes for both systems; the solubility
    deciders raise RouteDisagreement on any mismatch and on any witness that
    fails substitution, so the returned report's `ok` is always True.
    """
    ps, pw = window_primal_soluble(xi, window, route="auto", budget=budget)
    ds, dw = window_dual_soluble(xi, window, route="auto", budget=budget)
    return CorrespondenceReport(True, ps, ds, pw, dw)
