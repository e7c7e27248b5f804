"""Scalar backends: exact rationals (fractions.Fraction) and plain floats.

Each compound type in this package holds one scalar type.  Matrices
(`ExactMatrix`), lattices and window specs are exact: they hold
rationals, every comparison on them is decided exactly, and `rat`
refuses a float entry.  Expansion weights and tents are floats, and the
float translates of the Monte-Carlo sweeps are plain lists of basis
columns.  A box holds its bounds as given.  The scalar kind is named
once, by the `backend` argument ("exact" or "float") of the point
enumeration, and one rule holds there: an exact walk refuses a float
anywhere, in a basis entry or a box bound; a float walk computes in
floats and refuses a `Fraction` bound.  Ints serve both.  A float
membership test near a face attaches a margin warning.  Mixing backends
is a hard error, never a silent coercion.
"""

from __future__ import annotations

import warnings
from fractions import Fraction as Rat

EXACT = "exact"
FLOAT = "float"

#: relative inflation applied to float-path sphere radii so that points
#: sitting numerically on the boundary are not lost to roundoff
FLOAT_SLACK = 1e-9


class BackendMismatch(TypeError):
    """Operands carry different scalar backends."""


class BudgetExceeded(RuntimeError):
    """An enumeration walked more nodes than its budget allows."""


class FaceProximity(UserWarning):
    """A float-backend point sits within 1e-9 of a box face."""


class LLLIterationCap(UserWarning):
    """A float LLL reduction stopped at its iteration cap; the basis it
    returns is valid but may not be reduced."""


def rat(x):
    """Coerce x to the exact rational type.

    Accepts ints, Fractions, and strings like "3/4" or "-2"; a string
    with a zero denominator is a ValueError, like any other malformed
    string.  Floats are rejected: silently rationalizing a float is exactly
    the bug that keeping the two backends apart prevents.
    """
    if type(x) is Rat:
        return x
    if isinstance(x, float):
        raise BackendMismatch(
            "refusing to coerce float %r into the exact backend; "
            "use Fraction/int/str or the float backend" % (x,)
        )
    if isinstance(x, (int, Rat)):
        return Rat(x)
    if isinstance(x, str):
        try:
            return Rat(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (x,)) from None
    # last resort: things exposing integer numerator/denominator
    num = getattr(x, "numerator", None)
    den = getattr(x, "denominator", None)
    if isinstance(num, int) and isinstance(den, int):
        return Rat(num, den)
    try:
        n2, d2 = int(num), int(den)  # foreign integer types that convert to int
        return Rat(n2, d2)
    except (TypeError, ValueError):
        pass
    raise BackendMismatch("cannot coerce %r into the exact backend" % (x,))


def _poly_terms(text, var):
    """(coefficient, power) pairs of a sum like '1/2*s^2 - s + 3' in the
    variable letter var, in written order; empty text gives no pairs."""
    text = text.replace(" ", "").replace("-", "+-")
    pairs = []
    for term in (t for t in text.split("+") if t):
        if var not in term:
            pairs.append((rat(term), 0))
            continue
        coef_s, _, pow_s = term.partition(var)
        coef_s = coef_s.rstrip("*")
        coef = Rat(-1) if coef_s == "-" else rat(coef_s or 1)
        if pow_s.startswith("^"):
            power = int(pow_s[1:])
        elif pow_s == "":
            power = 1
        else:
            raise ValueError("cannot parse term %r" % term)
        pairs.append((coef, power))
    return pairs


def warn_if_near_face(margin: float) -> None:
    if abs(margin) <= FLOAT_SLACK:
        warnings.warn(
            "float-backend point within %.1e of a box face; "
            "the in/out decision is not trustworthy at this precision"
            % FLOAT_SLACK,
            FaceProximity,
            stacklevel=3,
        )
