"""Closed-form rate schedules and their layered normal form.

A *rate schedule* assigns to every index i = 1, 2, ... a vector of
expansion exponents (tau_1(i), ..., tau_{n-1}(i)), each coordinate a
``ClosedForm`` in i with rational coefficients and integer exponents (the
schedule is evaluated exactly).  The schedules we care about are
eventually nonnegative and eventually nonincreasing in the coordinate,
with at least one coordinate divergent.  ``ClosedForm`` is the one
"sum of c * i^p" type of the package; it lives in ``weights``, whose
growth layers are closed forms too, and is re-exported here.

The *layered normal form* regroups such a schedule: coordinates sharing
the same divergent part form a block, each block is anchored at its last
coordinate, and the anchor forms telescope into per-layer growth forms
t_1(i), ..., t_k(i), the layers of a ``GrowthSpec``.  Writing A_m for the
traceless diagonal generator with first entry m and entries -1 in
coordinates 1..m (zeros after), the anchored schedule satisfies exactly

    diag-exp( sum_l t_l(i) * A_{m_l} ) = a_{taubar(i)}

where taubar replaces every coordinate by its block anchor, and the
original schedule differs from taubar by a convergent (here: eventually
constant) residual vector.  ``exp_identity_error`` checks the displayed
identity numerically at a given index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import ExpansionRates
from .weights import ClosedForm, GrowthSpec, _generator_diagonal, validate_block_sizes

__all__ = [
    "ClosedForm",
    "RateSchedule",
    "LayeredSchedule",
    "layered_presentation",
]


_OVERFLOW = "expansion rates at index %d overflow a float"


def float_expansion(forms, i) -> ExpansionRates:
    """Float expansion weights e^{f(i)}, one per closed form f; a rate,
    weight or total weight beyond the float range is a ValueError naming
    the index."""
    try:
        rates = ExpansionRates.from_rates([f.eval_float(i) for f in forms])
    except OverflowError:
        rates = None
    if rates is None or math.isinf(rates.total_weight()):
        raise ValueError(_OVERFLOW % i)
    return rates


@dataclass(frozen=True)
class RateSchedule:
    """One closed form per coordinate 1..n-1.

    Validated so the coordinates are eventually nonnegative and eventually
    nonincreasing; every coordinate either diverges to +infinity or is
    exactly constant.  (These are the schedules whose diagonal flows admit
    the layered normal form; a bounded oscillating coordinate does not.)
    """

    forms: tuple

    def __post_init__(self):
        forms = tuple(self.forms)
        if not forms:
            raise ValueError("need at least one coordinate")
        for f in forms:
            if not isinstance(f, ClosedForm):
                raise TypeError("RateSchedule wants ClosedForm coordinates")
            if any(not isinstance(p, int) for _, p in f.terms):
                raise ValueError("coordinate %s has a non-integer exponent" % f)
            if f.is_bounded():
                if f.constant_part() < 0:
                    raise ValueError("negative constant coordinate %s" % f)
            elif not f.diverges():
                raise ValueError(
                    "coordinate %s neither constant nor divergent to +inf" % f
                )
        for r in range(len(forms) - 1):
            gap = forms[r] - forms[r + 1]
            c, _ = gap.leading
            if c < 0:
                raise ValueError(
                    "coordinates not eventually nonincreasing at position %d"
                    % (r + 1)
                )
        object.__setattr__(self, "forms", forms)

    @classmethod
    def parse(cls, text) -> "RateSchedule":
        """Parse '2*i, i, 3' -> three coordinate forms."""
        coords = [t.strip() for t in text.split(",")]
        if not coords or any(not t for t in coords):
            raise ValueError("empty coordinate in %r" % text)
        return cls(tuple(ClosedForm.parse(t) for t in coords))

    @property
    def n(self) -> int:
        """Ambient dimension (one more than the number of coordinates)."""
        return len(self.forms) + 1

    def ordered_from(self) -> int:
        """Smallest index from which the coordinates are provably
        nonnegative and nonincreasing (they are only *eventually* so).

        Beyond every gap form's Cauchy root bound the signs are locked;
        below that we test indices directly, walking down while the
        pointwise checks still hold.
        """
        gaps = [
            self.forms[r] - self.forms[r + 1] for r in range(len(self.forms) - 1)
        ]
        checks = gaps + list(self.forms)

        def ok(i):
            return all(f.eval_exact(i) >= 0 for f in checks)

        lo = max(f.root_bound() for f in checks)
        if not ok(lo):  # beyond every root, leading signs (all >= 0) rule
            raise RuntimeError(
                "coordinates not ordered at their root bound %d" % lo
            )
        while lo > 1 and ok(lo - 1):
            lo -= 1
        return lo

    def expansion_at(self, i) -> ExpansionRates:
        """Float expansion weights e^{tau_r(i)} at index i."""
        lo = self.ordered_from()
        if i < lo:
            raise ValueError(
                "schedule is ordered only from index %d; got %d" % (lo, i)
            )
        return float_expansion(self.forms, i)


@dataclass(frozen=True)
class LayeredSchedule:
    """Layered normal form of a rate schedule.

    block_sizes  -- anchors m_1 > m_2 > ... > m_k (one per growth class)
    growth       -- per-layer divergent forms t_l, as a GrowthSpec whose
                    layers are ClosedForms
    anchored     -- taubar: coordinate r replaced by its block anchor form
                    (zero form beyond m_1)
    residual     -- lim_i (tau_r(i) - taubar_r(i)), one rational per
                    coordinate; eventually-constant coordinates land here
    """

    n: int
    block_sizes: tuple
    growth: GrowthSpec
    anchored: tuple
    residual: tuple

    def exp_identity_error(self, i) -> float:
        """Max relative gap, over diagonal entries, between a_{taubar(i)}
        and exp(sum_l t_l(i) A_{m_l})."""
        n = self.n
        try:
            taubar = [f.eval_float(i) for f in self.anchored]
            gen_diag = [0.0] * n
            for t_form, m in zip(self.growth.layers, self.block_sizes):
                t = t_form.eval_float(i)
                for j, x in enumerate(_generator_diagonal(n, m)):
                    gen_diag[j] += t * float(x)
            lhs = [math.exp(sum(taubar))] + [math.exp(-v) for v in taubar]
            rhs = [math.exp(v) for v in gen_diag]
        except OverflowError:
            raise ValueError(_OVERFLOW % i) from None
        err = 0.0
        for a, b in zip(lhs, rhs):
            err = max(err, abs(a - b) / max(1.0, abs(a)))
        return err


def layered_presentation(schedule: RateSchedule) -> LayeredSchedule:
    """Regroup a rate schedule by shared divergent parts.

    Coordinates 1..m_1 are the divergent ones (validation guarantees they
    form a prefix); consecutive coordinates with identical growth parts
    share a block, and each block is anchored at its *last* coordinate.
    The layer forms telescope: t_1 is the anchor form of the innermost
    block (largest anchor index, slowest growth) and t_l is the difference
    between consecutive anchor forms, so that partial sums recover the
    anchors.  Raises ValueError when no coordinate diverges.
    """
    forms = schedule.forms
    divergent = [r for r, f in enumerate(forms, start=1) if f.diverges()]
    if not divergent:
        raise ValueError("schedule has no divergent coordinate")
    m1 = divergent[-1]
    if divergent != list(range(1, m1 + 1)):  # RateSchedule validation ensures it
        raise ValueError(
            "divergent coordinates %r do not form a prefix" % (divergent,)
        )

    # blocks: maximal runs of equal growth parts among coordinates 1..m_1
    anchors = []  # last coordinate of each run, in coordinate order
    for r in range(1, m1 + 1):
        if r == m1 or forms[r - 1].growth_part() != forms[r].growth_part():
            anchors.append(r)
    anchors.reverse()  # m_1 > m_2 > ... > m_k
    validate_block_sizes(schedule.n, anchors)

    # telescoping layer forms: partial sums equal successive anchor forms
    layer_forms = [forms[anchors[0] - 1]]
    for l in range(1, len(anchors)):
        layer_forms.append(forms[anchors[l] - 1] - forms[anchors[l - 1] - 1])

    anchored = []
    residual = []
    for r, f in enumerate(forms, start=1):
        if r > m1:
            anchored.append(ClosedForm(()))
            residual.append(f.constant_part())
            continue
        anchor = min(m for m in anchors if m >= r)
        anchored.append(forms[anchor - 1])
        gap = f - forms[anchor - 1]
        if not gap.is_bounded():  # same growth part within a block
            raise RuntimeError(
                "coordinate %d differs from its anchor by %s" % (r, gap)
            )
        residual.append(gap.constant_part())

    return LayeredSchedule(
        n=schedule.n,
        block_sizes=tuple(anchors),
        growth=GrowthSpec(tuple(layer_forms)),
        anchored=tuple(anchored),
        residual=tuple(residual),
    )
