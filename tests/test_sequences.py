from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latflow.backend import Rat
from latflow.diophantine import Curve
from latflow.sequences import (
    ClosedForm,
    RateSchedule,
    layered_presentation,
)


def test_closed_form_parse_and_print():
    f = ClosedForm.parse("2*i^2 + i - 3")
    assert f.terms == ((Rat(2), 2), (Rat(1), 1), (Rat(-3), 0))
    assert str(ClosedForm.parse(str(f))) == str(f)
    assert ClosedForm.parse("i - i").terms == ()  # cancels to the zero form
    assert ClosedForm.parse("-i^2 + 2*i^2") == ClosedForm.parse("i^2")


def test_closed_form_keeps_rational_exponents():
    f = ClosedForm(((1, Fraction(1, 2)), (2, Fraction(3, 2))))
    assert f.terms == ((Rat(2), Fraction(3, 2)), (Rat(1), Fraction(1, 2)))
    assert str(f) == "2*i^(3/2) + i^(1/2)"
    assert f.diverges() and not f.is_bounded()
    with pytest.raises(ValueError, match="integer exponents"):
        f.eval_exact(4)
    with pytest.raises(ValueError, match="non-integer exponent"):
        RateSchedule((f,))
    # an integral exponent is stored as an int, so integer forms print as before
    g = ClosedForm(((3, Fraction(2)), (-1, 1), (Fraction(1, 2), 0)))
    assert [type(p) for _, p in g.terms] == [int, int, int]
    assert str(g) == "3*i^2 - i + 1/2"
    texts = ["2*i^2 + i - 3", "-i^3 + 1/2*i", "i^2 - i", "-2*i", "7", "0"]
    assert [str(ClosedForm.parse(t)) for t in texts] == texts


# the same polynomial text in s and in i, and the {power: coefficient}
# map both parsers must read from it
POLY_TEXTS = [
    ("s", {1: 1}),
    ("-s", {1: -1}),
    ("+s", {1: 1}),
    ("s^3", {3: 1}),
    ("2*s^2 - s + 1/3", {2: 2, 1: -1, 0: Rat(1, 3)}),
    ("-1/2*s^2", {2: Rat(-1, 2)}),
    ("2s + 3 s^2", {1: 2, 2: 3}),
    ("s + s - 4 + 4", {1: 2}),
    ("s^0 + 7", {0: 8}),
    ("0*s", {}),
]


@pytest.mark.parametrize("text, want", POLY_TEXTS)
def test_curve_and_closed_form_read_one_grammar(text, want):
    want = {p: Rat(c) for p, c in want.items()}
    (coord,) = zip(*Curve.parse(text).coeffs)
    assert {p: c for p, c in enumerate(coord) if c != 0} == want
    form = ClosedForm.parse(text.replace("s", "i"))
    assert {p: c for c, p in form.terms} == want


@pytest.mark.parametrize(
    "text, message",
    [
        ("s2", "cannot parse term 's2'"),
        ("3*s*s", "cannot parse term '3*s*s'"),
        ("2*s^x", "invalid literal for int() with base 10: 'x'"),
        ("q*s", None),  # the rational type's own message
    ],
)
def test_curve_and_closed_form_refuse_alike(text, message):
    other = text.replace("s", "i")
    with pytest.raises(ValueError) as by_curve:
        Curve.parse(text)
    with pytest.raises(ValueError) as by_form:
        ClosedForm.parse(other)
    if message is not None:
        assert str(by_curve.value) == message
    assert str(by_form.value) == str(by_curve.value).replace(text, other)


def test_closed_form_eval():
    f = ClosedForm.parse("i^2 - 2*i + 1")
    assert f.eval_exact(5) == 16  # (i-1)^2
    assert f.eval_float(5) == 16.0
    assert ClosedForm.parse("0").eval_exact(9) == 0


def test_closed_form_arithmetic_and_leading():
    a = ClosedForm.parse("i^2 + 1")
    b = ClosedForm.parse("i^2 - i")
    assert str(a - b) == "i + 1"
    assert (a - a).leading == (Rat(0), 0)
    assert a.leading == (Rat(1), 2)
    assert b.diverges() and not b.is_bounded()
    assert ClosedForm.parse("7").is_bounded()
    assert not ClosedForm.parse("-i").diverges()


def test_closed_form_growth_and_constant_parts():
    f = ClosedForm.parse("3*i^2 + i + 5")
    assert str(f.growth_part()) == "3*i^2 + i"
    assert f.constant_part() == 5


def test_root_bound_is_a_sign_barrier():
    # Cauchy: all real roots lie below 1 + max|lower coeff| / |lead|
    f = ClosedForm.parse("i^2 - 10*i + 1")
    b = f.root_bound()
    for i in range(b, b + 50):
        assert f.eval_exact(i) > 0


@settings(max_examples=50)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=4))
def test_root_bound_random(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = 1
    terms = tuple(
        (Rat(c), p) for p, c in zip(range(len(coeffs) - 1, -1, -1), coeffs)
    )
    f = ClosedForm(terms)
    lead_sign = 1 if coeffs[0] > 0 else -1
    b = f.root_bound()
    for i in range(b, b + 20):
        assert lead_sign * f.eval_exact(i) > 0 or f.eval_exact(i) == 0 and len(f.terms) <= 1


def test_schedule_validation():
    RateSchedule.parse("2*i, i, 3")  # fine
    with pytest.raises(ValueError):
        RateSchedule.parse("i, i^2")  # eventually increasing gap
    with pytest.raises(ValueError):
        RateSchedule.parse("-2")  # negative constant coordinate
    with pytest.raises(ValueError):
        RateSchedule.parse("i - i^2, 1")  # diverges to -inf
    RateSchedule.parse("i - i, 0")  # the zero form is a legal constant


def test_ordered_from_walks_below_root_bound():
    s = RateSchedule.parse("2*i, i, 3")
    lo = s.ordered_from()
    assert lo == 3  # at i=2 the last gap i - 3 is negative
    vals = tuple(f.eval_exact(lo) for f in s.forms)
    assert all(a >= b >= 0 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        s.expansion_at(lo - 1)
    rates = s.expansion_at(lo)
    assert len(rates.weights) == 3


def test_layered_presentation_two_blocks():
    pres = layered_presentation(RateSchedule.parse("2*i, i, 3"))
    assert pres.block_sizes == (2, 1)
    assert [str(f) for f in pres.growth.layers] == ["i", "i"]
    assert [str(f) for f in pres.anchored] == ["2*i", "i", "0"]
    assert [int(x) for x in pres.residual] == [0, 0, 3]
    # partial sums of layer forms recover the anchors
    assert str(ClosedForm(pres.growth.layers[0].terms + pres.growth.layers[1].terms)) == "2*i"


def test_layered_presentation_shared_growth():
    pres = layered_presentation(RateSchedule.parse("i^2, i^2, i, 5"))
    assert pres.block_sizes == (3, 2)
    assert [str(f) for f in pres.growth.layers] == ["i", "i^2 - i"]
    assert [int(x) for x in pres.residual] == [0, 0, 0, 5]


def test_layered_presentation_needs_divergence():
    with pytest.raises(ValueError):
        layered_presentation(RateSchedule.parse("4, 2"))


def test_layered_presentation_needs_divergent_prefix():
    # RateSchedule validation rules this out; an unvalidated schedule-like
    # object with a constant coordinate ahead of a divergent one is refused
    fake = SimpleNamespace(
        n=3, forms=(ClosedForm.parse("1"), ClosedForm.parse("i"))
    )
    with pytest.raises(ValueError, match="prefix"):
        layered_presentation(fake)


def test_exp_identity_exact_on_integer_forms():
    # the layered regrouping is an identity of diagonal matrices, so the
    # float error is zero to the last bit when the forms evaluate exactly
    for text in ("2*i, i, 3", "i^2, i^2, i, 5", "i, i"):
        pres = layered_presentation(RateSchedule.parse(text))
        assert pres.exp_identity_error(5) == 0.0
        assert pres.exp_identity_error(11) == 0.0


def test_residual_offsets_constant_gap():
    # coordinate 1 rides 3 above the shared anchor i
    pres = layered_presentation(RateSchedule.parse("i + 3, i, 1"))
    assert pres.block_sizes == (2,)
    assert [int(x) for x in pres.residual] == [3, 0, 1]
    assert [str(f) for f in pres.anchored] == ["i", "i", "0"]
