import random

import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from njk import scalars
from njk.scalars import (
    Config,
    OpaqueApplied,
    NonIntegerExponentError,
    SyntaxErrorWithOffset,
    UnknownFunctionError,
    canonical,
    diff,
    differentiate,
    equal,
    is_zero,
    opaque,
    parse,
    register_builtin,
    substitute,
    to_text,
    var,
)

register_builtin("exp")
register_builtin("sin")

x, y, u, t, h, a = map(var, "x y u t h a".split())


def test_parse_polynomial():
    e = parse("x^2 + 2*x*y")
    assert canonical(e) == canonical(x**2 + 2 * x * y)


def test_parse_cancellation():
    assert canonical(parse("0.5*(u - u)")) == 0


def test_parse_decimal_is_exact_rational():
    e = parse("0.5*x")
    assert e == sp.Rational(1, 2) * x


def test_parse_opaque_application():
    e = parse("exp(2*t)")
    assert e == opaque("exp")(2 * t)


def test_parse_errors_carry_offset():
    with pytest.raises(SyntaxErrorWithOffset) as err:
        parse("x + * y")
    assert err.value.offset == 4
    with pytest.raises(UnknownFunctionError):
        parse("sinh(x)")
    with pytest.raises(NonIntegerExponentError):
        parse("x^1.5")


def test_roundtrip_print_parse():
    rng = random.Random(5)
    exprs = [
        x**2 + 2 * x * y,
        (x + y) / (1 + x**2),
        opaque("exp")(2 * t) * t - sp.Rational(3, 7),
    ]
    for _ in range(20):
        e = sp.Rational(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(rng.randint(1, 4)):
            e = e * rng.choice([x, y, t]) + rng.randint(-5, 5)
        exprs.append(e)
    for e in exprs:
        assert canonical(parse(to_text(e))) == canonical(e)


def test_differentiate_basic():
    assert differentiate(x**2 * y, x) == 2 * x * y
    e = differentiate(parse("exp(2*t)"), t)
    assert e == 2 * opaque("exp")(2 * t)


def test_differentiate_rational_matches_finite_difference():
    # independent oracle: central finite differences at random rational points
    rng = random.Random(11)
    p = x**3 * y - 2 * x * y**2 + 7
    q = 1 + x**2 + y**2
    e = p / q
    d = differentiate(e, x)
    f = sp.lambdify((x, y), e, "mpmath")
    df = sp.lambdify((x, y), d, "mpmath")
    import mpmath

    with mpmath.workprec(80):
        eps = mpmath.mpf(1) / 10**10
        for _ in range(10):
            px = sp.Rational(rng.randint(-8, 8), rng.randint(1, 5))
            py = sp.Rational(rng.randint(-8, 8), rng.randint(1, 5))
            approx = (f(mpmath.mpf(px.p) / px.q + eps, mpmath.mpf(py.p) / py.q)
                      - f(mpmath.mpf(px.p) / px.q - eps, mpmath.mpf(py.p) / py.q)) / (2 * eps)
            exact = df(mpmath.mpf(px.p) / px.q, mpmath.mpf(py.p) / py.q)
            assert abs(approx - exact) <= 1e-6 * max(1, abs(exact))


def test_substitute_swap_symmetry():
    assert substitute(x + y, {x: y, y: x}) == canonical(x + y)


def test_substitute_binomial():
    e = substitute(x**2, {x: x + h}) - x**2 - 2 * x * h - h**2
    assert canonical(e) == 0


def test_derivative_substitution_commute_on_fresh_variable():
    e = x**3 * y + y**2 * x
    c = sp.Rational(5, 3)
    lhs = differentiate(substitute(e, {y: c}), x)
    rhs = substitute(differentiate(e, x), {y: c})
    assert lhs == rhs


def test_is_zero_exact():
    r = is_zero((x + y) ** 2 - x**2 - 2 * x * y - y**2)
    assert r.verdict == "ProvedZero" and r.mode == "exact"
    r = is_zero(x - y)
    assert r.verdict == "ProvedNonzero" and r.mode == "exact"


def test_is_zero_sampled_exp_identity():
    exp = opaque("exp")
    cfg = Config(samples=20, tol=1e-9, seed=3)
    r = is_zero(exp(a) * exp(-a) - 1, cfg)
    assert r.verdict == "SampledZero" and r.mode == "sample"
    assert r.n_points == 20


def test_is_zero_sampled_nonzero_carries_witness():
    exp = opaque("exp")
    cfg = Config(samples=20, tol=1e-9, seed=3)
    r = is_zero(exp(a) - 1 - a, cfg)
    assert r.verdict == "SampledNonzero"
    assert r.witness and r.value
    # determinism: same seed, same witness and value
    r2 = is_zero(exp(a) - 1 - a, cfg)
    assert r2.witness == r.witness and r2.value == r.value


def test_is_zero_unknown_without_evaluator():
    from njk.scalars import register_opaque

    register_opaque("mystery", 1, ["0"])
    f = opaque("mystery")
    r = is_zero(f(x) - 1, Config(seed=1))
    assert r.verdict == "Unknown"


def test_exact_mode_declines_opaque():
    exp = opaque("exp")
    r = is_zero(exp(a) * exp(-a) - 1, Config(mode="exact"))
    assert r.verdict == "Unknown" and r.mode == "exact"


def test_opaque_cancellation_is_exact():
    # identical atoms cancel rationally even though exp is opaque
    exp = opaque("exp")
    r = is_zero(t * exp(a) - t * exp(a))
    assert r.verdict == "ProvedZero"


def test_canonical_soundness_random():
    rng = random.Random(7)
    vs = [x, y, t]
    for _ in range(100):
        e = sp.Integer(rng.randint(-4, 4))
        for _ in range(rng.randint(1, 5)):
            v = rng.choice(vs)
            op = rng.randint(0, 2)
            if op == 0:
                e = e + sp.Rational(rng.randint(-6, 6), rng.randint(1, 4)) * v
            elif op == 1:
                e = e * (v + rng.randint(-3, 3))
            else:
                e = e - v ** rng.randint(1, 3)
        assert is_zero(e - sp.expand(e)).verdict == "ProvedZero"


def test_canonical_unique_for_rational_fragment():
    e1 = (x**2 - y**2) / (x - y)
    e2 = x + y
    assert canonical(e1) == canonical(e2)
    e3 = 1 / (x - y) + 1 / (x + y)
    e4 = 2 * x / (x**2 - y**2)
    assert canonical(e3) == canonical(e4)


def test_equal_helper():
    assert equal((x + 1) ** 2, x**2 + 2 * x + 1).holds


# ---------------------------------------------------------------------------
# the canonical form against the cancel(together(.)) algorithm it replaced


_GENS_ORDER = sp.core.sorting.default_sort_key


def _reference_canonicalize_opaque_args(e):
    if not e.atoms(OpaqueApplied):
        return e
    return e.replace(
        lambda x: isinstance(x, OpaqueApplied),
        lambda x: type(x)(*[reference_canonical(a) for a in x.args]),
    )


def reference_canonical(e):
    """The earlier canonical form, copied verbatim as the before/after oracle."""
    e = sp.sympify(e)
    if e.is_Rational:
        return e
    e = _reference_canonicalize_opaque_args(e)
    num, den = sp.fraction(sp.cancel(sp.together(e)))
    num = sp.expand(num)
    den = sp.expand(den)
    if num == 0:
        return sp.Integer(0)
    if den == 1:
        return num
    gens = sorted(den.atoms(sp.Symbol) | den.atoms(OpaqueApplied), key=_GENS_ORDER)
    if not gens:
        return sp.expand(num / den)
    lead = sp.Poly(den, *gens).LC(order="grevlex")
    num = sp.expand(num / lead)
    den = sp.expand(den / lead)
    return num / den


SYMBOLS = (x, y, u)


def _quotient(a, b):
    return a if reference_canonical(b) == 0 else a / b


def _apply(name, a):
    """name(a), with the argument multiplied by its denominator: the earlier
    form kept opaque arguments in whatever shape sympy's cancel left them
    (see test_opaque_argument_is_kept_in_canonical_form), so the two forms
    are compared on arguments whose canonical form is a polynomial."""
    den = sp.fraction(reference_canonical(a))[1]
    return opaque(name)(a if den == 1 else a * den)


def _scalars(symbols):
    leaves = st.one_of(
        st.sampled_from(symbols),
        st.fractions(max_denominator=6, min_value=-5, max_value=5).map(sp.Rational),
    )

    def extend(inner):
        return st.one_of(
            st.builds(lambda a, b: a + b, inner, inner),
            st.builds(lambda a, b: a - b, inner, inner),
            st.builds(lambda a, b: a * b, inner, inner),
            st.builds(_quotient, inner, inner),
            st.builds(lambda a, k: a**k, inner, st.integers(1, 3)),
            st.builds(lambda a, k: _quotient(sp.Integer(1), a**k), inner, st.integers(1, 2)),
            # a common factor that cancels
            st.builds(lambda p, q, r: _quotient(p * q, p * r), inner, inner, inner),
            # opaque applications (listed twice, to draw them more often);
            # the argument is itself a scalar that needs canonicalizing,
            # and may hold another application
            st.builds(_apply, st.sampled_from(["exp", "sin"]), inner),
            st.builds(_apply, st.sampled_from(["exp", "sin"]), inner),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def scalars_in_1_to_3_symbols(draw):
    n = draw(st.integers(1, 3))
    return draw(_scalars(SYMBOLS[:n]))


@given(scalars_in_1_to_3_symbols())
def test_canonical_matches_reference(e):
    assert canonical(e) == reference_canonical(e)


@given(scalars_in_1_to_3_symbols())
def test_canonical_is_idempotent(e):
    c = canonical(e)
    assert canonical(c) == c


def test_canonical_reference_examples():
    exp, sin = opaque("exp"), opaque("sin")
    for e in [
        (x**2 - y**2) / (x - y),
        sp.Rational(3, 4) * x / (sp.Rational(2, 3) * x * y - 6 * y**2),
        (x * exp(x) + exp(x)) / (x**2 - 1),
        sin((x**2 - 1) / (x + 1)) ** -2 - exp(2 * sin((x * u + u) / u)) / y,
        1 / (-x - 1) + sp.Rational(1, 2),
    ]:
        assert canonical(e) == reference_canonical(e)


def test_opaque_argument_is_kept_in_canonical_form():
    # The earlier form let sympy's cancel rewrite a rational argument
    # (signsimp, factor_terms, expand); now the argument is its canonical
    # form.  Both are keys of the argument's value.
    exp = opaque("exp")
    assert reference_canonical(exp(x + 1 / x)) == exp(x + 1 / x)
    assert canonical(exp(x + 1 / x)) == exp((x**2 + 1) / x)
    assert canonical(exp(x + 1 / x) - exp((x**2 + 1) / x)) == 0


@pytest.mark.parametrize(
    "e, node", [(sp.Float(0.5) * x, "Float"), (sp.Float(2), "Float"), (sp.sqrt(x + y), "Pow")]
)
def test_canonical_rejects_nodes_outside_the_grammar(e, node):
    with pytest.raises(TypeError, match=node):
        canonical(e)


def test_canonical_rejects_non_integer_power_inside_opaque_argument():
    with pytest.raises(TypeError, match="non-integer Pow"):
        canonical(opaque("exp")(x ** sp.Rational(1, 3)))


# ---------------------------------------------------------------------------
# expanded polynomials are recognized and returned unchanged


def _count_folds(monkeypatch):
    calls = []
    fold = scalars._fold

    def counting(e, ring, index):
        calls.append(e)
        return fold(e, ring, index)

    monkeypatch.setattr(scalars, "_fold", counting)
    return calls


@given(
    scalars_in_1_to_3_symbols(),
    scalars_in_1_to_3_symbols(),
    st.fractions(max_denominator=6, min_value=-5, max_value=5).map(sp.Rational),
)
def test_combined_canonical_outputs_match_reference(e1, e2, q):
    c1, c2 = canonical(e1), canonical(e2)
    for e in (c1 + c2, -c1, q * c1):
        assert canonical(e) == reference_canonical(e)


@given(scalars_in_1_to_3_symbols())
def test_polynomial_output_is_returned_unchanged(e):
    c = canonical(e)
    if sp.fraction(c)[1] == 1:
        assert canonical(c) is c


def test_normal_polynomials_are_returned_unchanged(monkeypatch):
    exp, sin = opaque("exp"), opaque("sin")
    folds = _count_folds(monkeypatch)
    for e in [
        sp.Rational(-3, 4),
        x,
        -x,
        sp.Rational(2, 3) * x**2 * y,
        3 * x**2 * y - x / 2 + 7,
        sin(x + 1) ** 2 * y + exp(x * y) - 1,
        exp(sin(x) * y**3) * u,
    ]:
        assert canonical(e) is e
        assert canonical(e) == reference_canonical(e)
    assert folds == []


def test_own_polynomial_output_is_not_folded_again(monkeypatch):
    exp = opaque("exp")
    outputs = [
        canonical(e)
        for e in [(x + y) ** 3, (x**2 - y**2) / (x - y) + exp((x + 1) ** 2), (u + 1) * (u - 1)]
    ]
    folds = _count_folds(monkeypatch)
    for c in outputs:
        assert canonical(c) is c
    assert folds == []
    # a rational function is not recognized, so the counter does count
    assert canonical(x / (x + 1)) == x / (x + 1)
    assert folds[0] == x / (x + 1)


@pytest.mark.parametrize(
    "make",
    [
        # opaque arguments that are not yet canonical
        lambda exp, sin: exp((x + 1) ** 2) + y,
        lambda exp, sin: x * sin(x * (x + y)) - 1,
        lambda exp, sin: exp(sin(x - x * (1 - y))) * y**2,
        # opaque arguments that are rational functions
        lambda exp, sin: x * sin(x / (x + 1)) + 1,
        lambda exp, sin: exp(1 / (x * y - 1)) ** 2 - y,
    ],
)
def test_polynomials_with_unnormalized_opaque_arguments_are_folded(make, monkeypatch):
    e = make(opaque("exp"), opaque("sin"))
    folds = _count_folds(monkeypatch)
    c = canonical(e)
    assert folds
    assert c == reference_canonical(e)
    assert canonical(c) == c


def test_sum_with_repeated_monomials_is_folded():
    e = sp.Add(x * y, x * y, sp.Integer(1), evaluate=False)
    assert canonical(e) == 2 * x * y + 1
    assert canonical(sp.Add(x, sp.Integer(-1), x, evaluate=False)) == 2 * x - 1


# ---------------------------------------------------------------------------
# derivatives: 0 by inspection when the variable is absent


@given(scalars_in_1_to_3_symbols(), st.sampled_from(SYMBOLS))
def test_diff_matches_sympy(e, v):
    assert diff(e, v) == sp.diff(e, v)


def test_diff_keeps_chain_rule_through_opaque_argument():
    exp, sin = opaque("exp"), opaque("sin")
    e = y * exp(x * y) + sin(exp(x))
    assert diff(e, x) == sp.diff(e, x)
    assert canonical(diff(e, x)) == canonical(y**2 * exp(x * y) + opaque("cos")(exp(x)) * exp(x))
    assert diff(e, u) == 0
    assert diff(sp.Integer(3), x) == 0


def test_diff_of_atoms():
    assert diff(sp.Integer(5), x) is sp.S.Zero
    assert diff(sp.Rational(-2, 3), x) is sp.S.Zero
    assert diff(x, x) is sp.S.One
    assert diff(y, x) is sp.S.Zero
    assert diff(7, x) is sp.S.Zero
    assert diff(sp.Symbol("x"), x) is sp.S.One
