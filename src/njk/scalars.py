"""Exact symbolic scalars: parsing, calculus, canonical forms, zero testing.

Scalars are sympy expressions built from exact rationals, interned
variables, +, -, *, /, integer powers and applications of *registered
opaque function symbols*.  Decimal literals are read as exact rationals
(0.5 means 1/2); floats never enter the system.

Grammar (EBNF, also documented in the README):

    expr     = term { ("+" | "-") term } ;
    term     = unary { ("*" | "/") unary } ;
    unary    = { "+" | "-" } power ;
    power    = atom [ "^" exponent ] ;
    exponent = [ "-" ] INTEGER | "(" [ "-" ] INTEGER ")" ;
    atom     = NUMBER | NAME | NAME "(" expr { "," expr } ")" | "(" expr ")" ;
    NUMBER   = digits [ "." digits ] ;
    NAME     = letter_or_underscore { letter_or_digit_or_underscore } ;

The canonical form is computed in sympy's sparse ring QQ[generators],
the generators being the variables and the opaque applications (keyed by
their canonicalized arguments): an expression is folded into a
numerator/denominator pair, cancelled once, and normalized so that the
denominator's grevlex leading coefficient is 1.  Each monomial of the
expression becomes one ring term, built from its exponent tuple, and the
monomial terms of a sum are added in one dictionary.  An expanded
polynomial is already its own canonical form: the pass that collects the
generators recognizes it, and it is returned unchanged, without a ring.  A
derivative is 0 by inspection for a number or for an expression without
the variable, and 1 or 0 for a symbol.

Zero testing is tiered: expressions whose canonical form is free of
opaque applications are decided exactly (ProvedZero / ProvedNonzero);
everything else is sampled at random rational points and the verdict
records that it was sampled.  The two tiers are never silently mixed.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import mpmath
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.orderings import grevlex
from sympy.polys.rings import PolyElement, PolyRing

Scalar = sp.Expr


class OpaqueApplied(sp.Function):
    """Base class for applications of registered opaque function symbols."""

ZERO = sp.Integer(0)
ONE = sp.Integer(1)


# ---------------------------------------------------------------------------
# errors


class ExprError(ValueError):
    """Base error for expression parsing, with a byte offset into the text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SyntaxErrorWithOffset(ExprError):
    pass


class UnknownFunctionError(ExprError):
    pass


class NonIntegerExponentError(ExprError):
    pass


class EvaluationError(Exception):
    """Numeric evaluation failed (domain error, missing evaluator, ...)."""


# ---------------------------------------------------------------------------
# variable interner (concurrent reads, serialized writes)

_VARS: dict[str, sp.Symbol] = {}
_VARS_LOCK = threading.Lock()


def var(name: str | sp.Symbol) -> sp.Symbol:
    """Intern a variable name, always returning the same Symbol object."""
    if isinstance(name, sp.Symbol):
        return name
    sym = _VARS.get(name)
    if sym is None:
        with _VARS_LOCK:
            sym = _VARS.get(name)
            if sym is None:
                sym = sp.Symbol(name)
                _VARS[name] = sym
    return sym


# ---------------------------------------------------------------------------
# opaque function symbols


@dataclass(frozen=True)
class OpaqueSymbol:
    """A registered opaque function symbol.

    ``derivatives[i]`` is the partial derivative with respect to argument
    slot i, written as an expression in the placeholder symbols produced
    by :func:`slot`; it may only mention registered opaque symbols.
    ``evaluator`` maps mpmath arguments to an mpmath value, at whatever
    working precision is active.
    """

    name: str
    arity: int
    derivatives: tuple[Scalar, ...]
    evaluator: Callable | None = None


_OPAQUE: dict[str, OpaqueSymbol] = {}
_OPAQUE_CLASSES: dict[str, type] = {}
_OPAQUE_LOCK = threading.Lock()


def slot(i: int) -> sp.Symbol:
    """Placeholder symbol for argument slot i (1-based) in derivative rules."""
    return sp.Symbol(f"__arg{i}__")


def _opaque_fdiff(self, argindex=1):
    spec = _OPAQUE[type(self).__name__]
    template = spec.derivatives[argindex - 1]
    repl = {slot(i + 1): a for i, a in enumerate(self.args)}
    return template.xreplace(repl)


def register_opaque(
    name: str,
    arity: int,
    derivatives: Sequence[Scalar | str],
    evaluator: Callable | None = None,
) -> OpaqueSymbol:
    """Register (or re-register) an opaque function symbol.

    Derivative rules may be given as strings in the expression grammar,
    using $1 .. $k for the argument slots.  Re-registration with a
    different arity is rejected because existing expressions would become
    ambiguous.
    """
    if len(derivatives) != arity:
        raise ValueError(f"{name}: need {arity} derivative rules, got {len(derivatives)}")
    with _OPAQUE_LOCK:
        existing = _OPAQUE.get(name)
        if existing is not None and existing.arity != arity:
            raise ValueError(f"{name} already registered with arity {existing.arity}")
        if name not in _OPAQUE_CLASSES:
            cls = type(name, (OpaqueApplied,), {"fdiff": _opaque_fdiff})
            _OPAQUE_CLASSES[name] = cls
        # placeholder spec so the rules below can mention the symbol itself
        _OPAQUE.setdefault(name, OpaqueSymbol(name, arity, (ZERO,) * arity, evaluator))
    parsed = []
    for rule in derivatives:
        if isinstance(rule, str):
            for i in range(arity, 0, -1):
                rule = rule.replace(f"${i}", str(slot(i)))
            rule = parse(rule)
        parsed.append(sp.sympify(rule))
    spec = OpaqueSymbol(name, arity, tuple(parsed), evaluator)
    with _OPAQUE_LOCK:
        _OPAQUE[name] = spec
    return spec


def opaque(name: str) -> type:
    """The sympy function class for a registered opaque symbol."""
    try:
        return _OPAQUE_CLASSES[name]
    except KeyError:
        raise KeyError(f"unknown opaque symbol {name!r}") from None


def is_registered(name: str) -> bool:
    return name in _OPAQUE


_BUILTIN_RULES = {
    "exp": (1, ["exp($1)"], mpmath.exp),
    "log": (1, ["1/$1"], mpmath.log),
    "sin": (1, ["cos($1)"], mpmath.sin),
    "cos": (1, ["0 - sin($1)"], mpmath.cos),
}


def register_builtin(name: str) -> OpaqueSymbol:
    """Register one of the stock opaque symbols (exp, log, sin, cos)."""
    if name not in _BUILTIN_RULES:
        raise KeyError(f"no builtin opaque symbol {name!r}")
    arity, rules, ev = _BUILTIN_RULES[name]
    if name == "cos" and not is_registered("sin"):
        register_builtin("sin")
    if name == "sin" and not is_registered("cos"):
        # sin and cos reference each other; seed cos first without rules
        with _OPAQUE_LOCK:
            if "cos" not in _OPAQUE_CLASSES:
                _OPAQUE_CLASSES["cos"] = type("cos", (OpaqueApplied,), {"fdiff": _opaque_fdiff})
            _OPAQUE.setdefault("cos", OpaqueSymbol("cos", 1, (ZERO,), mpmath.cos))
    return register_opaque(name, arity, rules, ev)


# ---------------------------------------------------------------------------
# parser


_TOKEN_OPS = {"+", "-", "*", "/", "^", "(", ")", ","}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise SyntaxErrorWithOffset(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, off = self.next()
        if kind != "op" or val != value:
            raise SyntaxErrorWithOffset(f"expected {value!r}, found {val!r}", off)

    def parse_expr(self) -> Scalar:
        e = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.next()
                rhs = self.parse_term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def parse_term(self) -> Scalar:
        e = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("*", "/"):
                self.next()
                rhs = self.parse_unary()
                e = e * rhs if val == "*" else e / rhs
            else:
                return e

    def parse_unary(self) -> Scalar:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        e = self.parse_power()
        return -e if sign < 0 else e

    def parse_power(self) -> Scalar:
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent = self.parse_exponent()
            return base**exponent
        return base

    def parse_exponent(self) -> sp.Integer:
        kind, val, off = self.peek()
        paren = kind == "op" and val == "("
        if paren:
            self.next()
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        kind, val, off = self.next()
        if kind != "num":
            raise SyntaxErrorWithOffset("expected integer exponent", off)
        if "." in val:
            raise NonIntegerExponentError(f"non-integer exponent {val}", off)
        if paren:
            self.expect(")")
        return sp.Integer(sign * int(val))

    def parse_atom(self) -> Scalar:
        kind, val, off = self.next()
        if kind == "num":
            if "." in val:
                return sp.Rational(Fraction(val))
            return sp.Integer(int(val))
        if kind == "name":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if not is_registered(val):
                    raise UnknownFunctionError(f"unknown function symbol {val!r}", off)
                self.next()
                args = [self.parse_expr()]
                while True:
                    kind2, val2, off2 = self.next()
                    if kind2 == "op" and val2 == ",":
                        args.append(self.parse_expr())
                    elif kind2 == "op" and val2 == ")":
                        break
                    else:
                        raise SyntaxErrorWithOffset("expected ',' or ')'", off2)
                spec = _OPAQUE[val]
                if len(args) != spec.arity:
                    raise SyntaxErrorWithOffset(
                        f"{val} takes {spec.arity} argument(s), got {len(args)}", off
                    )
                return opaque(val)(*args)
            return var(val)
        if kind == "op" and val == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        raise SyntaxErrorWithOffset(f"unexpected token {val!r}", off)


def parse(text: str) -> Scalar:
    """Parse an expression in the grammar documented in the module docstring."""
    p = _Parser(text)
    e = p.parse_expr()
    kind, val, off = p.peek()
    if kind != "end":
        raise SyntaxErrorWithOffset(f"trailing input {val!r}", off)
    return e


def to_text(e: Scalar) -> str:
    """Print a Scalar so that parse(to_text(e)) == e up to canonical form."""
    return str(sp.sympify(e)).replace("**", "^")


# ---------------------------------------------------------------------------
# calculus


def diff(e: Scalar, v: sp.Symbol) -> Scalar:
    """Partial derivative, not canonicalized.  It is 0 by inspection for a
    number (Python ints included) and when ``v`` does not occur in ``e``
    (also not inside an opaque argument), 1 or 0 for a symbol; otherwise
    sympy differentiates, opaque symbols by their rules."""
    if getattr(e, "is_Number", True):
        return ZERO
    if e.is_Symbol:
        return ONE if e == v else ZERO
    if v not in e.free_symbols:
        return ZERO
    return sp.diff(e, v)


def differentiate(e: Scalar, v: str | sp.Symbol) -> Scalar:
    """Partial derivative, canonicalized.  Opaque symbols use their rules."""
    return canonical(diff(sp.sympify(e), var(v)))


def substitute(e: Scalar, bindings: Mapping[str | sp.Symbol, Scalar]) -> Scalar:
    """Simultaneous substitution of variables, then canonicalization."""
    repl = {var(k): sp.sympify(v) for k, v in bindings.items()}
    return canonical(sp.sympify(e).xreplace(repl))


# ---------------------------------------------------------------------------
# canonical form

_GENS_ORDER = sp.core.sorting.default_sort_key


@lru_cache(maxsize=1024)
def _ring(gens: tuple) -> PolyRing:
    """QQ[gens]; memoised because building a ring code-generates its
    monomial operations.  Rings hold no scalar results."""
    return PolyRing(gens, QQ)


# How far an expression is an expanded polynomial, from the most special
# class to none; each class is contained in the ones below it.
_GENERATOR, _POWER, _MONOMIAL, _SUM, _OTHER = range(5)


def _scan(e: Scalar, out: dict) -> int:
    """Map each symbol and opaque application of ``e`` to its generator in
    ``out`` (the symbol itself, or the application with canonicalized
    arguments), and classify ``e`` in the same pass:

    - _GENERATOR: a symbol, or an opaque application equal to its
      generator (its arguments are their own canonical forms);
    - _POWER: a generator or a positive integer power of one;
    - _MONOMIAL: a Rational, a power, or a product of powers with an
      optional leading Rational;
    - _SUM: a monomial, or a sum of monomials with distinct powers;
    - _OTHER: anything else.
    """
    if e.is_Symbol:
        out[e] = e
        return _GENERATOR
    if isinstance(e, OpaqueApplied):
        g = out[e] = type(e)(*[canonical(a) for a in e.args])
        return _GENERATOR if g == e else _OTHER
    if e.is_Rational:
        return _MONOMIAL
    kinds = [_scan(a, out) for a in e.args]
    if e.is_Pow:
        ok = kinds[0] == _GENERATOR and e.exp.is_Integer and e.exp.p > 0
        return _POWER if ok else _OTHER
    if e.is_Mul:
        if e.args[0].is_Rational:
            kinds[0] = _POWER  # the leading coefficient
        return _MONOMIAL if max(kinds) <= _POWER else _OTHER
    if e.is_Add and max(kinds) <= _MONOMIAL:
        powers = {_powers(a) for a in e.args}
        return _SUM if len(powers) == len(e.args) else _OTHER
    return _OTHER


def _powers(e: Scalar) -> tuple:
    """The factors of the monomial ``e`` other than its Rational."""
    if e.is_Rational:
        return ()
    if not e.is_Mul:
        return (e,)
    return e.args[1:] if e.args[0].is_Rational else e.args


def _split(e: Scalar, index: dict, ngens: int) -> tuple[tuple, object, list]:
    """Split the product ``e`` (or the single factor ``e``) into the ring
    term of its generator powers and rational factors, as (exponent tuple,
    coefficient), and the list of its other factors."""
    exps = [0] * ngens
    coeff = QQ.one
    rest = []
    for f in e.args if e.is_Mul else (e,):
        if f.is_Rational:
            coeff *= QQ(f.p, f.q)
        elif f.is_Symbol or isinstance(f, OpaqueApplied):
            exps[index[f]] += 1
        elif (f.is_Pow and f.exp.is_Integer and f.exp.p > 0
              and (f.base.is_Symbol or isinstance(f.base, OpaqueApplied))):
            exps[index[f.base]] += f.exp.p
        else:
            rest.append(f)
    return tuple(exps), coeff, rest


def _fold(e: Scalar, ring: PolyRing, index: dict) -> tuple[PolyElement, PolyElement]:
    """``e`` as an uncancelled (numerator, denominator) pair in ``ring``;
    ``index`` maps each leaf to the position of its generator."""
    if e.is_Add:
        terms: dict = {}
        num, den = ring.zero, ring.one
        for a in e.args:
            monom, coeff, rest = _split(a, index, ring.ngens)
            if not rest:
                terms[monom] = terms.get(monom, QQ.zero) + coeff
                continue
            n, d = _fold(a, ring, index)
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        poly = ring.dtype({m: c for m, c in terms.items() if c})
        return num + (poly if den.is_one else poly * den), den
    monom, coeff, rest = _split(e, index, ring.ngens)
    num, den = ring.dtype({monom: coeff} if coeff else ()), ring.one
    for f in rest:
        if f.is_Add:
            n, d = _fold(f, ring, index)
        elif f.is_Pow and f.exp.is_Integer:
            n, d = _fold(f.base, ring, index)
            k = int(f.exp)
            if k < 0:
                if not n:
                    raise ZeroDivisionError(f"canonical: {f.base} vanishes identically")
                n, d, k = d, n, -k
            n, d = n**k, d**k
        else:
            what = "non-integer Pow" if f.is_Pow else type(f).__name__
            raise TypeError(f"canonical: {what} is outside the scalar grammar: {f}")
        num, den = num * n, den * d
    return num, den


def canonical(e: Scalar) -> Scalar:
    """Rational normal form: expanded coprime numerator/denominator over a
    fixed generator order, with the denominator's grevlex leading
    coefficient 1.

    One pass over ``e`` collects its generators: the symbols and the
    opaque applications, keyed by their canonicalized arguments.  The same
    pass recognizes an expanded polynomial, which is returned unchanged:
    a Rational, a monomial (an optional leading Rational times positive
    integer powers of normal generators), or a sum of monomials with
    distinct generator powers.  A normal generator is a symbol, or an
    opaque application whose arguments are their own canonical forms.
    sympy's Add and Mul have already collected like terms and factors and
    ordered them, so such an expression is exactly what the fold below
    would build from it.

    Anything else is folded, over the generators sorted by
    ``default_sort_key``.  The expression is folded into a
    numerator/denominator pair in sympy's sparse ring QQ[generators]: each
    monomial becomes one ring term and the monomial terms of a sum are
    added in one dictionary; only the other parts (sums inside products,
    integer powers of sums, negative powers) use ring multiplication.  The
    pair is cancelled once, at the end (not at all when the denominator is
    a constant).  Any node outside the scalar grammar, such as a Float or
    a non-integer power, raises TypeError.
    """
    e = sp.sympify(e)
    if e.is_Rational or e.is_Symbol:
        return e
    leaves: dict = {}
    if _scan(e, leaves) <= _SUM:
        return e
    gens = tuple(sorted(set(leaves.values()), key=_GENS_ORDER))
    ring = _ring(gens)
    position = {g: i for i, g in enumerate(gens)}
    num, den = _fold(e, ring, {k: position[v] for k, v in leaves.items()})
    if not num:
        return ZERO
    if not den.is_ground:
        num, den = num.cancel(den)
    lead = den[max(den, key=grevlex)]
    num, den = num.quo_ground(lead), den.quo_ground(lead)
    if den.is_one:
        return num.as_expr()
    return num.as_expr() / den.as_expr()


# ---------------------------------------------------------------------------
# zero decision


@dataclass(frozen=True)
class Config:
    """Controls for the zero-decision procedure.

    mode: "auto" decides exactly on the rational fragment and samples
    otherwise; "exact" never samples (non-rational input gives Unknown);
    "sample" always samples.
    """

    mode: str = "auto"
    samples: int = 20
    tol: float = 1e-9
    seed: int = 0
    precision: int = 100
    max_redraws: int = 1000
    bound: int = 12

    def rng(self) -> random.Random:
        return random.Random(self.seed)


DEFAULT_CONFIG = Config()


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a zero test; the verdict always names its mode."""

    verdict: str  # ProvedZero | ProvedNonzero | SampledZero | SampledNonzero | Unknown
    mode: str  # exact | sample
    n_points: int = 0
    tolerance: float = 0.0
    witness: tuple[tuple[str, str], ...] = ()
    value: str = ""
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict in ("ProvedZero", "SampledZero")

    @property
    def decided(self) -> bool:
        return self.verdict != "Unknown"

    def __str__(self) -> str:
        extra = ""
        if self.verdict == "SampledZero":
            extra = f" (n={self.n_points}, tol={self.tolerance:g})"
        elif self.verdict == "SampledNonzero":
            point = ", ".join(f"{k}={v}" for k, v in self.witness)
            extra = f" (at {point}: {self.value})"
        elif self.note:
            extra = f" ({self.note})"
        return f"{self.verdict}[{self.mode}]{extra}"


def proved_zero() -> VerificationResult:
    return VerificationResult("ProvedZero", "exact")


def proved_nonzero(note: str = "") -> VerificationResult:
    return VerificationResult("ProvedNonzero", "exact", note=note)


def _evaluate(e: Scalar, point: Mapping[sp.Symbol, Fraction], prec: int):
    """Evaluate numerically with mpmath at the given binary precision."""
    with mpmath.workprec(prec):
        return _eval_node(e, point)


def _eval_node(e: Scalar, point):
    if e.is_Integer:
        return mpmath.mpf(int(e))
    if e.is_Rational:
        return mpmath.mpf(e.p) / mpmath.mpf(e.q)
    if e.is_Symbol:
        try:
            f = point[e]
        except KeyError:
            raise EvaluationError(f"unbound variable {e}") from None
        return mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)
    if isinstance(e, OpaqueApplied):
        spec = _OPAQUE.get(type(e).__name__)
        if spec is None or spec.evaluator is None:
            raise EvaluationError(f"no numeric evaluator for {type(e).__name__}")
        args = [_eval_node(a, point) for a in e.args]
        try:
            v = spec.evaluator(*args)
        except (ValueError, ZeroDivisionError, mpmath.libmp.libhyper.NoConvergence) as exc:
            raise EvaluationError(str(exc)) from exc
        if isinstance(v, mpmath.mpc):
            raise EvaluationError(f"{type(e).__name__} left the real domain")
        return v
    if e.is_Add:
        return mpmath.fsum(_eval_node(a, point) for a in e.args)
    if e.is_Mul:
        out = mpmath.mpf(1)
        for a in e.args:
            out *= _eval_node(a, point)
        return out
    if e.is_Pow:
        base = _eval_node(e.base, point)
        if e.exp.is_Integer:
            k = int(e.exp)
            if k < 0 and base == 0:
                raise EvaluationError("pole: zero base with negative exponent")
            return base**k
        return base ** _eval_node(e.exp, point)
    raise EvaluationError(f"cannot evaluate node {type(e).__name__}")


def _sample_point(rng: random.Random, symbols, bound: int):
    return {
        s: Fraction(rng.randint(-2 * bound, 2 * bound), rng.randint(1, bound))
        for s in symbols
    }


def is_zero(e: Scalar, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    """Decide whether a Scalar is identically zero.

    Exact on the rational fragment via the canonical form; otherwise the
    expression is sampled at ``config.samples`` random rational points
    (poles rejected and redrawn) and compared against the tolerance at the
    configured precision.
    """
    c = canonical(e)
    rational = not c.atoms(OpaqueApplied)
    if rational and config.mode in ("auto", "exact"):
        if c == 0:
            return proved_zero()
        witness = str(c)
        if len(witness) > 80:
            witness = witness[:77] + "..."
        return proved_nonzero(f"canonical form {witness}")
    if config.mode == "exact":
        return VerificationResult(
            "Unknown", "exact", note="outside the rational fragment; exact mode declined"
        )

    num, den = sp.fraction(c)
    symbols = sorted(c.atoms(sp.Symbol), key=lambda s: s.name)
    rng = config.rng()
    pole_eps = mpmath.mpf(2) ** (-config.precision // 2)
    n_done = 0
    redraws = 0
    target = config.samples if symbols else 1
    while n_done < target:
        point = _sample_point(rng, symbols, config.bound)
        try:
            dv = _evaluate(den, point, config.precision)
            if abs(dv) < pole_eps:
                raise EvaluationError("pole: denominator vanished")
            nv = _evaluate(num, point, config.precision)
            v = nv / dv
        except EvaluationError as exc:
            if "no numeric evaluator" in str(exc):
                return VerificationResult("Unknown", "sample", note=str(exc))
            redraws += 1
            if redraws > config.max_redraws:
                return VerificationResult(
                    "Unknown", "sample", note=f"exceeded {config.max_redraws} redraws"
                )
            continue
        if abs(v) > config.tol:
            witness = tuple((s.name, str(point[s])) for s in symbols)
            return VerificationResult(
                "SampledNonzero",
                "sample",
                n_points=n_done + 1,
                tolerance=config.tol,
                witness=witness,
                value=mpmath.nstr(v, 12),
            )
        n_done += 1
    return VerificationResult(
        "SampledZero", "sample", n_points=n_done, tolerance=config.tol
    )


def equal(a: Scalar, b: Scalar, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    """Zero test of the difference a - b."""
    return is_zero(sp.sympify(a) - sp.sympify(b), config)


def combine_results(results: Iterable[VerificationResult]) -> VerificationResult:
    """Fold entrywise zero tests into one verdict.

    The first failure wins (its witness is kept); otherwise Unknown beats a
    pass; a pass is exact only when every entry was decided exactly.
    """
    results = list(results)
    if not results:
        return proved_zero()
    for r in results:
        if r.decided and not r.holds:
            return r
    for r in results:
        if not r.decided:
            return r
    sampled = [r for r in results if r.mode == "sample"]
    if sampled:
        return VerificationResult(
            "SampledZero",
            "sample",
            n_points=min(r.n_points for r in sampled),
            tolerance=max(r.tolerance for r in sampled),
        )
    return proved_zero()
