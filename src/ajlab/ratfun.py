"""Rational functions over the exact Laurent-polynomial ring.

Canonical form: the denominator is an honest polynomial, integer-primitive
with positive leading coefficient and no monomial content — every rational,
sign, and monomial unit is pushed into the numerator, and the pair is
gcd-reduced.  Two equal rational functions are therefore structurally equal.
Every cancellation is one `poly.gcd_cofactors` call; nothing here divides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .errors import DomainError, PoleError
from .laurent import Immutable, LaurentMPoly, format_poly
from .poly import _Parser, gcd_cofactors, signed_content

Scalar = Union[int, Fraction]
RFLike = Union["RationalFunction", LaurentMPoly, int, Fraction]
_ONE = LaurentMPoly.const(1)


def as_ratfun(x: RFLike) -> "RationalFunction":
    """x as a rational function; a polynomial or a scalar goes over 1."""
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, LaurentMPoly):
        return RationalFunction(x, LaurentMPoly.const(1))
    if isinstance(x, (int, Fraction)):
        return RationalFunction(LaurentMPoly.const(x), LaurentMPoly.const(1))
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational function")


def _push_units(num: LaurentMPoly,
                den: LaurentMPoly) -> tuple[LaurentMPoly, LaurentMPoly]:
    """Move every unit of the denominator (monomial content, rational
    content, sign) onto the numerator, leaving the canonical denominator."""
    if den.terms == _ONE.terms:  # already canonical
        return num, den
    den_p, unit = den.clear_laurent()
    for v, m in unit.items():
        num = num.shift_var(v, -m)
    c = signed_content(den_p)
    if c != 1:
        den_p = den_p * (1 / c)
        num = num * (1 / c)
    return num, den_p


class RationalFunction(Immutable):
    """num / den with the canonical form described in the module docstring."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentMPoly, den: LaurentMPoly):
        if den.is_zero():
            raise DomainError("rational function with zero denominator")
        if not num.is_zero():
            _, num, den = gcd_cofactors(num, den)
        self._assemble(num, den)

    def _assemble(self, num: LaurentMPoly, den: LaurentMPoly) -> None:
        num, den = _push_units(num, den) if num else (num, _ONE)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num: LaurentMPoly,
                 den: LaurentMPoly) -> "RationalFunction":
        """Assemble from a pair already coprime up to units, skipping the
        expensive gcd; cross-cancellation in the arithmetic below keeps
        reduced operands reduced."""
        self = cls.__new__(cls)
        self._assemble(num, den)
        return self

    # -- constructors ------------------------------------------------------
    # each pair is coprime by construction, so none needs the gcd

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction._reduced(LaurentMPoly.zero(), _ONE)

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction._reduced(_ONE, _ONE)

    @staticmethod
    def var(name: str, power: int = 1) -> "RationalFunction":
        return RationalFunction._reduced(LaurentMPoly.var(name, power), _ONE)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == _ONE and self.den == _ONE

    def is_polynomial(self) -> bool:
        return self.den == _ONE

    def as_polynomial(self) -> LaurentMPoly:
        if not self.is_polynomial():
            raise DomainError(f"{self} is not a Laurent polynomial")
        return self.num

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise DomainError(f"{self} is not constant")
        return self.num.constant_value() / self.den.constant_value()

    def variables(self) -> tuple[str, ...]:
        merged = LaurentMPoly._merge_vars(self.num, self.den)
        return merged

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, LaurentMPoly)):
            other = as_ratfun(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial equals its numerator, so it must hash like it
        if self.is_polynomial():
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({format_ratfun(self)!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        # Henrici's scheme: with both operands reduced, the only factor the
        # sum can share with the common denominator divides gcd of the two
        # denominators, so the big-product gcd is never needed
        try:
            o = as_ratfun(other)
        except TypeError:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        g, db, dd = ((self.den, _ONE, _ONE) if self.den == o.den
                     else gcd_cofactors(self.den, o.den))
        t = self.num * dd + o.num * db
        if g.is_constant() or t.is_zero():
            return RationalFunction._reduced(t, db * dd)
        _, t, g = gcd_cofactors(t, g)
        return RationalFunction._reduced(t, db * dd * g)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        try:
            o = as_ratfun(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunction":
        # cross-cancellation: each numerator only shares factors with the
        # opposite denominator, and both of those gcds are small
        try:
            o = as_ratfun(other)
        except TypeError:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return RationalFunction.zero()
        _, n1, d2 = gcd_cofactors(self.num, o.den)
        _, n2, d1 = gcd_cofactors(o.num, self.den)
        return RationalFunction._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        try:
            o = as_ratfun(other)
        except TypeError:
            return NotImplemented
        if o.is_zero():
            raise DomainError("division by the zero rational function")
        return self * o.inverse()

    def __rtruediv__(self, other) -> "RationalFunction":
        return as_ratfun(other) / self

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise DomainError("inverse of the zero rational function")
        return RationalFunction._reduced(self.den, self.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            raise TypeError("rational-function power must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return RationalFunction.one()
        # powers of a reduced pair stay reduced
        return RationalFunction._reduced(self.num ** n, self.den ** n)

    # -- substitution and evaluation ---------------------------------------

    def subst(self, bindings: Mapping[str, RFLike]) -> "RationalFunction":
        """Substitute a monomial c * x^a, or a constant (zero included),
        for each bound variable; unbound variables stay symbolic.  Both
        sides go through one exponent map (`LaurentMPoly.subst_monomials`)
        and the pair is reduced once; a polynomial binding is used as it
        is.  Raises DomainError for any other binding, for a negative power
        of a variable bound to zero, and when the denominator vanishes
        under the substitution."""
        images = {}
        for v, x in bindings.items():
            if not isinstance(x, LaurentMPoly):
                f = as_ratfun(x)
                x = f.num if f.is_polynomial() else f
            if not isinstance(x, LaurentMPoly) or len(x.terms) > 1:
                raise DomainError(
                    f"{v} is bound to {format_ratfun(as_ratfun(x))}, "
                    "not a monomial")
            images[v] = x
        dn = self.den.subst_monomials(images)
        if dn.is_zero():
            names = ", ".join(sorted(set(self.den.vars) & set(images)))
            raise DomainError(
                f"denominator vanishes under the substitution of {names}")
        return RationalFunction(self.num.subst_monomials(images), dn)

    def eval_exact(self, point: Mapping[str, Scalar]) -> Fraction:
        d = self.den.eval_exact(point)
        if d == 0:
            raise PoleError(
                f"denominator {format_poly(self.den)} vanishes at the "
                "evaluation point")
        return self.num.eval_exact(point) / d

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        d = self.den.eval_complex(point)
        if d == 0:
            raise PoleError(
                f"denominator {format_poly(self.den)} vanishes at the "
                "evaluation point")
        return self.num.eval_complex(point) / d


# -- parsing and formatting ------------------------------------------------

class _RatfunParser(_Parser):
    """Polynomial text in which '/' and a negative power may divide by any
    nonzero polynomial or quotient."""

    def divide(self, acc, d):
        return as_ratfun(acc) / d

    def power(self, base, k: int):
        quotient = isinstance(base, RationalFunction)
        if quotient or (k < 0 and len(base.terms) > 1):
            return as_ratfun(base) ** k
        return super().power(base, k)


def parse_ratfun(num: str, den: str = "1") -> RationalFunction:
    """The reduced quotient of two texts, each read as by `parse_poly`
    except that '/' and a negative power may divide by a polynomial; so
    the text `format_ratfun` writes, "(num) / (den)", reads back."""
    n = _RatfunParser(num).parse_all()
    d = _RatfunParser(den).parse_all()
    if isinstance(n, LaurentMPoly) and isinstance(d, LaurentMPoly):
        return RationalFunction(n, d)
    return as_ratfun(n) / d


def format_ratfun(f: RationalFunction) -> str:
    if f.is_polynomial():
        return format_poly(f.num)
    num = format_poly(f.num)
    den = format_poly(f.den)
    if len(f.num.terms) > 1:
        num = f"({num})"
    if len(f.den.terms) > 1:
        den = f"({den})"
    return f"{num} / {den}"
