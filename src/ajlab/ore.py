"""Skew (Ore) operators in one shift plus auxiliary lattice shifts.

An operator lives in the algebra generated over the rational-function
field by a principal shift ``E`` and auxiliary shifts ``Et1..Etnu``, with
the meridian coordinate ``Q`` and lattice coordinates ``Qt1..Qtnu``.  The
only non-commutativity is

    E * Q     = q * Q * E
    Eti * Qti = q * Qti * Eti          (everything else commutes)

Multiplication therefore acts on coefficient monomials as a pure shift of
the q-exponent, which keeps every operation exact.

Operators act on sequences, plain functions ``f(point, q) -> Fraction`` of
an integer point ``(n, k1..knu)``.  ``E`` advances ``n`` by one, ``Eti``
advances ``ki`` by one, ``Q`` evaluates to ``q**n`` and ``Qti`` to ``q**ki``.

``epsilon_eval_with_unit`` takes the q -> 1 limit of a lattice-free
operator and fixes its scale with ``poly.signed_content``, the summand
side's sign/content rule (``elim``), so both curves meet one convention.
Its coefficients, unlike a summand's shift ratios, can vanish at q = 1, so
``limit_at_one`` reads each one's order there and lowest Taylor coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Callable, Mapping, Sequence, Union

from .errors import DomainError, PoleError
from .laurent import Coeff, Immutable, LaurentMPoly
from .poly import exact_divide, poly_lcm, signed_content
from .qhg import _int_point, _rational_q
from .ratfun import RationalFunction, as_ratfun, format_ratfun

RFLike = Union[RationalFunction, LaurentMPoly, int, Fraction]
SequenceFn = Callable[[tuple[int, ...], Fraction], Fraction]


def _lattice_var(i: int) -> str:
    return f"Qt{i}"


class OreOperator(Immutable):
    """Finite sum  sum_e  c_e(q, Q, Qt*) * E^e0 * Et1^e1 ... Etnu^enu."""

    __slots__ = ("nu", "terms")

    def __init__(self, nu: int, terms: Mapping[Sequence[int], RFLike]):
        if nu < 0:
            raise DomainError("negative number of lattice directions")
        allowed = {"q", "Q"} | {_lattice_var(i + 1) for i in range(nu)}
        clean: dict[tuple[int, ...], RationalFunction] = {}
        for exp, c in terms.items():
            try:  # 1.5, and also 2.0 or Fraction(4), is refused
                exp = tuple(map(index, exp))
            except TypeError:
                raise DomainError(
                    f"shift exponent {exp!r} has a non-integer entry") from None
            if len(exp) != nu + 1:
                raise DomainError(
                    f"shift exponent {exp} does not match nu={nu}")
            c = as_ratfun(c)
            bad = set(c.variables()) - allowed
            if bad:
                raise DomainError(
                    f"coefficient uses {sorted(bad)}; allowed symbols here "
                    f"are {sorted(allowed)}")
            if c.is_zero():
                continue
            if exp in clean:
                c = clean[exp] + c
                if c.is_zero():
                    del clean[exp]
                    continue
            clean[exp] = c
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(c: RFLike, nu: int = 0) -> "OreOperator":
        return OreOperator(nu, {(0,) * (nu + 1): c})

    @staticmethod
    def shift(which: int = 0, nu: int = 0) -> "OreOperator":
        """The shift generator: which=0 is E, which=i>0 is Eti."""
        if not 0 <= which <= nu:
            raise DomainError(f"no shift index {which} with nu={nu}")
        e = [0] * (nu + 1)
        e[which] = 1
        return OreOperator(nu, {tuple(e): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def e_degree(self) -> int:
        return max((e[0] for e in self.terms), default=-1)

    def lattice_free(self) -> bool:
        qt = {_lattice_var(i + 1) for i in range(self.nu)}
        return (not any(any(e[1:]) for e in self.terms)
                and not any(set(c.variables()) & qt
                            for c in self.terms.values()))

    def _compatible(self, other: "OreOperator") -> None:
        if self.nu != other.nu:
            raise DomainError(
                f"operator algebras differ (nu {self.nu}/{other.nu})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, OreOperator):
            return NotImplemented
        return self.nu == other.nu and self.terms == other.terms

    def __hash__(self):
        return hash((self.nu, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"OreOperator({format_operator(self)!r})"

    # -- additive structure ------------------------------------------------

    def __add__(self, other) -> "OreOperator":
        if isinstance(other, (int, Fraction, LaurentMPoly, RationalFunction)):
            other = OreOperator.scalar(other, self.nu)
        if not isinstance(other, OreOperator):
            return NotImplemented
        self._compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return OreOperator(self.nu, terms)

    __radd__ = __add__

    def __neg__(self) -> "OreOperator":
        return OreOperator(self.nu, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "OreOperator":
        if isinstance(other, (int, Fraction, LaurentMPoly, RationalFunction)):
            other = OreOperator.scalar(other, self.nu)
        if not isinstance(other, OreOperator):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "OreOperator":
        return (-self) + other

    def scale(self, c: RFLike) -> "OreOperator":
        """Left-multiply by a coefficient (no shifts involved)."""
        c = as_ratfun(c)
        return OreOperator(self.nu, {e: c * v for e, v in self.terms.items()})


def _twist_images(shift_exp: tuple[int, ...]) -> dict[str, LaurentMPoly]:
    """The substitution that pushes the shift monomial E^e0*Et^e past a
    coefficient: Q goes to Q*q^e0 and each Qti to Qti*q^ei."""
    shifts = {"Q": shift_exp[0]}
    shifts.update((_lattice_var(i), k) for i, k in enumerate(shift_exp[1:], 1))
    return {v: LaurentMPoly.monomial(1, {v: 1, "q": k})
            for v, k in shifts.items() if k}


def _twist_rf(c: RationalFunction,
              images: Mapping[str, LaurentMPoly]) -> RationalFunction:
    """c under `_twist_images`.  v -> v*q^k is an automorphism of the
    Laurent ring, so the reduced pair stays reduced; only its units move."""
    if not images:
        return c
    return RationalFunction._reduced(c.num.subst_monomials(images),
                                     c.den.subst_monomials(images))


def ore_mul(a: OreOperator, b: OreOperator) -> OreOperator:
    """Noncommutative product; both sides need the same nu."""
    a._compatible(b)
    out: dict[tuple[int, ...], RationalFunction] = {}
    for ea, ca in a.terms.items():
        images = _twist_images(ea)
        for eb, cb in b.terms.items():
            c = ca * _twist_rf(cb, images)
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e)
            nc = c if s is None else s + c
            if nc.is_zero():
                out.pop(e, None)
            else:
                out[e] = nc
    return OreOperator(a.nu, out)


# -- action on sequences ---------------------------------------------------

def ore_apply(p: OreOperator, f: SequenceFn, point: Sequence[int],
              qval: Union[int, Fraction]) -> Fraction:
    """Apply the operator to the sequence f at an integer point, exactly."""
    point = _int_point(point)
    if len(point) != p.nu + 1:
        raise DomainError(
            f"point {point} does not match operator with nu={p.nu}")
    qval = _rational_q(qval)
    values = {"Q": qval ** point[0], "q": qval}
    values.update((_lattice_var(i), qval ** k)
                  for i, k in enumerate(point[1:], 1))
    total = Fraction(0)
    for e, c in p.terms.items():
        try:
            cv = c.eval_exact(values)
        except PoleError as exc:
            raise PoleError(
                f"coefficient of shift {e} has a pole at q={qval}, "
                f"point {point}: {exc}") from exc
        if cv == 0:
            continue
        shifted = tuple(x + d for x, d in zip(point, e))
        total += cv * f(shifted, qval)
    return total


# -- telescoping-certificate structure -------------------------------------

def expand_at_one(p: OreOperator) -> tuple[OreOperator, list[OreOperator]]:
    """Split  p = p0 + sum_i (Eti - 1) * r_i  with p0 free of lattice
    shifts and r_i involving only Etj with j >= i.

    Requires coefficients free of the lattice coordinates Qt*, which makes
    every Eti central; the split is then iterated exact division by
    (Eti - 1).  The reconstruction is asserted internally.
    """
    qt = {_lattice_var(i + 1) for i in range(p.nu)}
    for e, c in p.terms.items():
        if set(c.variables()) & qt:
            raise DomainError(
                "lattice-coordinate coefficients: the centred split "
                f"needs Qt-free coefficients, got {format_ratfun(c)} "
                f"at shift {e}")
    current, zero = p, RationalFunction.zero()
    rs: list[OreOperator] = []
    for i in range(1, p.nu + 1):
        # group by the Eti exponent:  sum_k  A_k * Eti^k
        at_one: dict[tuple[int, ...], RationalFunction] = {}
        quot: dict[tuple[int, ...], RationalFunction] = {}
        for e, c in current.terms.items():
            k = e[i]
            base = e[:i] + (0,) + e[i + 1:]
            at_one[base] = at_one.get(base, zero) + c
            # (x^k - 1)/(x - 1) = x^(k-1) + ... + 1; for k < 0 it is
            # -(x^k + ... + x^-1)
            for j in range(k) if k > 0 else range(k, 0):
                key = e[:i] + (j,) + e[i + 1:]
                quot[key] = quot.get(key, zero) + (c if k > 0 else -c)
        current = OreOperator(p.nu, at_one)
        rs.append(OreOperator(p.nu, quot))
    p0 = current
    # exact reconstruction check
    acc = p0
    for i, r in enumerate(rs, start=1):
        eti = OreOperator.shift(i, p.nu)
        one = OreOperator.scalar(1, p.nu)
        acc = acc + ore_mul(eti - one, r)
    if acc != p:
        raise DomainError("internal: centred split failed to reconstruct")
    return p0, rs


# -- q -> 1 limit ----------------------------------------------------------

def _binom(n: int, j: int) -> int:
    """n(n-1)...(n-j+1)/j!, for negative n too."""
    return math.comb(n, j) if n >= 0 else (-1) ** j * math.comb(j - n - 1, j)


def limit_at_one(p: LaurentMPoly) -> tuple[int, LaurentMPoly]:
    """(k, c) with p = (q - 1)^k * u and c = u at q = 1, nonzero and free
    of q; the other variables, Laurent powers included, are kept.

    c is the lowest nonzero Taylor coefficient of p at q = 1.  The j-th one
    is the sum of c_e * binom(e_q, j) over the terms, with the binomial
    generalized to negative exponents, so powers of q need no clearing.
    p = q^a * P with P a polynomial of degree d vanishes to order at most
    d, so the search ends.
    """
    if p.is_zero():
        raise DomainError("limit at q = 1 of the zero polynomial")
    if "q" not in p.vars:
        return 0, p
    i = p.vars.index("q")
    rest = p.vars[:i] + p.vars[i + 1:]
    split = [(e[i], e[:i] + e[i + 1:], c) for e, c in p.terms.items()]
    k = 0
    while True:
        out: dict[tuple[int, ...], Coeff] = {}
        for ev, key, c in split:
            b = _binom(ev, k)
            if b:
                out[key] = out.get(key, 0) + c * b
        coeff = LaurentMPoly._build(rest, out)
        if coeff:
            return k, coeff
        k += 1


def epsilon_eval_with_unit(p: OreOperator) -> tuple[LaurentMPoly, RationalFunction]:
    """q -> 1 limit of the operator after clearing the common vanishing
    scale, returned as a primitive integer polynomial in (Q, E) together
    with the extracted Q-dependent unit.

    The input must be free of lattice shifts and coordinates.  Writing each
    coefficient as (q-1)^v * u with u finite and nonzero at q = 1, the
    minimal v sets the scale; coefficients above it vanish in the limit.
    The primitive polynomial times the unit equals the literal limit.
    """
    if not p.lattice_free():
        raise DomainError("limit at q = 1 needs a lattice-free operator")
    if p.is_zero():
        raise DomainError("limit of the zero operator")
    vals: dict[int, tuple[int, RationalFunction]] = {}
    for e, c in p.terms.items():
        vn, ln = limit_at_one(c.num)
        vd, ld = limit_at_one(c.den)
        vals[e[0]] = (vn - vd, RationalFunction(ln, ld))
    mu = min(v for v, _ in vals.values())
    coeffs = {k: u for k, (v, u) in vals.items() if v == mu}
    # clear denominators and content -> primitive integer polynomial
    den = LaurentMPoly.const(1)
    for u in coeffs.values():
        den = poly_lcm(den, u.den)
    poly = LaurentMPoly.zero()
    for k, u in coeffs.items():
        term = u.num * exact_divide(den, u.den)
        poly = poly + term.shift_var("E", k)
    # Q monomial factors are units; a shift-power factor is kept
    # unless it is negative (then it is a unit too)
    body = poly
    unit_mono = LaurentMPoly.const(1)
    for v, m in poly.laurent_unit().items():
        if v == "E" and m >= 0:
            continue
        if m != 0:
            body = body.shift_var(v, -m)
            unit_mono = unit_mono.shift_var(v, m)
    # the coefficient of the highest shift power leads positive (E is the
    # main variable here, not part of the grading)
    c = signed_content(body, main="E")
    prim = body.map_coeffs(lambda x: x / c)
    unit = RationalFunction(unit_mono * c, den)
    return prim, unit


# -- formatting ------------------------------------------------------------

def _shift_label(e: tuple[int, ...]) -> str:
    parts = []
    if e[0]:
        parts.append("E" if e[0] == 1 else f"E^{e[0]}")
    for i, k in enumerate(e[1:], start=1):
        if k:
            parts.append(f"Et{i}" if k == 1 else f"Et{i}^{k}")
    return "*".join(parts) if parts else "1"


def format_operator(p: OreOperator) -> str:
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]),
                   reverse=True)
    parts = []
    for e, c in items:
        parts.append(f"({format_ratfun(c)}) * {_shift_label(e)}")
    return " + ".join(parts)
