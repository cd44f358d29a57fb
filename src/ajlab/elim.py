"""Polynomial systems at q = 1 and their elimination down to a plane curve.

The shift-ratio limits of a summand give one equation per lattice
coordinate (the ratio equals 1) plus a longitude equation tying the shift
in the color to a new variable l.  Eliminating the lattice coordinates by
resultants leaves a single polynomial in (alpha, l) — the candidate curve
the annihilating operator is compared against.
"""

from typing import Mapping, Optional, Sequence

from .errors import DegeneracyError, DomainError
from .ore import OreOperator, epsilon_eval_with_unit
from .poly import (
    Immutable,
    LaurentMPoly,
    _content_and_primitive_wrt,
    format_poly,
    normalized,
    resultant,
    squarefree_part,
)
from .qhg import ProperQHTerm, epsilon_ratio
from .ratfun import RationalFunction

# -- variable renaming -----------------------------------------------------

#: rename table for a summand colored by the full meridian exponential:
#: its square root becomes alpha, the lattice coordinate becomes x
RENAME_FULL = {"Q": ("alpha", 2), "Qt1": ("x", 1), "E": ("l", 1)}

#: rename table for half-meridian summands (one color per strand); their
#: lattice coordinates Qt_i -> w_i come per term from `_half_mapping`
RENAME_HALF = {"Qm": ("alpha", 1), "E": ("l", 1)}


def _half_mapping(nu: int) -> dict[str, tuple[str, int]]:
    """RENAME_HALF with Qt_i -> w_i for every lattice index i = 1..nu."""
    return {**RENAME_HALF,
            **{f"Qt{i}": (f"w{i}", 1) for i in range(1, nu + 1)}}


def rename_exponents(p: LaurentMPoly,
                     mapping: Mapping[str, tuple[str, int]]) -> LaurentMPoly:
    """Rename variables monomial-wise, scaling exponents: v^k -> u^(mk)."""
    new_names = []
    for v in p.vars:
        name = mapping.get(v, (v, 1))[0]
        if name in new_names:
            raise DomainError(f"rename collides on {name}")
        new_names.append(name)
    return p.subst_monomials({v: LaurentMPoly.var(*mapping[v])
                              for v in p.vars if v in mapping})


def rename_ratfun(r: RationalFunction,
                  mapping: Mapping[str, tuple[str, int]]) -> RationalFunction:
    return RationalFunction(rename_exponents(r.num, mapping),
                            rename_exponents(r.den, mapping))


# -- equation systems ------------------------------------------------------

class EquationSystem(Immutable):
    """Cleared polynomial equations (each = 0), one of them the longitude."""

    __slots__ = ("gluing", "longitude", "coordinates", "longitude_kind")

    def __init__(self, gluing: tuple[LaurentMPoly, ...],
                 longitude: LaurentMPoly, coordinates: tuple[str, ...],
                 longitude_kind: str):
        object.__setattr__(self, "gluing", gluing)
        object.__setattr__(self, "longitude", longitude)
        object.__setattr__(self, "coordinates", coordinates)
        # "linear" (degree 1 in l) or "squared" (l^2)
        object.__setattr__(self, "longitude_kind", longitude_kind)

    def equations(self) -> tuple[LaurentMPoly, ...]:
        return (*self.gluing, self.longitude)

    def residual(self, point: Mapping[str, complex]) -> float:
        """Largest absolute value of any equation at the point."""
        return max(abs(p.eval_complex(point)) for p in self.equations())


def cleared_equation(lhs: RationalFunction, rhs: RationalFunction) -> LaurentMPoly:
    """lhs == rhs as a primitive honest polynomial with positive leading
    coefficient (the clearing monomial is a unit and is dropped)."""
    p = lhs.num * rhs.den - rhs.num * lhs.den
    p = p.clear_negative()
    if p.is_zero():
        raise DegeneracyError("equation is identically satisfied")
    return normalized(p)


def ratio_system(term: ProperQHTerm,
                 longitude: str = "squared") -> EquationSystem:
    """Equations satisfied by the q = 1 limits of the term's shift ratios.

    Lattice ratios are set to 1; the color ratio is set to l (one-step,
    "linear") or l^2 (two-step, "squared").  Full-meridian colors get
    alpha^2 for the meridian variable and x for the lattice coordinate;
    half-meridian colors get alpha and w1..w_nu.
    """
    if longitude not in ("linear", "squared"):
        raise DomainError(f"unknown longitude kind {longitude!r}")
    one = RationalFunction.one()
    lvar = RationalFunction.var("l")
    if term.colors == ("n",):
        mapping = dict(RENAME_FULL)
        if term.nu == 1:
            coords = ("x",)
        else:
            coords = tuple(f"x{i}" for i in range(1, term.nu + 1))
            for i in range(1, term.nu + 1):
                mapping[f"Qt{i}"] = (f"x{i}", 1)
        lon_ratio = epsilon_ratio(term, "Em" if longitude == "squared"
                                  else "E")
        rhs = lvar * lvar if longitude == "squared" else lvar
    else:
        if longitude == "linear":
            raise DomainError(
                "linear longitude needs a full-meridian color; "
                "half-meridian terms only expose the two-step ratio")
        mapping = _half_mapping(term.nu)
        coords = tuple(f"w{i}" for i in range(1, term.nu + 1))
        lon_ratio = epsilon_ratio(term, "Em")
        rhs = lvar * lvar
    glue = tuple(
        cleared_equation(rename_ratfun(epsilon_ratio(term, f"Et{i}"), mapping), one)
        for i in range(1, term.nu + 1))
    lon = cleared_equation(rename_ratfun(lon_ratio, mapping), rhs)
    return EquationSystem(glue, lon, coords, longitude)


# -- elimination -----------------------------------------------------------

class APolyCandidate(Immutable):
    """Result of eliminating the coordinates: a curve in (alpha, l)."""

    __slots__ = ("poly", "dropped", "order")

    def __init__(self, poly: LaurentMPoly, dropped: tuple[str, ...],
                 order: tuple[str, ...]):
        object.__setattr__(self, "poly", poly)
        # discarded l-free factors / multiplicities
        object.__setattr__(self, "dropped", dropped)
        object.__setattr__(self, "order", order)

    def __str__(self) -> str:
        return format_poly(self.poly)


def eliminate(system: EquationSystem,
              order: Optional[Sequence[str]] = None) -> APolyCandidate:
    """Remove the coordinates by successive resultants.

    Each round pivots on the equation of least degree in the coordinate
    and replaces every other equation containing it by a resultant.  The
    single survivor is cleaned up: l-free factors are units of the target
    ring and are dropped (recorded), repeated l-factors are reduced to
    their radical (recorded), and the result is normalized.
    """
    order = tuple(order) if order is not None else system.coordinates
    if sorted(order) != sorted(system.coordinates):
        raise DomainError(
            f"elimination order {order} must be a permutation of "
            f"{system.coordinates}")
    polys = list(system.equations())
    for v in order:
        having = [i for i, p in enumerate(polys) if p.degree(v) > 0]
        if not having:
            raise DegeneracyError(f"no equation involves {v}")
        if len(having) == 1:
            raise DegeneracyError(
                f"coordinate {v} appears in a single equation; its "
                f"resultant partner is missing")
        pivot_i = min(having, key=lambda i: polys[i].degree(v))
        pivot = polys[pivot_i]
        survivors = []
        for i, p in enumerate(polys):
            if i == pivot_i:
                continue
            if i not in having:
                survivors.append(p)
                continue
            r = resultant(p, pivot, v)
            if r.is_zero():
                raise DegeneracyError(
                    f"resultant in {v} vanished: the equations share "
                    f"a factor")
            survivors.append(r)
        polys = survivors
    if len(polys) != 1:
        raise DegeneracyError(
            f"elimination left {len(polys)} equations instead of one")
    p = polys[0]
    if "l" not in p.vars or p.degree("l") == 0:
        raise DegeneracyError("the eliminant does not involve l")
    dropped: list[str] = []
    cont, prim = _content_and_primitive_wrt(p, "l")
    if not cont.is_constant():
        dropped.append(format_poly(cont))
        p = prim
    dl = p.degree("l")
    sq = squarefree_part(p, "l")
    if sq.degree("l") < dl:
        dropped.append(f"repeated l-factors (degree {dl} -> "
                       f"{sq.degree('l')})")
        p = sq
    p, unit = p.clear_laurent()
    if unit:
        mono = LaurentMPoly(tuple(unit), {tuple(unit.values()): 1})
        dropped.append(format_poly(mono))
    return APolyCandidate(normalized(p, main="l"), tuple(dropped), order)


# -- operator comparison ---------------------------------------------------

class OperatorCurveComparison(Immutable):
    __slots__ = ("match", "operator_poly", "candidate_poly", "unit")

    def __init__(self, match: bool, operator_poly: LaurentMPoly,
                 candidate_poly: LaurentMPoly, unit: RationalFunction):
        object.__setattr__(self, "match", match)
        # limit of the operator, in (alpha, l)
        object.__setattr__(self, "operator_poly", operator_poly)
        object.__setattr__(self, "candidate_poly", candidate_poly)
        # scale absorbed when taking the limit
        object.__setattr__(self, "unit", unit)

    def __str__(self) -> str:
        verdict = "match" if self.match else "MISMATCH"
        return (f"{verdict}: operator side {format_poly(self.operator_poly)}"
                f" vs candidate {format_poly(self.candidate_poly)}")


def aj_compare(op: OreOperator, candidate) -> OperatorCurveComparison:
    """Compare the q = 1 limit of an annihilating operator against an
    eliminated curve, after moving both to (alpha, l) and normalizing.

    Equality is exact equality of the normalized polynomials; the unit
    recorded while taking the limit is reported in the same variables.
    """
    prim, unit = epsilon_eval_with_unit(op)
    lhs = normalized(rename_exponents(prim, RENAME_FULL), main="l")
    rhs = candidate.poly if isinstance(candidate, APolyCandidate) else candidate
    rhs = normalized(rhs.clear_negative(), main="l")
    return OperatorCurveComparison(lhs == rhs, lhs, rhs,
                                   rename_ratfun(unit, RENAME_FULL))
