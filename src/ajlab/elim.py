"""Polynomial systems at q = 1 and their elimination down to a plane curve.

The shift-ratio limits of a summand give one equation per lattice
coordinate (the ratio equals 1) plus a longitude equation tying the shift
in the color to a new variable l.  Eliminating the lattice coordinates by
resultants leaves a single polynomial in (alpha, l) — the candidate curve
the annihilating operator is compared against.
"""

from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .errors import DegeneracyError, DomainError
from .laurent import Immutable, LaurentMPoly, format_poly
from .poly import (
    _content_and_primitive_wrt,
    normalized,
    resultant,
    squarefree_part,
)
from .qhg import ProperQHTerm, epsilon_ratio
from .ratfun import RationalFunction

if TYPE_CHECKING:
    from .ore import OreOperator

# -- summand symbols to curve coordinates ----------------------------------

@lru_cache(maxsize=None)
def _coordinates(colors: tuple[str, ...], nu: int) -> tuple[
        tuple[str, ...], Mapping[str, LaurentMPoly]]:
    """(coords, images): the curve coordinates of a summand's lattice
    directions and the monomial each exponential symbol becomes.

    The meridian goes to alpha (Q -> alpha^2 for the full color n, Qm ->
    alpha for the half color m), Qt_i to the i-th coordinate (x for one
    full-meridian direction, x_i for several, w_i on a half meridian) and
    the color shift E to l.
    """
    full = colors == ("n",)
    stem = "x" if full else "w"
    coords = ((stem,) if full and nu == 1
              else tuple(f"{stem}{i}" for i in range(1, nu + 1)))
    images = {"Q": LaurentMPoly.var("alpha", 2)} if full else {
        "Qm": LaurentMPoly.var("alpha")}
    images.update({f"Qt{i}": LaurentMPoly.var(c)
                   for i, c in enumerate(coords, 1)})
    images["E"] = LaurentMPoly.var("l")
    return coords, MappingProxyType(images)


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
    "linear") or l^2 (two-step, "squared").  The summand's symbols become
    curve coordinates as `_coordinates` says: alpha^2 (full meridian) or
    alpha (half meridian) for the color, x, x1..x_nu or w1..w_nu for the
    lattice.
    """
    if longitude not in ("linear", "squared"):
        raise DomainError(f"unknown longitude kind {longitude!r}")
    lvar = RationalFunction.var("l")
    if longitude == "squared":
        lon_ratio, rhs = epsilon_ratio(term, "Em"), lvar * lvar
    elif term.colors == ("n",):
        lon_ratio, rhs = epsilon_ratio(term, "E"), lvar
    else:
        raise DomainError(
            "linear longitude needs a full-meridian color; "
            "half-meridian terms only expose the two-step ratio")
    coords, images = _coordinates(term.colors, term.nu)
    one = RationalFunction.one()
    glue = tuple(
        cleared_equation(epsilon_ratio(term, f"Et{i}").subst(images), one)
        for i in range(1, term.nu + 1))
    lon = cleared_equation(lon_ratio.subst(images), rhs)
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


def aj_compare(op: "OreOperator", candidate) -> OperatorCurveComparison:
    """Compare the q = 1 limit of an annihilating operator against an
    eliminated curve, after moving both to (alpha, l) and normalizing.

    Equality is exact equality of the normalized polynomials; the unit
    recorded while taking the limit is reported in the same variables.
    """
    # imported here: the saddle side loads elim for its equation systems
    # and never compiles the operator layer
    from .ore import epsilon_eval_with_unit
    prim, unit = epsilon_eval_with_unit(op)
    images = _coordinates(("n",), 0)[1]
    lhs = normalized(prim.subst_monomials(images), main="l")
    rhs = candidate.poly if isinstance(candidate, APolyCandidate) else candidate
    rhs = normalized(rhs.clear_negative(), main="l")
    return OperatorCurveComparison(lhs == rhs, lhs, rhs,
                                   unit.subst(images))
