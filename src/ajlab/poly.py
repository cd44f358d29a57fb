"""Sparse multivariate Laurent polynomials over exact rationals.

A polynomial is a mapping from integer exponent vectors to exact rational
coefficients together with the tuple of variable names the exponents refer
to.  Construction canonicalizes: zero coefficients are dropped, variables
that appear in no term are pruned, the survivors are put into one fixed
global order, and each coefficient is an ``int`` when integral and a
``Fraction`` only when not — so mathematically equal polynomials are
structurally equal, whatever route built them, and integer polynomials
compute in Python integers.  Numbers returned (``constant_value``,
``eval_exact``) are ``Fraction``s.

Negative exponents are legal everywhere.  The classical algorithms (gcd,
resultant, square-free part) require honest polynomials, so they clear
Laurent units first; see the individual functions for what is and is not
reapplied.

gcd and exact division also split off the rational content and work on
integer coefficients.  ``gcd_cofactors`` runs the heuristic GCDHEU first
(Char, Geddes & Gonnet 1989: evaluate at a large integer, take an integer
gcd, interpolate back, check by division, whose quotients are the
cofactors) with the primitive PRS as the fallback; ``exact_divide`` is one
integer long division, or a scaled shift when the divisor is a monomial.
In one variable products key terms by int exponents, and the long division
and GCDHEU's evaluation and lifting run on dense coefficient lists and
plain ints.  A single term is coprime to any nonzero polynomial, so
``gcd_cofactors`` returns such a pair at once.

Three conventions the other layers share live here and nowhere else: the
limit at q = 1 (``limit_at_one``: the order of vanishing and the lowest
nonzero Taylor coefficient), the sign/content rule (``signed_content``
and ``normalized``: coprime integer coefficients, leading coefficient
positive) and cancellation of a pair by its gcd (``gcd_cofactors``).

Every value type of the package (polynomials, rational functions,
operators, summand forms, result records) takes its immutability from
one base here, ``Immutable``: slotted fields set once in ``__init__``,
with field-tuple equality, hashing and repr for the plain records.

Term order used for leading-term decisions and for text output is graded
lexicographic (total degree first, then lex on the exponent vector), which
is only a bookkeeping order for Laurent exponents but is total and fixed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, attrgetter
from typing import Mapping, Sequence, Union

from .errors import DomainError, PoleError

Coeff = Union[int, Fraction]

# Canonical variable order.  Indexed families (Qt1, Qt2, ..., w1, w2, ...)
# sort by index inside their family.  Unknown names sort after everything,
# alphabetically, so user-invented symbols still get a deterministic order.
_FAMILIES = (
    "q", "Q", "Qm", "Qt", "E", "Em", "Et", "l", "alpha", "w", "x",
)


def _split_name(name: str) -> tuple[str, int]:
    i = len(name)
    while i > 0 and name[i - 1].isdigit():
        i -= 1
    base, digits = name[:i], name[i:]
    return base, (int(digits) if digits else 0)


def var_sort_key(name: str) -> tuple[int, int, str]:
    base, idx = _split_name(name)
    try:
        fam = _FAMILIES.index(base)
    except ValueError:
        fam = len(_FAMILIES)
    return (fam, idx, name)


def _coeff(c: Coeff) -> Coeff:
    """c in the canonical coefficient form: an int when integral, else a
    Fraction (whose denominator is then not 1)."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _term_sort_key(exp: tuple[int, ...]) -> tuple:
    # graded-lex, descending when used with reverse=True
    return (sum(exp), exp)


class Immutable:
    """Base of every value type: a subclass lists its fields, in order, as
    ``__slots__`` and sets them in ``__init__`` with
    ``object.__setattr__``; afterwards assignment and deletion raise
    AttributeError.  Its fields are the slots that do not start with
    ``_``; a private slot holds data derived from them.  Unless the
    subclass defines its own, it compares and hashes as the tuple of its
    fields (objects of different classes are never equal) and prints as
    ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls._fields = tuple(s for s in cls.__slots__ if s[0] != "_")
        cls._field_values = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == self._field_values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class LaurentMPoly(Immutable):
    """Immutable sparse Laurent polynomial with int-or-Fraction canonical
    coefficients.  The public constructor checks and canonicalizes input
    from outside; results canonical by construction (variables in the
    global order, one entry per exponent vector) go through the trusted
    `_build`, which only drops zeros, turns integral Fractions into ints
    and prunes variables that no longer occur."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Coeff]):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise DomainError(f"duplicate variable in context {vars}")
        clean: dict[tuple[int, ...], Coeff] = {}
        for exp, c in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(vars):
                raise DomainError(
                    f"exponent vector {exp} does not match context {vars}")
            c = _coeff(c)
            clean[exp] = clean[exp] + c if exp in clean else c
        # enforce canonical variable order
        order = sorted(range(len(vars)), key=lambda i: var_sort_key(vars[i]))
        if order != list(range(len(vars))):
            vars = tuple(vars[i] for i in order)
            clean = {tuple(e[i] for i in order): c for e, c in clean.items()}
        self._fill(vars, clean)

    @classmethod
    def _build(cls, vars: tuple[str, ...],
               terms: Mapping[tuple[int, ...], Coeff]) -> "LaurentMPoly":
        """The trusted constructor: vars must be in canonical order and
        every key an exponent vector over them, each once."""
        self = object.__new__(cls)
        self._fill(vars, terms)
        return self

    def _fill(self, vars: tuple[str, ...],
              terms: Mapping[tuple[int, ...], Coeff]) -> None:
        terms = {e: c if type(c) is int
                 else c.numerator if c.denominator == 1 else c
                 for e, c in terms.items() if c}
        # prune variables that never occur
        if vars and not (terms and all(map(any, zip(*terms)))):
            used = [i for i, col in enumerate(zip(*terms)) if any(col)]
            vars = tuple(vars[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentMPoly":
        return LaurentMPoly._build((), {})

    @staticmethod
    def const(c: Coeff) -> "LaurentMPoly":
        return LaurentMPoly._build((), {(): _coeff(c)})

    @staticmethod
    def var(name: str, power: int = 1) -> "LaurentMPoly":
        return LaurentMPoly._build((name,), {(power,): 1})

    @staticmethod
    def monomial(c: Coeff, powers: Mapping[str, int]) -> "LaurentMPoly":
        names = tuple(sorted(powers, key=var_sort_key))
        return LaurentMPoly._build(
            names, {tuple(powers[n] for n in names): _coeff(c)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Fraction:
        if self.vars:
            raise DomainError(f"{self} is not constant")
        return Fraction(self.terms.get((), 0))

    def degree(self, v: str) -> int:
        """Maximum exponent of v (0 if absent; -1 for the zero polynomial
        to keep degree comparisons conventional)."""
        if self.is_zero():
            return -1
        if v not in self.vars:
            return 0
        i = self.vars.index(v)
        return max(e[i] for e in self.terms)

    def min_degree(self, v: str) -> int:
        if self.is_zero():
            return 0
        if v not in self.vars:
            return 0
        i = self.vars.index(v)
        return min(e[i] for e in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        return sorted(self.terms.items(), key=lambda t: _term_sort_key(t[0]),
                      reverse=True)

    def leading(self) -> tuple[tuple[int, ...], Coeff]:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading term")
        exp = max(self.terms, key=_term_sort_key)
        return exp, self.terms[exp]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentMPoly.const(other)
        if not isinstance(other, LaurentMPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it must hash like it
        if not self.vars:
            return hash(self.terms.get((), 0))
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"LaurentMPoly({format_poly(self)!r})"

    # -- context merging ---------------------------------------------------

    def _embedded(self, vars: tuple[str, ...]) -> Mapping[tuple[int, ...], Coeff]:
        """Exponent dict re-indexed into the larger context ``vars``; the
        terms themselves, not a copy, when the contexts are equal."""
        if vars == self.vars:
            return self.terms
        pos = [vars.index(v) for v in self.vars]
        n = len(vars)
        out = {}
        for e, c in self.terms.items():
            big = [0] * n
            for p, ev in zip(pos, e):
                big[p] = ev
            out[tuple(big)] = c
        return out

    @staticmethod
    def _merge_vars(a: "LaurentMPoly", b: "LaurentMPoly") -> tuple[str, ...]:
        if a.vars == b.vars or not b.vars:
            return a.vars
        if not a.vars:
            return b.vars
        return tuple(sorted(set(a.vars) | set(b.vars), key=var_sort_key))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LaurentMPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentMPoly.const(other)
        if not isinstance(other, LaurentMPoly):
            return NotImplemented
        vars = self._merge_vars(self, other)
        terms = dict(self._embedded(vars))
        for e, c in other._embedded(vars).items():
            terms[e] = terms[e] + c if e in terms else c
        return LaurentMPoly._build(vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentMPoly":
        return LaurentMPoly._build(self.vars,
                                   {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentMPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentMPoly.const(other)
        if not isinstance(other, LaurentMPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentMPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentMPoly":
        if isinstance(other, LaurentMPoly) and not self.vars:
            self, other = other, self  # a constant multiplies as a scalar
        if isinstance(other, LaurentMPoly) and not other.vars:
            other = other.terms.get((), 0)
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if c == 1:
                return self
            return LaurentMPoly._build(self.vars,
                                       {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, LaurentMPoly):
            return NotImplemented
        vars = self._merge_vars(self, other)
        if len(vars) == 1:  # univariate: int exponent keys
            bt = [(eb, cb) for (eb,), cb in other.terms.items()]
            uni: dict[int, Coeff] = {}
            for (ea,), ca in self.terms.items():
                for eb, cb in bt:
                    uni[ea + eb] = uni.get(ea + eb, 0) + ca * cb
            return LaurentMPoly._build(vars, {(e,): c for e, c in uni.items()})
        at = self._embedded(vars)
        bt = other._embedded(vars)
        out: dict[tuple[int, ...], Coeff] = {}
        for ea, ca in at.items():
            for eb, cb in bt.items():
                e = tuple(map(add, ea, eb))
                acc = out.get(e)
                out[e] = ca * cb if acc is None else acc + ca * cb
        return LaurentMPoly._build(vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentMPoly":
        if not isinstance(n, int):
            raise TypeError("polynomial power must be an integer")
        if n < 0:
            raise DomainError("negative power of a polynomial; use RationalFunction")
        result = LaurentMPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_var(self, v: str, k: int) -> "LaurentMPoly":
        """Multiply by v**k (Laurent monomial)."""
        return self._times_monomial({v: k}) if k else self

    def _times_monomial(self, powers: Mapping[str, int]) -> "LaurentMPoly":
        """Multiply by the product of v**k over powers, by shifting
        exponents rather than multiplying coefficients."""
        new = tuple(v for v, k in powers.items() if k and v not in self.vars)
        vars = self.vars + new
        pad = (0,) * len(new)
        shift = [powers.get(v, 0) for v in vars]
        terms = {tuple(map(add, e + pad, shift)): c
                 for e, c in self.terms.items()}
        # appended variables break the canonical order: re-sort them
        return (LaurentMPoly(vars, terms) if new
                else LaurentMPoly._build(vars, terms))

    def map_coeffs(self, f) -> "LaurentMPoly":
        return LaurentMPoly(self.vars, {e: f(c) for e, c in self.terms.items()})

    def subst_monomials(self, images: Mapping[str, "LaurentMPoly"]
                        ) -> "LaurentMPoly":
        """Substitute for each variable v in images the monomial
        images[v] = c * x^a, or zero, all at once.  Exponent vectors map
        linearly (v^k -> x^(k*a)) and a term's coefficient picks up c^k;
        v^k with v bound to zero drops the term for k > 0 and raises
        DomainError for k < 0, as does an image with two or more terms."""
        if not any(v in images for v in self.vars):
            return self
        names = tuple(sorted({v for v in self.vars if v not in images} | {
            u for v in self.vars if v in images for u in images[v].vars},
            key=var_sort_key))
        col = {u: i for i, u in enumerate(names)}
        rows = []  # per variable: (image coefficient, [(column, power)])
        for v in self.vars:
            img = images.get(v)
            if img is None:
                rows.append((1, [(col[v], 1)]))
            elif len(img.terms) > 1:
                raise DomainError(
                    f"{v} is bound to {format_poly(img)}, not a monomial")
            else:
                (e, c), = img.terms.items() or [((), 0)]
                rows.append((c, [(col[u], a) for u, a in zip(img.vars, e)]))
        out: dict[tuple[int, ...], Coeff] = {}
        for e, c in self.terms.items():
            ne = [0] * len(names)
            for v, k, (f, row) in zip(self.vars, e, rows):
                if not k:
                    continue
                if not f and k < 0:
                    raise DomainError(
                        f"negative power of {v} with {v} bound to zero")
                if f != 1:  # zero for v bound to zero; int ** -k is a float
                    c = c * f ** k if k > 0 else Fraction(c, f ** -k)
                for j, a in row:
                    ne[j] += a * k
            key = tuple(ne)
            out[key] = out[key] + c if key in out else c
        return LaurentMPoly._build(names, out)

    # -- structure ---------------------------------------------------------

    def coeff_of(self, v: str, k: int) -> "LaurentMPoly":
        """Coefficient of v**k, a polynomial not involving v."""
        if v not in self.vars:
            return self if k == 0 else LaurentMPoly.zero()
        i = self.vars.index(v)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {e[:i] + e[i + 1:]: c for e, c in self.terms.items() if e[i] == k}
        return LaurentMPoly._build(rest, terms)

    def as_univariate(self, v: str) -> dict[int, "LaurentMPoly"]:
        """Map exponent-of-v -> coefficient polynomial (v removed)."""
        if v not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(v)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict[int, dict[tuple[int, ...], Coeff]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {k: LaurentMPoly._build(rest, t) for k, t in buckets.items()}

    def derivative(self, v: str) -> "LaurentMPoly":
        if v not in self.vars:
            return LaurentMPoly.zero()
        i = self.vars.index(v)
        out: dict[tuple[int, ...], Coeff] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ne] = out.get(ne, 0) + c * e[i]
        return LaurentMPoly._build(self.vars, out)

    def laurent_unit(self) -> dict[str, int]:
        """Per-variable minimum exponent (the monomial content's powers)."""
        return dict(zip(self.vars, map(min, zip(*self.terms))))

    def clear_laurent(self) -> tuple["LaurentMPoly", dict[str, int]]:
        """Divide out the Laurent monomial content so every exponent is >= 0
        and each variable genuinely occurs with exponent 0 somewhere.
        Returns (polynomial part, extracted powers)."""
        unit = {v: m for v, m in self.laurent_unit().items() if m != 0}
        if not unit:
            return self, unit
        return self._times_monomial({v: -m for v, m in unit.items()}), unit

    def clear_negative(self) -> "LaurentMPoly":
        """Shift only the negative exponents up to zero, leaving honest
        polynomials untouched."""
        neg = {v: -m for v, m in self.laurent_unit().items() if m < 0}
        return self._times_monomial(neg) if neg else self

    def eval_exact(self, point: Mapping[str, Coeff]) -> Fraction:
        """Evaluate at exact rational values for every variable.

        The sum runs in integers: with x = a/b and the exponents of x in
        [lo, hi], x^k = a^(k-lo) * b^(hi-k) * a^lo / b^hi, so each term is
        an integer over one common denominator, and one Fraction is built
        at the end."""
        for v in self.vars:
            if v not in point:
                raise DomainError(f"no value supplied for variable {v}")
        cden = math.lcm(*(c.denominator for c in self.terms.values()))
        num, den = 1, cden
        weights = []  # per variable: exponent -> a^(k-lo) * b^(hi-k)
        for i, v in enumerate(self.vars):
            x = _coeff(point[v])
            a, b = x.numerator, x.denominator
            ks = {e[i] for e in self.terms}
            lo, hi = min(ks), max(ks)
            if lo < 0 and not a:
                raise DomainError("zero raised to a negative power "
                                  "during evaluation")
            weights.append({k: a ** (k - lo) * b ** (hi - k) for k in ks})
            num *= a ** max(lo, 0) * b ** max(-hi, 0)
            den *= a ** max(-lo, 0) * b ** max(hi, 0)
        total = 0
        for e, c in self.terms.items():
            t = c.numerator * (cden // c.denominator) if cden != 1 else c
            for w, k in zip(weights, e):
                t *= w[k]
            total += t
        return Fraction(total * num, den)

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        for v in self.vars:
            if v not in point:
                raise DomainError(f"no value supplied for variable {v}")
        total = 0j
        for e, c in self.terms.items():
            t = complex(c)
            for v, k in zip(self.vars, e):
                if k:
                    try:
                        t *= complex(point[v]) ** k
                    except ZeroDivisionError:
                        raise PoleError(
                            f"negative power of {v} at {v} = 0") from None
            total += t
        return total


# -- the q -> 1 limit -------------------------------------------------------

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


# -- integer-polynomial core -----------------------------------------------
#
# gcd and exact division run on integer polynomials: plain dicts
# {exponent tuple: nonzero int} over a variable tuple the caller holds.

def _integer_primitive(p: LaurentMPoly,
                       vars: tuple[str, ...]) -> tuple[Fraction, dict]:
    """(rational_content(p), p / content as an integer dict over vars)."""
    cont = rational_content(p)
    terms = p._embedded(vars)
    if cont == 1:  # integral coefficients already; the dicts are read-only
        return cont, terms
    n, d = cont.numerator, cont.denominator
    return cont, {e: c.numerator // n * (d // c.denominator)
                  for e, c in terms.items()}


def _neg_glex(e: tuple[int, ...]) -> tuple:
    # graded-lex key negated, so heapq's min-heap pops the largest term
    return (-sum(e), tuple(-x for x in e))


def _zz_divide(a: dict, b: dict) -> dict | None:
    """Quotient a/b of integer polynomials when b divides a over the
    integers; None otherwise.  b must be nonzero and no exponent negative.
    Univariate pairs go to `_dense_divide`, the rest to `_heap_divide`."""
    return (_dense_divide if len(next(iter(b))) == 1 else _heap_divide)(a, b)


def _heap_divide(a: dict, b: dict) -> dict | None:
    """`_zz_divide` in any number of variables.

    Long division by the graded-lex leading term of b, with the remainder's
    terms on a heap.  Each step cancels the remainder's leading term and
    adds only smaller ones, and graded-lex well-orders exponent vectors
    with nonnegative entries, so the loop ends.
    """
    # imported on first use: loading the _heapq extension at package
    # import measurably lengthens every cold start (the benchmark's setup_s)
    import heapq

    lead_b = max(b, key=_term_sort_key)
    cb = b[lead_b]
    tail = [(e, c) for e, c in b.items() if e != lead_b]
    rem = dict(a)
    heap = [(_neg_glex(e), e) for e in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = rem.pop(e, 0)
        if not c:  # cancelled, or a stale duplicate entry
            continue
        qe = tuple(x - y for x, y in zip(e, lead_b))
        qc, r = divmod(c, cb)
        if r or min(qe, default=0) < 0:
            return None
        quot[qe] = qc
        for eb, c_b in tail:
            t = tuple(x + y for x, y in zip(qe, eb))
            old = rem.get(t)
            if old is None:
                rem[t] = -qc * c_b
                heapq.heappush(heap, (_neg_glex(t), t))
            elif old == qc * c_b:
                del rem[t]
            else:
                rem[t] = old - qc * c_b
    return quot


def _eval_last(f: dict, xi: int) -> dict:
    """f with its last variable set to the integer xi."""
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.items():
        k = e[:-1]
        out[k] = out.get(k, 0) + c * xi ** e[-1]
    return {e: c for e, c in out.items() if c}


def _interpolate(h: dict, xi: int) -> dict:
    """The polynomial in one more (last) variable whose value at xi is h,
    read off digit by digit in base xi with symmetric residues."""
    out = {}
    half = xi // 2
    k = 0
    while h:
        rest = {}
        for e, c in h.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e + (k,)] = r
            c = (c - r) // xi
            if c:
                rest[e] = c
        h = rest
        k += 1
    return out


# Univariate kernels: the same results as _heap_divide, _eval_last and
# _interpolate for dicts keyed by 1-tuples (exponents >= 0), on dense
# coefficient lists and plain ints instead of tuples and heaps.

def _dense_divide(a: dict, b: dict) -> dict | None:
    """`_zz_divide` for univariate a and b: dense long division."""
    (db,), cb = max(b.items())
    tail = [(e, c) for (e,), c in b.items() if e != db]
    rem = [0] * (max(a, default=(0,))[0] + 1)
    for (e,), c in a.items():
        rem[e] = c
    quot = {}
    for k in range(len(rem) - 1 - db, -1, -1):
        if c := rem[k + db]:
            qc, r = divmod(c, cb)
            if r:
                return None
            quot[(k,)] = qc
            for e, c_b in tail:
                rem[k + e] -= qc * c_b
    # what is left below the divisor's degree is the remainder
    return None if any(rem[:db]) else quot


def _horner(f: dict, xi: int) -> dict:
    """`_eval_last` for univariate f: {(): f(xi)}, or {} when that is 0."""
    coeffs = [0] * (max(f)[0] + 1)
    for (e,), c in f.items():
        coeffs[e] = c
    v = 0
    for c in reversed(coeffs):
        v = v * xi + c
    return {(): v} if v else {}


def _digits(h: dict, xi: int) -> dict:
    """`_interpolate` for a scalar image h = {(): c}."""
    out = {}
    half = xi // 2
    c, k = h.get((), 0), 0
    while c:
        r = c % xi
        if r > half:
            r -= xi
        if r:
            out[(k,)] = r
        c = (c - r) // xi
        k += 1
    return out


# values of xi GCDHEU tries before poly_gcd falls back to the PRS
_HEU_TRIES = 6


def _heu_gcd(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """(h, f/h, g/h), h the gcd of two nonzero integer polynomials up to
    sign, by GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989); None
    when it gives up.

    Setting the last variable to an integer xi reduces the problem by one
    variable, down to an integer gcd; the image gcd is lifted back by
    xi-adic interpolation.  Because xi starts above 2*min(|f|, |g|) + 2
    (max norms), a primitive candidate that divides both inputs is the gcd
    itself, not merely a common divisor, and the check's quotients are the
    cofactors.
    """
    if not f or not g:  # xi was a root of an input one level up
        return None
    if not next(iter(f)):  # no variables left: two integers
        h = math.gcd(f[()], g[()])
        return {(): h}, {(): f[()] // h}, {(): g[()] // h}
    cont = math.gcd(*f.values(), *g.values())
    if cont != 1:
        f = {e: c // cont for e, c in f.items()}
        g = {e: c // cont for e, c in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    evaluate, lift = ((_horner, _digits) if len(next(iter(f))) == 1
                      else (_eval_last, _interpolate))
    for _ in range(_HEU_TRIES):
        image = _heu_gcd(evaluate(f, xi), evaluate(g, xi))
        if image is None:
            return None
        h = lift(image[0], xi)
        if len(h) == 1 and not any(next(iter(h))):
            return {next(iter(h)): cont}, f, g
        hc = math.gcd(*h.values())
        h = {e: c // hc for e, c in h.items()}
        qf = _zz_divide(f, h)
        if qf is not None and (qg := _zz_divide(g, h)) is not None:
            return {e: c * cont for e, c in h.items()}, qf, qg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


# -- exact division, content and sign -------------------------------------

def exact_divide(a: LaurentMPoly, b: LaurentMPoly) -> LaurentMPoly:
    """Quotient a/b when b divides a exactly; DomainError otherwise.

    Laurent units and rational contents are split off both inputs; the
    integer parts go through one integer long division, and the net unit
    and content are put back on the quotient.  A monomial b needs no
    division: a is scaled and shifted.
    """
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    if a.is_zero():
        return a
    pb, ub = b.clear_laurent()
    if not pb.vars:
        q = a * (1 / pb.constant_value())
        return q._times_monomial({v: -k for v, k in ub.items()}) if ub else q
    pa, ua = a.clear_laurent()
    vars = LaurentMPoly._merge_vars(pa, pb)
    ca, fa = _integer_primitive(pa, vars)
    cb, fb = _integer_primitive(pb, vars)
    quot = _zz_divide(fa, fb)
    if quot is None:
        raise DomainError("polynomials do not divide exactly")
    return _with_units(vars, quot, ca / cb, {
        v: ua.get(v, 0) - ub.get(v, 0) for v in set(ua) | set(ub)})


def _with_units(vars: tuple[str, ...], quot: dict, scale: Fraction,
                unit: Mapping[str, int]) -> LaurentMPoly:
    """quot over vars times scale and the monomial with powers unit: an
    integer quotient with the units its division split off put back."""
    q = LaurentMPoly._build(vars, {e: c * scale for e, c in quot.items()}
                            if scale != 1 else quot)
    return q._times_monomial(unit) if any(unit.values()) else q


def rational_content(p: LaurentMPoly) -> Fraction:
    """Positive rational c with p/c having coprime integer coefficients."""
    if p.is_zero():
        return Fraction(1)
    if all(type(c) is int for c in p.terms.values()):
        return Fraction(math.gcd(*p.terms.values()))
    num = 0
    den = 1
    for c in p.terms.values():
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den)


def signed_content(p: LaurentMPoly, main: str | None = None) -> Fraction:
    """The rational content of p, negated when p's leading coefficient is
    negative: the graded-lex one, or, with ``main`` given, that of the
    coefficient of the top power of ``main``.  1 for the zero polynomial.

    This is the one sign/content convention: p divided by it (`normalized`)
    has coprime integer coefficients and that leading coefficient positive.
    """
    if p.is_zero():
        return Fraction(1)
    top = p if main is None else p.coeff_of(main, p.degree(main))
    c = rational_content(p)
    return -c if top.leading()[1] < 0 else c


def normalized(p: LaurentMPoly, main: str | None = None) -> LaurentMPoly:
    """p divided by its `signed_content`."""
    c = signed_content(p, main)
    return p if c == 1 else p * (1 / c)


def _content_and_primitive_wrt(p: LaurentMPoly, v: str) -> tuple[LaurentMPoly, LaurentMPoly]:
    """Content = gcd of the v-coefficients (a polynomial without v)."""
    # fewest terms first, then lowest degree, then the power of v: the
    # fold does the same work however p was built, and the small
    # coefficients that end it soonest come first
    uni = p.as_univariate(v)
    coeffs = [uni[k] for k in sorted(
        uni, key=lambda k: (len(uni[k].terms), uni[k].total_degree(), k))]
    if not coeffs:
        return LaurentMPoly.zero(), LaurentMPoly.zero()
    # the fold starts at the first coefficient, which is poly_gcd(0, c);
    # a constant gcd is 1 and ends it
    cont = normalized(coeffs[0].clear_laurent()[0])
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = poly_gcd(cont, c)
    pp = exact_divide(p, cont)
    # also strip the rational scale, keeping cont * pp == p exact; without
    # this the PRS coefficients compound geometrically across steps
    rc = rational_content(pp)
    if rc != 1:
        pp = pp * (1 / rc)
        cont = cont * rc
    return cont, pp


def _pseudo_rem(a: LaurentMPoly, b: LaurentMPoly, v: str) -> LaurentMPoly:
    """Pseudo-remainder: lc(b)^(da-db+1) * a  =  q*b + r with deg_v r < deg_v b."""
    da, db = a.degree(v), b.degree(v)
    if db < 0:
        raise DomainError("pseudo-remainder by zero")
    if da < db:
        return a
    bu = b.as_univariate(v)
    lb = bu[db]
    rem = a
    for _ in range(da - db + 1):
        dr = rem.degree(v)
        if rem.is_zero() or dr < db:
            rem = rem * lb
            continue
        lr = rem.as_univariate(v)[dr]
        rem = rem * lb - b * lr.shift_var(v, dr - db)
    return rem


_ONE = LaurentMPoly.const(1)


def poly_gcd(a: LaurentMPoly, b: LaurentMPoly) -> LaurentMPoly:
    """GCD in the polynomial ring after clearing Laurent units: primitive,
    with positive graded-lex leading coefficient and no monomial content;
    constants collapse to 1 (rationals are units)."""
    return gcd_cofactors(a, b)[0]


def gcd_cofactors(a: LaurentMPoly, b: LaurentMPoly
                  ) -> tuple[LaurentMPoly, LaurentMPoly, LaurentMPoly]:
    """(g, a/g, b/g) with g = `poly_gcd`(a, b), the one way to cancel a pair
    by its gcd; each cofactor keeps its input's Laurent unit and rational
    content.  GCDHEU first, whose divisibility check leaves the cofactors;
    the PRS (`_prs_gcd`) and `exact_divide` when it gives up.  A coprime
    pair, and a zero input, come back as they went in; a single term is
    coprime to any nonzero polynomial, so such a pair returns at once."""
    if len(a.terms) == 1 and b.terms or len(b.terms) == 1 and a.terms:
        return _ONE, a, b
    pa, ua = a.clear_laurent()
    pb, ub = b.clear_laurent()
    if pa.is_zero() or pb.is_zero():
        g = normalized(pa + pb)
        # a nonzero input is g times its sign, content and Laurent unit
        if g.is_zero():
            return g, a, b
        if pb.is_zero():
            return g, LaurentMPoly.monomial(signed_content(pa), ua), b
        return g, a, LaurentMPoly.monomial(signed_content(pb), ub)
    if pa.is_constant() or pb.is_constant():
        return _ONE, a, b
    vars = LaurentMPoly._merge_vars(pa, pb)
    ca, fa = _integer_primitive(pa, vars)
    cb, fb = _integer_primitive(pb, vars)
    heu = _heu_gcd(fa, fb)
    if heu is None:
        g = _prs_gcd(pa, pb)
        return g, exact_divide(a, g), exact_divide(b, g)
    h, qa, qb = heu
    if len(h) == 1 and not any(next(iter(h))):
        return _ONE, a, b
    g = LaurentMPoly._build(vars, h)
    s = signed_content(g)  # +-1, as h is primitive
    return (g if s == 1 else -g, _with_units(vars, qa, ca * s, ua),
            _with_units(vars, qb, cb * s, ub))


def _prs_gcd(a: LaurentMPoly, b: LaurentMPoly) -> LaurentMPoly:
    """`poly_gcd` by recursive primitive PRS on the last variable in the
    canonical order, for nonconstant inputs without Laurent units.

    The v-contents come from `poly_gcd`, which drops monomial factors, so
    the PRS result can carry monomial content; it is stripped at the end.
    """
    v = max(set(a.vars) | set(b.vars), key=var_sort_key)
    ca, pa = _content_and_primitive_wrt(a, v)
    cb, pb = _content_and_primitive_wrt(b, v)
    cg = poly_gcd(ca, cb)
    if pa.degree(v) < pb.degree(v):
        pa, pb = pb, pa
    while True:
        if pb.degree(v) <= 0:
            if pb.is_zero():
                g = pa
            else:
                g = LaurentMPoly.const(1)  # nonzero v-free remainder
            break
        r = _pseudo_rem(pa, pb, v)
        if r.is_zero():
            g = pb
            break
        _, r = _content_and_primitive_wrt(r, v)
        pa, pb = pb, r
    if g.is_constant():
        return normalized(cg)
    _, g = _content_and_primitive_wrt(g, v)
    return normalized((cg * g).clear_laurent()[0])


def poly_lcm(a: LaurentMPoly, b: LaurentMPoly) -> LaurentMPoly:
    if a.is_zero() or b.is_zero():
        return LaurentMPoly.zero()
    return normalized(gcd_cofactors(a, b)[1] * b)


# -- resultants ------------------------------------------------------------

def resultant(a: LaurentMPoly, b: LaurentMPoly, v: str) -> LaurentMPoly:
    """Resultant with respect to v via the subresultant PRS.

    Negative exponents are first shifted up to zero (the shift monomials
    are units of the Laurent ring and are not reapplied); honest
    polynomial inputs are used as-is.  Both inputs must then have positive
    degree in v.  The result is v-free and agrees with the Sylvester
    determinant, sign included.
    """
    a = a.clear_negative()
    b = b.clear_negative()
    da, db = a.degree(v), b.degree(v)
    if da <= 0 or db <= 0:
        raise DomainError(
            f"resultant needs positive degree in {v} for both inputs "
            f"(got {da} and {db})")
    sign = 1
    if da < db:
        a, b = b, a
        da, db = db, da
        if (da * db) % 2:
            sign = -sign
    # contents over the coefficient ring
    ca, A = _content_and_primitive_wrt(a, v)
    cb, B = _content_and_primitive_wrt(b, v)
    t = (ca ** db) * (cb ** da)
    g = LaurentMPoly.const(1)
    h = LaurentMPoly.const(1)
    while True:
        dA, dB = A.degree(v), B.degree(v)
        if dA % 2 and dB % 2:
            sign = -sign
        delta = dA - dB
        R = _pseudo_rem(A, B, v)
        if R.is_zero():
            # common factor of positive v-degree
            return LaurentMPoly.zero()
        A = B
        denom = g * (h ** delta)
        B = exact_divide(R, denom)
        g = A.as_univariate(v)[A.degree(v)]
        if delta:
            h = exact_divide(g ** delta, h ** (delta - 1)) if delta > 1 else g
        if B.degree(v) <= 0:
            break
    dA = A.degree(v)
    lB = B  # v-free
    res = exact_divide(lB ** dA, h ** (dA - 1)) if dA > 1 else lB
    out = t * res
    return out if sign > 0 else -out


def squarefree_part(a: LaurentMPoly, v: str) -> LaurentMPoly:
    """Distinct-factor part with respect to v; the v-free content is passed
    through untouched."""
    if a.is_zero():
        return a
    p, unit = a.clear_laurent()
    if p.degree(v) <= 0:
        return a
    cont, pp = _content_and_primitive_wrt(p, v)
    out = cont * gcd_cofactors(pp, pp.derivative(v))[1]
    for w, k in unit.items():
        if w != v:  # the unit in v itself is a repeated-factor artifact
            out = out.shift_var(w, k)
    return out


# -- parsing and formatting ------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\d+|[\^\*\+\-/()])")


def format_coeff(c: Coeff) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p: LaurentMPoly) -> str:
    """Canonical text form: graded-lex descending terms, '^' powers,
    '*' products, coefficients as integers or num/den."""
    if p.is_zero():
        return "0"
    parts = []
    for exp, c in p.sorted_terms():
        factors = []
        for v, k in zip(p.vars, exp):
            if k == 0:
                continue
            factors.append(v if k == 1 else f"{v}^{k}")
        mag = abs(c)
        if not factors:
            body = format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_coeff(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class _Parser:
    """Recursive descent over polynomial text.  `divide` and `power` are
    the two rules a reader of rational-function text widens."""

    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise DomainError(f"cannot tokenize polynomial near {text[pos:pos+20]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse_sum(self) -> LaurentMPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        acc = self.parse_product() * sign
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    sign = -sign
            acc = acc + self.parse_product() * sign
        return acc

    def parse_product(self) -> LaurentMPoly:
        acc = self.parse_factor()
        while True:
            t = self.peek()
            if t == "*":
                self.next()
                acc = acc * self.parse_factor()
            elif t == "/":
                self.next()
                acc = self.divide(acc, self.parse_factor())
            else:
                return acc

    def divide(self, acc, d):
        if not d.is_constant() or d.is_zero():
            raise DomainError("only division by a nonzero integer is "
                              "allowed inside polynomial text")
        dv = d.constant_value()
        return acc.map_coeffs(lambda c: c / dv)

    def parse_factor(self) -> LaurentMPoly:
        t = self.next()
        if t is None:
            raise DomainError("unexpected end of polynomial text")
        if t == "(":
            inner = self.parse_sum()
            if self.next() != ")":
                raise DomainError("unbalanced parenthesis in polynomial text")
            base = inner
        elif t == "-":
            return -self.parse_factor()
        elif t.isdigit():
            base = LaurentMPoly.const(int(t))
        elif t[0].isalpha():
            base = LaurentMPoly.var(t)
        else:
            raise DomainError(f"unexpected token {t!r} in polynomial text")
        if self.peek() == "^":
            self.next()
            neg = False
            e = self.next()
            if e == "-":
                neg = True
                e = self.next()
            if e is None or not e.isdigit():
                raise DomainError("malformed exponent in polynomial text")
            return self.power(base, -int(e) if neg else int(e))
        return base

    def power(self, base, k: int):
        if k >= 0:
            return base ** k
        if base.is_zero():
            raise DomainError("zero to a negative power")
        if len(base.terms) > 1:
            raise DomainError("negative power of a polynomial with more "
                              "than one term in polynomial text")
        (exp, c), = base.terms.items()
        return LaurentMPoly(base.vars, {tuple(x * k for x in exp):
                                        Fraction(1) / c ** -k})

    def parse_all(self):
        out = self.parse_sum()
        if self.peek() is not None:
            raise DomainError(
                f"trailing input in polynomial text: {self.peek()!r}")
        return out


def parse_poly(text: str) -> LaurentMPoly:
    return _Parser(text).parse_all()
