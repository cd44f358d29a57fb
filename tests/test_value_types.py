"""The value types: construction, equality, hashing, repr, immutability.

Every record class of the package is a slotted subclass of
`laurent.Immutable` with a hand-written ``__init__``; this pins the contract
callers rely on (parameter names, order and defaults, field-tuple
equality within one class, the ``Name(field=value, ...)`` repr, and
refusal of assignment), and that importing the package stays light.
"""

import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import ajlab
from ajlab.elim import APolyCandidate, EquationSystem, OperatorCurveComparison
from ajlab.errors import DomainError
from ajlab.figure8 import p0_operator
from ajlab.poly import parse_poly
from ajlab.potential import PotentialSpec, SaddleResult, builtin_potential
from ajlab.qhg import (LinearForm, PochFactor, ProperQHTerm, QuadForm,
                       habiro_figure_eight, jones_eval, jones_symbolic,
                       lattice_sum)
from ajlab.ratfun import RationalFunction

P = parse_poly


FORM = LinearForm.make({"n": 1}, -1)
QUAD = QuadForm.make({("n", "k1"): -1})
POCH = PochFactor(LinearForm.make({"n": 1, "k1": -1}))

# (class, field names in order, a value for every field, the defaults of
#  the trailing fields a caller may leave out)
CASES = [
    (LinearForm, ("coeffs", "const"), ((("n", 1),), -1), {"const": 0}),
    (QuadForm, ("quad", "lin"), (((("k1", "n"), -1),), FORM), {}),
    (PochFactor, ("length", "denom"), (FORM, True), {"denom": False}),
    (ProperQHTerm,
     ("colors", "nu", "poch", "quad", "sign", "constraints"),
     (("n",), 1, (POCH,), QUAD, LinearForm.make({"k1": 1}), (FORM,)),
     {"sign": LinearForm.make({}), "constraints": ()}),
    (EquationSystem, ("gluing", "longitude", "coordinates", "longitude_kind"),
     ((P("x^2 - x + 1"),), P("l - x"), ("x",), "linear"), {}),
    (APolyCandidate, ("poly", "dropped", "order"),
     (P("l - alpha^2"), ("alpha",), ("x",)), {}),
    (OperatorCurveComparison,
     ("match", "operator_poly", "candidate_poly", "unit"),
     (True, P("l - 1"), P("l - 1"), RationalFunction.one()), {}),
    (PotentialSpec, ("name", "mirror"), ("crossing-", True),
     {"mirror": False}),
    (SaddleResult,
     ("alpha", "coords", "residual", "phi", "im_phi", "l_squared",
      "iterations"),
     (-1 + 0j, {"x": 0.5 - 0.8j}, 0.0, 2j, 2.0, 1 + 0j, 5), {}),
]
IDS = [case[0].__name__ for case in CASES]
# another value for the last field of each class
OTHER_LAST = {
    LinearForm: 5,
    QuadForm: LinearForm.make({}),
    PochFactor: False,
    ProperQHTerm: (),
    EquationSystem: "squared",
    APolyCandidate: ("w1",),
    OperatorCurveComparison: RationalFunction.zero(),
    PotentialSpec: False,
    SaddleResult: 6,
}


@pytest.mark.parametrize("cls, names, values, defaults", CASES, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values, defaults):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for obj in (by_position, by_keyword):
        assert tuple(getattr(obj, n) for n in names) == values
    assert by_position == by_keyword
    required = values[:len(values) - len(defaults)]
    assert names[len(required):] == tuple(defaults)
    short = cls(*required)
    for name, want in defaults.items():
        assert getattr(short, name) == want


@pytest.mark.parametrize("cls, names, values, defaults", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, values, defaults):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    if cls is SaddleResult:  # its coords are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != values
    assert a != cls(*values[:-1], OTHER_LAST[cls])


def test_same_fields_in_another_class_are_unequal():
    a = LinearForm((("n", 1),), 2)
    b = QuadForm((("n", 1),), 2)
    assert a != b and b != a
    assert {a: 1}.get(b) is None


@pytest.mark.parametrize("cls, names, values, defaults", CASES, ids=IDS)
def test_repr_names_every_field(cls, names, values, defaults):
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_repr_of_a_form():
    assert (repr(LinearForm.make({"n": 1}, 2))
            == "LinearForm(coeffs=(('n', 1),), const=2)")
    assert (repr(PotentialSpec("figure8"))
            == "PotentialSpec(name='figure8', mirror=False)")


@pytest.mark.parametrize("cls, names, values, defaults", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, names, values, defaults):
    obj = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, n) for n in names) == values


@pytest.mark.parametrize("obj", [
    P("x^2 - 3*x/2 + 1"),
    RationalFunction(P("x + 1"), P("x - 2")),
    p0_operator(),
], ids=["LaurentMPoly", "RationalFunction", "OreOperator"])
def test_arithmetic_types_are_immutable(obj):
    before = repr(obj)
    for name in (*type(obj).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == before
    assert not hasattr(obj, "__dict__")


def test_compiled_plan_is_not_a_field(monkeypatch):
    # a term keeps its compiled plan in the private slot `_plan`, which
    # takes no part in equality, hashing or repr, and summing never hashes
    # the term
    f = habiro_figure_eight()
    g = ProperQHTerm(f.colors, f.nu, f.poch, f.quad, f.sign, f.constraints)
    assert g is not f and g._plan is not f._plan
    assert g == f and hash(g) == hash(f)
    assert repr(g) == repr(f) and "_plan" not in repr(g)
    assert repr(g).startswith("ProperQHTerm(colors=('n',), nu=1, poch=(")
    for obj in (f, g):
        with pytest.raises(AttributeError):
            obj._plan = None
        with pytest.raises(AttributeError):
            del obj._plan

    def unhashable(self):
        raise AssertionError("a summand was hashed")

    monkeypatch.setattr(ProperQHTerm, "__hash__", unhashable)
    with pytest.raises(AssertionError):
        hash(g)
    assert jones_eval(3, 2) == lattice_sum(g, (3,), 2) == Fraction(1819, 64)
    assert jones_symbolic(3) == lattice_sum(g, (3,)).as_polynomial()


@pytest.mark.parametrize("kw, what", [
    ({"sign": LinearForm.make({"k2": 1})}, "sign uses unknown symbol k2"),
    ({"constraints": (FORM, LinearForm.make({"m": 1}))},
     "constraint uses unknown symbol m"),
    ({"quad": QuadForm.make({("k1", "k3"): 1})},
     "exponent uses unknown symbol k3"),
    ({"quad": QuadForm.make({}, {"k3": 1})}, "exponent uses unknown symbol k3"),
])
def test_forms_use_only_the_terms_symbols(kw, what):
    # a term is compiled over its symbols when it is built, so a form
    # naming another symbol is refused then, not when it is evaluated
    with pytest.raises(DomainError, match=f"^{what}$"):
        ProperQHTerm(**{"colors": ("n",), "nu": 1, "poch": (POCH,),
                        "quad": QUAD, **kw})


def test_construction_checks_still_raise():
    with pytest.raises(DomainError, match="integer coefficients"):
        PochFactor(LinearForm.make({"n": Fraction(1, 2)}))
    with pytest.raises(DomainError, match="unsupported color"):
        ProperQHTerm(("x",), 0, (), QUAD)
    with pytest.raises(DomainError, match="negative lattice rank"):
        ProperQHTerm(("n",), -1, (), QUAD)
    with pytest.raises(DomainError, match="unknown symbol"):
        ProperQHTerm(("n",), 0, (POCH,), QUAD)
    with pytest.raises(DomainError, match="integer form"):
        ProperQHTerm(("n",), 1, (POCH,), QUAD,
                     sign=LinearForm.make({"n": Fraction(1, 2)}))
    with pytest.raises(DomainError, match="unknown potential 'knot'"):
        PotentialSpec("knot")
    with pytest.raises(DomainError, match="unknown builtin"):
        builtin_potential("crossing+")


def test_importing_the_package_skips_the_dataclass_machinery():
    # the star import loads every submodule, since they load on first
    # use; the modules checked are what `dataclasses` pulls in, and without
    # a bytecode cache each one is compiled from source on every fresh
    # interpreter
    src = pathlib.Path(ajlab.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "from ajlab import *; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', "
            "'dis', 'tokenize') if m in sys.modules))")
    # -I -S: no site hooks or environment that could import them first
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.split() == []
