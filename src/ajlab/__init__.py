"""Exact q-shift algebra, elimination, and saddle-point numerics.

The pieces fit together in one pipeline: a proper q-hypergeometric
summand exposes exact shift ratios (`qhg`), whose q = 1 limits give a
polynomial system (`elim`) whose elimination ideal cuts out an
A-polynomial candidate; shift operators annihilating the summed sequence
live in `ore` and can be compared against that curve; the same limits
are the derivative forms of a dilogarithm potential (`potential`,
`dilog`) whose saddle value gives the volume.  `figure8` carries the
built-in example with literal coefficient data, and `cli` the command
line.

Submodules load on first use: ``import ajlab`` loads none of them, and
the first access to a public name (``ajlab.jones_symbolic``) or to a
submodule (``ajlab.figure8``) imports its home module and what that
imports.  So ``ajlab.jones_symbolic(n)`` and ``ajlab.jones_eval(n, q)``
load only `errors`, `laurent` and `qhg`: not the gcd layer (`poly`), not
rational functions (`ratfun`), never the elimination or saddle-point
side.
"""

from importlib import import_module

__version__ = "0.1.0"

# home submodule -> the public names it exports
_EXPORTS = {
    "dilog": ("li2",),
    "elim": ("APolyCandidate", "EquationSystem", "OperatorCurveComparison",
             "aj_compare", "cleared_equation", "eliminate", "ratio_system"),
    "errors": ("AjlabError", "BranchCutError", "ConvergenceError",
               "DegeneracyError", "DomainError", "PoleError",
               "SingularityError", "SupportError"),
    "figure8": ("a_polynomial_nonabelian", "cubic_operator",
                "jones_evaluator", "p0_operator", "recurrence_report"),
    "laurent": ("LaurentMPoly", "format_poly"),
    "ore": ("OreOperator", "epsilon_eval_with_unit", "expand_at_one",
            "format_operator", "ore_apply", "ore_mul"),
    "poly": ("parse_poly", "poly_gcd", "poly_lcm", "resultant",
             "squarefree_part"),
    "potential": ("PotentialSpec", "SaddleResult", "asymptotic_check",
                  "builtin_names", "builtin_potential", "crossing_potential",
                  "derivative_forms", "phi_eval", "prop_comp_check",
                  "saddle_system", "solve_saddle", "volume"),
    "qhg": ("ProperQHTerm", "build_crossing", "epsilon_ratio",
            "habiro_figure_eight", "jones_eval", "jones_symbolic",
            "lattice_sum", "shift_ratio"),
    "ratfun": ("RationalFunction", "format_ratfun"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # runs only for a name not yet in the package namespace; the value is
    # stored there, so every later access is a plain lookup
    if name in _HOME:
        value = getattr(import_module("." + _HOME[name], __name__), name)
    elif name in _EXPORTS:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
