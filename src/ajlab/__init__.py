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
"""

from .dilog import li2
from .elim import (
    APolyCandidate,
    EquationSystem,
    OperatorCurveComparison,
    aj_compare,
    cleared_equation,
    eliminate,
    ratio_system,
)
from .errors import (
    AjlabError,
    BranchCutError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    PoleError,
    SingularityError,
    SupportError,
)
from .figure8 import (
    a_polynomial_nonabelian,
    builtin_names,
    cubic_operator,
    jones_evaluator,
    p0_operator,
    recurrence_report,
)
from .ore import (
    DiscreteEvaluator,
    OreOperator,
    epsilon_eval_with_unit,
    expand_at_one,
    format_operator,
    ore_apply,
    ore_mul,
    telescope_sum_check,
)
from .poly import (
    LaurentMPoly,
    format_poly,
    parse_poly,
    poly_gcd,
    poly_lcm,
    resultant,
    squarefree_part,
)
from .potential import (
    PotentialSpec,
    SaddleResult,
    asymptotic_check,
    builtin_potential,
    crossing_potential,
    derivative_forms,
    phi_eval,
    prop_comp_check,
    saddle_system,
    solve_saddle,
    volume,
)
from .qhg import (
    ProperQHTerm,
    build_crossing,
    epsilon_ratio,
    habiro_figure_eight,
    jones_eval,
    jones_symbolic,
    lattice_sum,
    shift_ratio,
    support_box,
)
from .ratfun import RationalFunction, format_ratfun

__version__ = "0.1.0"

__all__ = [
    "APolyCandidate",
    "AjlabError",
    "BranchCutError",
    "ConvergenceError",
    "DegeneracyError",
    "DiscreteEvaluator",
    "DomainError",
    "EquationSystem",
    "LaurentMPoly",
    "OperatorCurveComparison",
    "OreOperator",
    "PoleError",
    "PotentialSpec",
    "ProperQHTerm",
    "RationalFunction",
    "SaddleResult",
    "SingularityError",
    "SupportError",
    "a_polynomial_nonabelian",
    "aj_compare",
    "asymptotic_check",
    "build_crossing",
    "builtin_names",
    "builtin_potential",
    "cleared_equation",
    "crossing_potential",
    "cubic_operator",
    "derivative_forms",
    "eliminate",
    "epsilon_eval_with_unit",
    "epsilon_ratio",
    "expand_at_one",
    "format_operator",
    "format_poly",
    "format_ratfun",
    "habiro_figure_eight",
    "jones_eval",
    "jones_evaluator",
    "jones_symbolic",
    "lattice_sum",
    "li2",
    "ore_apply",
    "ore_mul",
    "p0_operator",
    "parse_poly",
    "phi_eval",
    "poly_gcd",
    "poly_lcm",
    "prop_comp_check",
    "ratio_system",
    "recurrence_report",
    "resultant",
    "saddle_system",
    "shift_ratio",
    "solve_saddle",
    "squarefree_part",
    "support_box",
    "telescope_sum_check",
    "volume",
]
