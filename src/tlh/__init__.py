"""Exact symbolic engine for triply graded torus-link homology series.

Everything is computed over arbitrary-precision integers on a quarter-integer
exponent lattice in the three grading variables q, a, t.  The package
provides:

* :mod:`tlh.poly` - sparse Laurent polynomials, factored fractions, exact
  division, truncated power series;
* :mod:`tlh.budget` - the memory pre-flight: every estimate of what a run
  would hold is checked against physical memory there, before it is held;
* :mod:`tlh.shuffle` - the recursion over binary shuffle sequences, stepped
  on packed integers, and its independent insertion-recursion twin;
* :mod:`tlh.closed_form` - direct enumeration of the Hochschild-degree-zero
  series of full twists;
* :mod:`tlh.tableaux` - partitions, corner weights, and the tableau sum over
  standard Young tableaux;
* :mod:`tlh.links` - reduced superpolynomials, normalization, classical
  specializations, and the q,t-Catalan oracle;
* :mod:`tlh.verify` - named THEOREM/CONJECTURE verification suites;
* :mod:`tlh.cli` - the ``tlh`` command-line tool.
"""

from .poly import (
    A,
    ONE,
    ONE_MINUS_Q,
    Q,
    T,
    UNIT,
    ZERO,
    BinomialFactor,
    FracPoly,
    NonExactDivision,
    NonIntegralPower,
    NotASeries,
    NotPolynomial,
    Polynomial,
)
from .serialize import ParseError, dumps, parse_frac, parse_poly
from .budget import MemoryBudgetExceeded
from .shuffle import (
    EntryOutOfBounds,
    IncompatiblePair,
    MemoDivergence,
    all_sequences,
    crossings,
    full_twist_series,
    insert_into_zeros,
    insertion_series,
    insertion_weight,
    poincare_poly,
    poincare_series,
    zero_expansion_identity,
)
from .closed_form import hochschild_zero_series, level_functions, level_stats
from .tableaux import (
    Box,
    NotInnerCorner,
    Partition,
    StandardTableau,
    a_envelope,
    box_monomial,
    corner_weight,
    corner_weights_sum_to_one,
    corners,
    hook_length_count,
    partition_monomial,
    partitions_of,
    standard_tableaux,
    tableau_sum,
    tableau_weight,
    tableau_weights_sum_to_one,
)
from .links import (
    SuperPolyEntry,
    UnknownLink,
    dataset_get,
    dataset_keys,
    decategorify,
    dyck_paths,
    lowest_a_slice,
    monomial_ratio,
    normalize_superpoly,
    qt_catalan,
    reduce_by_unknot,
    sl_specialization,
    two_strand_superpoly,
    unknot_invariant,
)

__version__ = "1.0.0"
