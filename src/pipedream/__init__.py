"""Exact combinatorics of bumpless pipe dreams.

Grids, the bijection with alternating sign matrices, pipe removal and
reinsertion, Schubert and beta-Grothendieck principal specializations,
pattern coefficients, and a harness of exhaustive machine checks.
"""

from .enumeration import (DEFAULT_GUARD, RemovablePipeReport, SetQuery,
                          count_asms_bruteforce, count_asms_literal,
                          enumerate_asm, query, removable_pipes)
from .errors import (BoundaryLeak, BrokenStrand, CheckFailed, GridError,
                     GuardExceeded, InconsistentAsm, NegativeExponent,
                     NotAPermutation, NotBijective, NotMinimal,
                     PipedreamError, SubwordMismatch, UnknownCheck,
                     WitnessNotFound)
from .grid import (Asm, BpdGrid, PipeTrace, Tile, from_asm, from_json,
                   is_valid, render, to_asm, trace, validate)
from .checks import CHECK_IDS, CheckReport, MaximaRow, maxima_table, run_check
from .ktheory import NonreducedWitness, beta_weight, nonreduced_witness, resolve
from .perms import (Permutation, SubwordSelection, all_perms, flatten,
                    is_vexillary, layered, pattern_count, skew_sum, subwords)
from .polynomials import BetaPolynomial, MultivariatePolynomial
from .removal import insert, remove
from .specialization import (SkewReport, coefficient, coefficient_table,
                             grothendieck, nu, nu_table, schubert,
                             skew_identities)

__version__ = "0.1.0"

__all__ = [
    "Asm", "BetaPolynomial", "BoundaryLeak", "BpdGrid", "BrokenStrand",
    "CHECK_IDS", "CheckFailed", "CheckReport", "DEFAULT_GUARD", "GridError",
    "GuardExceeded", "InconsistentAsm", "MaximaRow", "MultivariatePolynomial",
    "NegativeExponent", "NonreducedWitness", "NotAPermutation", "NotBijective",
    "NotMinimal", "Permutation", "PipeTrace", "PipedreamError",
    "RemovablePipeReport", "SetQuery", "SkewReport",
    "SubwordMismatch", "SubwordSelection", "Tile", "UnknownCheck",
    "WitnessNotFound", "all_perms", "beta_weight", "coefficient",
    "coefficient_table", "count_asms_bruteforce", "count_asms_literal",
    "enumerate_asm", "flatten", "from_asm", "from_json", "grothendieck",
    "insert", "is_valid", "is_vexillary", "layered", "maxima_table",
    "nonreduced_witness", "nu", "nu_table", "pattern_count", "query",
    "removable_pipes", "remove", "render", "resolve", "run_check", "schubert",
    "skew_identities", "skew_sum", "subwords", "to_asm", "trace", "validate",
]
