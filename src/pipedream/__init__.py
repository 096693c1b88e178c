"""Exact combinatorics of bumpless pipe dreams.

Grids, the bijection with alternating sign matrices, pipe removal and
reinsertion, Schubert and beta-Grothendieck principal specializations,
pattern coefficients, and a harness of exhaustive machine checks.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562) and kept here.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it gives the package
_EXPORTS = {
    "checks": ("CheckReport", "MaximaRow", "maxima_table", "run_check"),
    "enumeration": ("RemovablePipeReport", "SetQuery", "count_asms_bruteforce",
                    "count_asms_literal", "enumerate_asm", "query", "removable_pipes"),
    "errors": ("BoundaryLeak", "BrokenStrand", "CHECK_IDS", "CheckFailed", "GridError",
               "GuardExceeded", "InconsistentAsm", "NegativeExponent", "NotAPermutation",
               "NotBijective", "NotMinimal", "PipedreamError", "SubwordMismatch",
               "UnknownCheck", "WitnessNotFound"),
    "grid": ("Asm", "BpdGrid", "PipeTrace", "Tile", "from_asm", "from_json", "is_valid",
             "render", "to_asm", "trace", "validate"),
    "ktheory": ("NonreducedWitness", "beta_weight", "nonreduced_witness", "resolve"),
    "perms": ("Permutation", "SubwordSelection", "all_perms", "flatten", "is_vexillary",
              "layered", "pattern_count", "skew_sum", "subwords"),
    "polynomials": ("BetaPolynomial", "MultivariatePolynomial"),
    "removal": ("insert", "remove"),
    "specialization": ("SkewReport", "coefficient", "coefficient_table", "grothendieck",
                       "nu", "nu_table", "schubert", "skew_identities"),
    "store": ("DEFAULT_GUARD", "size_guard"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a home module itself, so ``pipedream.grid`` needs no import
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
