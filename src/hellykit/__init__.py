"""Exact rational toolbox for transversals of convex families.

The package decides intersection questions with certifying linear
programs over the rationals, computes piercing numbers and flat covers
through explicit transversal hypergraphs, checks the colorful Helly
property by exhaustive rainbow sweeps, and generates the extremal
families that show the piercing/cover dichotomy is tight.

Importing the package loads none of its modules: each public name is
imported from its defining module on first access (PEP 562), so a
command-line request loads only the modules its subcommand runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports through the package
_EXPORTS = {
    "bounds": (
        "M",
        "beta_default",
        "f_prime",
        "g_prime",
        "gamma",
        "lam",
        "split_f",
        "split_g",
    ),
    "budgets": ("DEFAULT_BUDGET", "SearchBudget", "budget_from_env"),
    "colorful": (
        "ChReport",
        "HyperplaneCover",
        "LineCover",
        "PiercedClass",
        "check_ch",
        "dichotomy_report",
        "fractional_two_color_search",
        "generic_line_class",
        "helly_witness",
        "intersecting_class",
        "theorem_main_d2",
        "two_color_lemma",
    ),
    "constructions": (
        "FacetCrossingReport",
        "PlanarConstruction",
        "RelintReport",
        "SimplexConstruction",
        "generate_figure1",
        "generate_planar",
        "generate_simplex_family",
        "max_simplex_facets_crossed",
        "verify_relint_property",
    ),
    "errors": (
        "DimensionError",
        "GenerationError",
        "HellykitError",
        "InputError",
        "PreconditionError",
        "ScaleError",
        "TheoremViolationError",
    ),
    "geometry": (
        "AffineFlat",
        "ColoredFamily",
        "FarkasEntry",
        "Halfspace",
        "Hyperplane",
        "IntersectionCertificate",
        "Point",
        "Polyhedron",
        "flat_crosses",
        "hyperplane_crosses",
        "line_through",
        "polyhedra_intersect",
        "polytope_from_vertices",
        "verify_farkas_entries",
        "vertices_of",
    ),
    "hypergraphs": (
        "DualityReport",
        "FractionalResult",
        "Hypergraph",
        "TransversalResult",
        "build_cover_hypergraph",
        "build_point_hypergraph",
        "candidate_lines",
        "candidate_planes",
        "duality_report",
        "line_cover_number",
        "nu_b",
        "nu_star",
        "piercing_number",
        "plane_cover_number",
        "tau",
        "tau_star",
        "transversal_points",
    ),
    "lp": ("Feasible", "Infeasible", "LinearProgram", "Optimal", "Unbounded", "lp_solve"),
    "rationals": ("ONE", "ZERO", "rat", "rat_str"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name's module on first access and cache the value."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
