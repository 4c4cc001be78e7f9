"""Desk-scale search budgets.

Every exhaustive search in the toolkit is gated by an explicit budget so that
runaway inputs fail fast with a structured ScaleError instead of hanging.
The CLI layer reads HELLYKIT_* environment variables to override fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SearchBudget:
    # exact hitting-set search: the edge cap applies to the input hypergraph,
    # the vertex cap to its reduced core
    max_tau_vertices: int = 24
    max_tau_edges: int = 64
    # subfamily enumeration in the point-hypergraph builder
    max_subfamily_sets: int = 16
    # rainbow tuple enumeration in the colorful-Helly check
    max_rainbow_tuples: int = 100_000

    def scaled(self, **kwargs) -> "SearchBudget":
        return replace(self, **kwargs)


DEFAULT_BUDGET = SearchBudget()

_ENV_FIELDS = {
    "HELLYKIT_MAX_TAU_VERTICES": "max_tau_vertices",
    "HELLYKIT_MAX_TAU_EDGES": "max_tau_edges",
    "HELLYKIT_MAX_SUBFAMILY_SETS": "max_subfamily_sets",
    "HELLYKIT_MAX_RAINBOW_TUPLES": "max_rainbow_tuples",
}


def budget_from_env(environ) -> SearchBudget:
    overrides = {}
    for var, fld in _ENV_FIELDS.items():
        if var in environ:
            try:
                overrides[fld] = int(environ[var])
            except ValueError:
                from .errors import InputError

                raise InputError(f"{var} must be an integer, got {environ[var]!r}")
    return DEFAULT_BUDGET.scaled(**overrides)
