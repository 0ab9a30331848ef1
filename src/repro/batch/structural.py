"""Structural identity of compiled convex programs.

Two pipeline jobs are *structurally identical* when the solver would see
the exact same mathematical program: the same stacked posynomial term
arrays (coefficients, exponents, row scatter), the same linear epigraph
rows, the same bounds, the same edge/source/sink wiring, and the same
machine parameters. Node *names* are deliberately excluded — the
:class:`~repro.allocation.variables.VariableLayout` fixes a canonical
variable order, so an isomorphic graph with renamed nodes compiles to the
same arrays and can reuse a finished solution by position.

The identity hashes the *scaled* program (every
:class:`~repro.allocation.formulation.ConvexAllocationProblem` normalizes
times by its own serial estimate), so solutions are stored in scale-free
form — log-processor counts and a scaled objective — and converted back
to seconds with the consumer's own ``time_scale``.
"""

from __future__ import annotations

import numpy as np

from repro.allocation.formulation import ConvexAllocationProblem
from repro.store.artifact import content_hash

__all__ = ["structural_signature", "structural_key"]


def _array(a: np.ndarray) -> list:
    """A JSON-exact encoding of a float/int array (nested lists)."""
    return np.asarray(a).tolist()


def structural_signature(problem: ConvexAllocationProblem) -> dict:
    """The exact program: its layout, wiring, bounds and every coefficient.

    Coefficients are hashed in scaled space (post ``time_scale``
    normalization), so two graphs whose costs differ only by a global
    constant factor hash identically — their optima coincide after
    rescaling, which is exactly what the scale-free stored solution
    exploits.
    """
    lin = problem.linear_constraint()
    bounds = problem.bounds()
    layout = problem.layout
    return {
        "n_vars": problem.n_vars,
        "n_log_vars": layout.n_log_vars,
        "n_rows": problem._bt_n_rows,
        "term_exponents": _array(problem._bt_exps),
        "term_rows": _array(problem._bt_rows),
        "nonlinear_linear_part": _array(problem._bt_linear),
        "linear_constraint": None if lin is None else _array(np.asarray(lin.A)),
        "bounds_lb": _array(bounds.lb),
        # +inf upper bounds are not JSON-encodable; the pattern of finite
        # vs infinite entries is what matters structurally.
        "bounds_ub": [
            v if np.isfinite(v) else "inf" for v in np.asarray(bounds.ub)
        ],
        "n_edges": len(problem._edge_list),
        "n_sources": len(problem._source_list),
        "n_sinks": len(problem._sink_list),
        "processors": problem.machine.processors,
        "term_coefficients": _array(problem._bt_coeffs),
    }


def structural_key(problem: ConvexAllocationProblem) -> str:
    """SHA-256 cache key for exact structural solve reuse."""
    return content_hash(structural_signature(problem))
