"""The convex (geometric) program for MDG allocation.

Builds, from an MDG and a machine description, the epigraph form of

    minimize   Phi = max(A_p, C_p)

over log processor counts ``x_i = ln p_i``:

    minimize   phi
    s.t.       A_p(x) <= phi                           (1 row, posynomial)
               y_m + t^D_mi(x) + T_i(x) <= y_i         (1 row per edge)
               T_s(x) <= y_s                           (1 row per source)
               y_t <= phi                              (1 row per sink, linear)
               x_u <= m_e,  x_v <= m_e                 (per 1D edge, linear)
               0 <= x_i <= ln p

``A_p``, ``T_i`` and ``t^D`` are posynomials in ``e^x`` — sums of
exponentials of affine functions of ``x`` — hence smooth and convex, and
all constraints are convex. Times are internally rescaled so the objective
is O(1) regardless of whether node costs are microseconds or minutes.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, NonlinearConstraint

from repro.costs.node_weights import MDGCostModel
from repro.costs.posynomial import CompiledPosynomial, Posynomial
from repro.errors import AllocationError
from repro.graph.mdg import MDG
from repro.machine.parameters import MachineParameters
from repro.allocation.variables import VariableLayout

__all__ = ["ConvexAllocationProblem"]


class ConvexAllocationProblem:
    """Compiled convex program for one (MDG, machine) pair.

    The MDG must be a valid DAG; it does not need to be normalized (the
    recursion handles multiple sources/sinks), but the paper's pipeline
    always passes the normalized graph.
    """

    def __init__(self, mdg: MDG, machine: MachineParameters):
        mdg.validate()
        self.mdg = mdg
        self.machine = machine
        self.cost_model = MDGCostModel(mdg, machine.transfer_model())

        max_edges = [
            (e.source, e.target) for e in self.cost_model.edges_needing_max_var()
        ]
        self.layout = VariableLayout(mdg, max_edges)
        layout = self.layout

        proc_var = layout.proc_var_map()
        max_var = layout.max_var_map()
        order = layout.log_variable_order

        # --- node weights T_i and the average-finish-time posynomial -----
        raw_T: dict[str, Posynomial] = {
            name: self.cost_model.node_weight_posynomial(name, proc_var, max_var)
            for name in layout.node_names
        }
        area = Posynomial.zero()
        for name, poly in raw_T.items():
            if poly.is_zero():
                continue
            area = area + poly * Posynomial.monomial(
                1.0 / machine.processors, {proc_var[name]: 1.0}
            )

        # --- time scaling --------------------------------------------------
        # Normalize by the serial execution estimate so phi is O(1).
        serial = {name: 1.0 for name in layout.node_names}
        scale = self.cost_model.processor_time_area(serial)
        if scale <= 0.0:
            scale = 1.0
        self.time_scale = scale

        self._T: dict[str, CompiledPosynomial] = {
            name: (poly / scale).compile(order) if not poly.is_zero() else
            Posynomial.zero().compile(order)
            for name, poly in raw_T.items()
        }
        self._A: CompiledPosynomial = (
            (area / scale).compile(order)
            if not area.is_zero()
            else Posynomial.zero().compile(order)
        )
        self._D: dict[tuple[str, str], CompiledPosynomial] = {}
        for edge in mdg.edges():
            poly = self.cost_model.edge_weight_posynomial(edge, proc_var)
            self._D[(edge.source, edge.target)] = (
                (poly / scale).compile(order)
                if not poly.is_zero()
                else Posynomial.zero().compile(order)
            )

        self._edge_list = [(e.source, e.target) for e in mdg.edges()]
        self._source_list = mdg.sources()
        self._sink_list = mdg.sinks()
        self._dummy_nodes = frozenset(
            name
            for name in layout.node_names
            if self._T[name].n_terms == 0
        )
        self._log_p = math.log(machine.processors)
        self._build_batched_terms()
        # The constraint matrices, bounds, and objective gradient are
        # invariants of the problem; build them once instead of on every
        # solver query (each solve makes hundreds of such calls).
        self._cached_linear_constraint = self._build_linear_constraint()
        self._cached_bounds = self._build_bounds()
        self._cached_objective_gradient = np.zeros(self.n_vars)
        self._cached_objective_gradient[self.layout.phi_index] = 1.0

    def _build_batched_terms(self) -> None:
        """Pack every constraint's posynomial terms into shared arrays.

        Evaluating constraints row-by-row costs hundreds of small ``exp``
        calls per solver iteration; stacking all terms lets one vectorized
        ``exp`` (plus a couple of matmuls) produce all values, the whole
        Jacobian block, and the multiplier-weighted Hessian.
        """
        layout = self.layout
        nlog = layout.n_log_vars
        coeff_blocks: list[np.ndarray] = []
        exp_blocks: list[np.ndarray] = []
        row_blocks: list[np.ndarray] = []

        def push(poly: CompiledPosynomial, row: int) -> None:
            if poly.n_terms == 0:
                return
            coeff_blocks.append(poly.coefficients)
            exp_blocks.append(poly.exponents)
            row_blocks.append(np.full(poly.n_terms, row, dtype=np.intp))

        push(self._A, 0)
        row = 1
        for (m, i) in self._edge_list:
            push(self._D[(m, i)], row)
            push(self._T[i], row)
            row += 1
        for s in self._source_list:
            push(self._T[s], row)
            row += 1
        n_rows = row

        if coeff_blocks:
            self._bt_coeffs = np.concatenate(coeff_blocks)
            self._bt_log_coeffs = np.log(self._bt_coeffs)
            self._bt_exps = np.vstack(exp_blocks)
            self._bt_rows = np.concatenate(row_blocks)
        else:
            self._bt_coeffs = np.zeros(0)
            self._bt_log_coeffs = np.zeros(0)
            self._bt_exps = np.zeros((0, nlog))
            self._bt_rows = np.zeros(0, dtype=np.intp)
        # Sparse scatter matrix S (rows x terms): S @ X sums term rows into
        # constraint rows — faster than np.add.at in the Jacobian hot path.
        from scipy.sparse import csr_matrix

        n_terms = self._bt_coeffs.size
        self._bt_scatter = csr_matrix(
            (
                np.ones(n_terms),
                (self._bt_rows, np.arange(n_terms)),
            ),
            shape=(row, n_terms),
        )

        # Linear part of the nonlinear rows: the y / phi occurrences.
        linear = np.zeros((n_rows, layout.n_vars))
        linear[0, layout.phi_index] = -1.0
        row = 1
        for (m, i) in self._edge_list:
            linear[row, layout.y_index(m)] = 1.0
            linear[row, layout.y_index(i)] = -1.0
            row += 1
        for s in self._source_list:
            linear[row, layout.y_index(s)] = -1.0
            row += 1
        self._bt_linear = linear
        self._bt_n_rows = n_rows
        self._tw_key: bytes | None = None
        self._tw_value: np.ndarray = self._bt_coeffs

    def _compute_term_weights(self, xlog: np.ndarray) -> np.ndarray:
        return np.exp(self._bt_log_coeffs + self._bt_exps @ xlog)

    def _term_weights(self, xlog: np.ndarray) -> np.ndarray:
        """``c_k * exp(a_k . x)`` for every stacked term.

        Memoized on the last-seen point: within one solver iteration the
        value, Jacobian, and Hessian callbacks all evaluate at the same
        ``x``, so one shared ``exp`` serves all three.
        """
        if self._bt_coeffs.size == 0:
            return self._bt_coeffs
        key = xlog.tobytes()
        if key != self._tw_key:
            self._tw_value = self._compute_term_weights(xlog)
            self._tw_key = key
        return self._tw_value

    # ----- dimensions -----------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self.layout.n_vars

    @property
    def n_nonlinear_constraints(self) -> int:
        return 1 + len(self._edge_list) + len(self._source_list)

    # ----- objective -------------------------------------------------------

    def objective(self, z: np.ndarray) -> float:
        return float(z[self.layout.phi_index])

    def objective_gradient(self, z: np.ndarray) -> np.ndarray:
        return self._cached_objective_gradient

    # ----- nonlinear constraints g(z) <= 0 ---------------------------------

    def constraint_values(self, z: np.ndarray) -> np.ndarray:
        layout = self.layout
        xlog = z[: layout.n_log_vars]
        rows = self._bt_linear @ z
        if self._bt_coeffs.size:
            rows += np.bincount(
                self._bt_rows,
                weights=self._term_weights(xlog),
                minlength=self._bt_n_rows,
            )
        return rows

    def constraint_jacobian(self, z: np.ndarray) -> np.ndarray:
        layout = self.layout
        nlog = layout.n_log_vars
        xlog = z[:nlog]
        jac = self._bt_linear.copy()
        if self._bt_coeffs.size:
            weighted = self._term_weights(xlog)[:, None] * self._bt_exps
            jac[:, :nlog] += self._bt_scatter @ weighted
        return jac

    def constraint_hessian(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``sum_r v_r * hess g_r(z)`` — exact, from the posynomial algebra.

        Only the leading log block is curved (``y``/``phi`` enter linearly),
        so the combined Hessian is zero outside it. With the stacked term
        arrays this is a single ``A^T diag(w) A`` product where each term's
        weight is scaled by its row's multiplier.
        """
        layout = self.layout
        nlog = layout.n_log_vars
        xlog = z[:nlog]
        out = np.zeros((self.n_vars, self.n_vars))
        if self._bt_coeffs.size:
            weights = self._term_weights(xlog) * np.asarray(v, float)[self._bt_rows]
            out[:nlog, :nlog] = (self._bt_exps.T * weights) @ self._bt_exps
        return out

    def objective_hessian(self, z: np.ndarray) -> np.ndarray:
        """The objective is linear; its Hessian is identically zero."""
        return np.zeros((self.n_vars, self.n_vars))

    def nonlinear_constraint(self) -> NonlinearConstraint:
        return NonlinearConstraint(
            self.constraint_values,
            -np.inf,
            0.0,
            jac=self.constraint_jacobian,
            hess=self.constraint_hessian,
        )

    # ----- linear constraints ----------------------------------------------

    def linear_constraint(self) -> LinearConstraint | None:
        """Sink epigraph rows plus the max-variable rows, as one matrix."""
        return self._cached_linear_constraint

    def _build_linear_constraint(self) -> LinearConstraint | None:
        layout = self.layout
        rows: list[np.ndarray] = []
        for t in self._sink_list:
            row = np.zeros(self.n_vars)
            row[layout.y_index(t)] = 1.0
            row[layout.phi_index] = -1.0
            rows.append(row)
        for edge in layout.max_edges:
            u, v = edge
            for endpoint in (u, v):
                row = np.zeros(self.n_vars)
                row[layout.x_index(endpoint)] = 1.0
                row[layout.m_index(edge)] = -1.0
                rows.append(row)
        if not rows:
            return None
        return LinearConstraint(np.vstack(rows), -np.inf, 0.0)

    # ----- bounds ------------------------------------------------------------

    def bounds(self) -> Bounds:
        return self._cached_bounds

    def _build_bounds(self) -> Bounds:
        layout = self.layout
        lower = np.zeros(self.n_vars)
        upper = np.full(self.n_vars, np.inf)
        upper[: layout.n_log_vars] = self._log_p
        # Dummy (zero-weight) nodes contribute nothing; pin them to one
        # processor to remove flat directions from the problem.
        for name in self._dummy_nodes:
            idx = layout.x_index(name)
            upper[idx] = 0.0
        return Bounds(lower, upper)

    # ----- initial point -------------------------------------------------------

    def initial_point(self, target_processors: float | None = None) -> np.ndarray:
        """A strictly feasible start: every node at ``target_processors``.

        ``y`` is filled by the forward recursion evaluated with the *same*
        compiled posynomials the constraints use, and ``phi`` sits just
        above ``max(A, y_sinks)``, so the start satisfies every constraint.
        """
        layout = self.layout
        p = self.machine.processors
        if target_processors is None:
            target_processors = math.sqrt(p)
        target_processors = min(max(float(target_processors), 1.0), float(p))
        z = np.zeros(self.n_vars)
        x_val = math.log(target_processors)
        for name in layout.node_names:
            z[layout.x_index(name)] = 0.0 if name in self._dummy_nodes else x_val
        return self._complete_point(z)

    def _complete_point(self, z: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Raise each max var to its endpoints and fill ``y`` and ``phi`` so
        ``z`` is feasible.

        A positive ``margin`` makes every finish time and ``phi`` that
        factor larger than the recursion needs, so each row holds strictly.
        """
        layout = self.layout
        for edge in layout.max_edges:
            k = layout.m_index(edge)
            z[k] = max(z[k], z[layout.x_index(edge[0])], z[layout.x_index(edge[1])])
        xlog = z[: layout.n_log_vars]
        finish: dict[str, float] = {}
        for name in self.mdg.topological_order():
            best = 0.0
            for edge in self.mdg.in_edges(name):
                candidate = finish[edge.source] + self._D[
                    (edge.source, edge.target)
                ].value(xlog)
                best = max(best, candidate)
            finish[name] = (best + self._T[name].value(xlog)) * (1.0 + margin)
            z[layout.y_index(name)] = finish[name]
        phi = max(
            self._A.value(xlog),
            max((finish[t] for t in self._sink_list), default=0.0),
        )
        z[layout.phi_index] = phi * (1.0 + max(margin, 1e-9)) + 1e-12
        return z

    # ----- extraction --------------------------------------------------------

    def allocation_from_point(self, z: np.ndarray) -> dict[str, float]:
        """Processor counts ``p_i = e^{x_i}`` for every node."""
        layout = self.layout
        return {
            name: float(math.exp(z[layout.x_index(name)]))
            for name in layout.node_names
        }

    def seconds(self, phi_scaled: float) -> float:
        """A scaled objective value converted back to seconds.

        The one conversion of the solver's objective: the solver's ``phi``
        and a cached allocation's ``phi`` both go through it, so equal
        scaled values give bit-identical seconds.
        """
        return float(phi_scaled) * self.time_scale

    def phi_seconds(self, z: np.ndarray) -> float:
        """The objective value at ``z`` converted back to seconds."""
        return self.seconds(z[self.layout.phi_index])

    def max_violation(self, z: np.ndarray) -> float:
        """Largest constraint violation (scaled units; <= 0 means feasible)."""
        violations = [float(np.max(self.constraint_values(z), initial=-np.inf))]
        lin = self.linear_constraint()
        if lin is not None:
            violations.append(float(np.max(lin.A @ z, initial=-np.inf)))
        b = self.bounds()
        violations.append(float(np.max(b.lb - z, initial=-np.inf)))
        violations.append(float(np.max(z - b.ub, initial=-np.inf)))
        return max(violations)

    def describe(self) -> str:
        return (
            f"ConvexAllocationProblem(nodes={self.layout.n_nodes}, "
            f"edges={len(self._edge_list)}, max_vars={self.layout.n_max}, "
            f"n_vars={self.n_vars}, scale={self.time_scale:.3g}s)"
        )

    # ----- numeric re-evaluation (exact max, unscaled) -------------------------

    def evaluate_allocation(
        self, processors: Mapping[str, float]
    ) -> tuple[float, float]:
        """``(A_p, C_p)`` in seconds for given processor counts, using the
        exact cost model (true ``max``, no geometric-mean relaxation)."""
        if set(processors) != set(self.layout.node_names):
            raise AllocationError("allocation keys do not match the MDG nodes")
        a = self.cost_model.average_finish_time(processors, self.machine.processors)
        c = self.cost_model.critical_path_time(processors)
        return a, c
