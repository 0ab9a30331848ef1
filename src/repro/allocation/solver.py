"""Interior-point solver for the convex allocation program.

:class:`~repro.allocation.formulation.ConvexAllocationProblem` is a
geometric program. Here it is solved in the standard GP form of gpkit /
cvxopt ``gp``: every variable is a logarithm (``log p``, ``log m``,
``log y`` and ``log Phi``), and every nonlinear row is one log-sum-exp over
stacked monomials, built from the problem's ``_bt_exps`` /
``_bt_log_coeffs`` / ``_bt_rows`` / ``_bt_linear`` arrays. An edge row
``y_m + D_mi + T_i <= y_i`` becomes ``y_m/y_i + D_mi/y_i + T_i/y_i <= 1``.
The max-variable and sink rows stay linear, and the box ``0 <= log p <=
log P`` becomes linear rows too.

One primal-dual interior-point solve (Mehrotra predictor-corrector) runs
on that form, from a strictly feasible start with slack variables ``s`` and
multipliers ``z``. Each Newton system is solved by a dense Cholesky
factorization of the reduced matrix ``H + J^T diag(z/s) J``; the sparse
monomial and Jacobian matrices only assemble it. Because the objective is
``log Phi``, the duality gap ``s^T z`` bounds the *relative* suboptimality
of ``Phi``.

The solve stops when the gap is below ``tolerance`` and the primal and dual
residuals are below ``feasibility_tolerance``. If it reaches
``max_iterations`` or ``timeout_seconds`` first, or the factorization
breaks down, it is not converged: ``strict``
raises :class:`~repro.errors.SolverError`, and ``strict=False`` returns the
analytic uniform fallback, flagged by ``info["fallback"]`` and a
``solver.fallback`` warning event. An unconverged solve is never returned
as an optimum. An active :class:`~repro.resilience.Deadline` is checked
every iteration and aborts with :class:`~repro.errors.DeadlineExceeded`.

Variables fixed by their bounds (the dummy START/STOP nodes, pinned to one
processor, or every node on a one-processor machine) are substituted out,
and so are finish times that are identically zero (a dummy source's), so
the barrier only sees variables with a strict interior.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.sparse import coo_matrix, csr_matrix, vstack

from repro import obs
from repro.allocation.formulation import ConvexAllocationProblem
from repro.allocation.result import Allocation
from repro.errors import SolverError
from repro.graph.mdg import MDG
from repro.machine.parameters import MachineParameters
from repro.resilience.deadline import check_deadline

__all__ = ["ConvexSolverOptions", "solve_allocation"]

#: How far each max variable of the start sits above its larger endpoint
#: (a fraction of the room left below its upper bound), and the relative
#: margin added to each finish time, so that every inequality holds
#: strictly at the first iterate.
_MAX_VAR_LIFT = 0.005
_START_MARGIN = 0.1
#: Convergence record of a solve that broke down before its first iterate.
_NO_ITERATE = {"iterations": 0, "status": "breakdown", "gap": None,
               "primal_residual": None, "dual_residual": None,
               "objective": None}
#: Fraction-to-boundary factor of the step length.
_STEP_FRACTION = 0.99


@dataclass(frozen=True)
class ConvexSolverOptions:
    """Knobs for :func:`solve_allocation`."""

    #: Interior-point iteration cap; reaching it means "not converged".
    max_iterations: int = 100
    #: Convergence threshold on the duality gap: relative on ``Phi``,
    #: since the objective is ``log Phi``.
    tolerance: float = 1e-12
    #: Convergence threshold on the primal and dual residuals (max-norm,
    #: in log units).
    feasibility_tolerance: float = 1e-10
    #: Print one line per iteration.
    verbose: bool = False
    #: Wall-clock cap on the solve (seconds). ``None`` = unlimited.
    timeout_seconds: float | None = None
    #: ``True``: raise :class:`SolverError` when the solve does not
    #: converge. ``False``: return the analytic uniform fallback allocation
    #: and emit a ``solver.fallback`` warning event.
    strict: bool = True

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and not self.timeout_seconds > 0.0:
            raise SolverError(
                f"timeout_seconds must be positive, got {self.timeout_seconds!r}"
            )
        if self.max_iterations < 1:
            raise SolverError(
                f"max_iterations must be >= 1, got {self.max_iterations!r}"
            )


class _StandardForm:
    """The allocation program as ``min w  s.t.  lse(F u + b)_r <= 0, G u <= h``.

    ``u`` holds the free log variables (fixed and identically-zero ones are
    substituted out); ``w = log Phi`` is one of them.
    """

    def __init__(self, problem: ConvexAllocationProblem):
        layout = problem.layout
        n_vars, nlog = problem.n_vars, layout.n_log_vars
        bounds = problem.bounds()
        linear = problem._bt_linear
        self.problem = problem

        # Nonlinear row r reads  numerator_r <= d_r  for one variable d_r.
        # Its monomials, divided by d_r, are the row's posynomial terms plus
        # one per ``+1`` variable of its linear part (``y_m`` of an edge).
        denominators = np.argmax(linear < 0.0, axis=1)
        plus_rows, plus_cols = np.nonzero(linear > 0.0)
        n_terms = problem._bt_rows.size
        rows = np.concatenate([problem._bt_rows, plus_rows])
        term_idx, var_idx = np.nonzero(problem._bt_exps)
        exps = coo_matrix(
            (
                np.concatenate([problem._bt_exps[term_idx, var_idx],
                                np.ones(plus_rows.size), -np.ones(rows.size)]),
                (np.concatenate([term_idx, n_terms + np.arange(plus_rows.size),
                                 np.arange(rows.size)]),
                 np.concatenate([var_idx, plus_cols, denominators[rows]])),
            ),
            shape=(rows.size, n_vars),
        ).tocsc()
        log_coeffs = np.concatenate([problem._bt_log_coeffs, np.zeros(plus_rows.size)])

        # Finish times that are identically zero: no live row bounds them
        # from below, and their monomials vanish. Iterate to a fixpoint.
        numerators = (exps > 0.0).astype(float)
        zero = np.zeros(n_vars, dtype=bool)
        while True:
            live_terms = (numerators @ zero) == 0.0
            live_rows = np.zeros(linear.shape[0], dtype=bool)
            live_rows[rows[live_terms]] = True
            unbounded = np.ones(n_vars, dtype=bool)
            unbounded[:nlog] = False
            unbounded[denominators[live_rows]] = False
            if np.array_equal(unbounded, zero):
                break
            zero = unbounded
        keep = live_terms & live_rows[rows]

        fixed = np.zeros(n_vars, dtype=bool)
        fixed[:nlog] = bounds.lb[:nlog] >= bounds.ub[:nlog]
        free = ~(fixed | zero)
        self.fixed_values = np.where(fixed, bounds.lb, 0.0)
        self.zero, self.free = zero, free
        self.degenerate = bool(zero[layout.phi_index])
        if self.degenerate:
            return  # no node costs time: Phi is identically zero
        index = np.cumsum(free) - 1  # problem index -> free index
        self.phi = int(index[layout.phi_index])
        self.n_free = int(free.sum())

        exps = exps[keep]
        self.b = log_coeffs[keep] + exps[:, fixed] @ self.fixed_values[fixed]
        self.F = exps[:, free].tocsr()
        _, self.term_row = np.unique(rows[keep], return_inverse=True)
        self.n_rows = int(self.term_row.max()) + 1 if self.term_row.size else 0
        self.scatter = csr_matrix(
            (np.ones(self.term_row.size),
             (self.term_row, np.arange(self.term_row.size))),
            shape=(self.n_rows, self.term_row.size),
        )

        # Linear rows u_a - u_b <= 0 (sink and max-variable rows) that still
        # hold a free variable, then the box of every free log variable.
        lin = problem.linear_constraint()
        pairs = np.zeros((0, n_vars)) if lin is None else np.asarray(lin.A)
        pairs = pairs[~np.any(zero & (pairs > 0.0), axis=1)]  # y_t == 0 <= Phi
        pairs = pairs[np.any(free & (pairs != 0.0), axis=1)]
        boxed = np.nonzero(free[:nlog])[0]
        self.G = vstack([
            csr_matrix(pairs[:, free]),
            csr_matrix(
                (np.tile([-1.0, 1.0], boxed.size),
                 (np.arange(2 * boxed.size), np.repeat(index[boxed], 2))),
                shape=(2 * boxed.size, self.n_free),
            ),
        ]).tocsr()
        self.h = np.concatenate([
            -(pairs[:, fixed] @ self.fixed_values[fixed]),
            np.column_stack([-bounds.lb[boxed], bounds.ub[boxed]]).ravel(),
        ])
        self.c = np.zeros(self.n_free)
        self.c[self.phi] = 1.0

    def to_log(self, z: np.ndarray) -> np.ndarray:
        """A point of the problem (``y``/``phi`` linear) in free log space."""
        nlog = self.problem.layout.n_log_vars
        logs = z.copy()
        with np.errstate(divide="ignore"):
            logs[nlog:] = np.log(z[nlog:])
        return logs[self.free]

    def to_problem(self, u: np.ndarray) -> np.ndarray:
        """The problem point of the free log variables ``u``."""
        nlog = self.problem.layout.n_log_vars
        logs = self.fixed_values.copy()
        logs[self.free] = u
        logs[self.zero] = -np.inf
        logs[nlog:] = np.exp(logs[nlog:])
        return logs

    def lse(self, u: np.ndarray):
        """Row values ``f(u)`` and the softmax weights of every monomial."""
        y = self.F @ u + self.b
        peak = np.full(self.n_rows, -np.inf)
        np.maximum.at(peak, self.term_row, y)
        e = np.exp(y - peak[self.term_row])
        sums = np.bincount(self.term_row, weights=e, minlength=self.n_rows)
        return peak + np.log(sums), e / sums[self.term_row]

    def rows(self, u: np.ndarray):
        """Every inequality's value (``<= 0`` when it holds), and the
        softmax weights."""
        f, weights = self.lse(u)
        return np.concatenate([f, self.G @ u - self.h]), weights


def _solve_standard_form(gp: _StandardForm, u: np.ndarray,
                         options: ConvexSolverOptions) -> tuple[np.ndarray, dict]:
    """Mehrotra predictor-corrector from the strictly feasible ``u``.

    Returns the final iterate and its convergence record, whose ``status``
    is ``converged``, or ``max_iterations``, ``timeout`` or ``breakdown``
    when the iteration cap, the time cap, a failed factorization or a start
    that is not strictly feasible stopped it first.
    """
    n_f = gp.n_rows
    values, weights = gp.rows(u)
    s = -values
    if not np.all(s > 0.0):
        return u, {**_NO_ITERATE,
                   "message": "interior-point start is not strictly feasible"}
    m = s.size
    deadline = (
        time.monotonic() + options.timeout_seconds
        if options.timeout_seconds is not None
        else None
    )
    telemetry_on = obs.enabled()
    record = {"iterations": 0, "status": "max_iterations", "step": 0.0}
    z = None
    step = 0.0
    for iteration in range(options.max_iterations + 1):
        weighted = gp.F.multiply(weights[:, None]).tocsr()
        grad_f = (gp.scatter @ weighted).tocsr()
        jac = vstack([grad_f, gp.G]).tocsr()
        if z is None:
            # Start on the central path z = mu / s, with mu chosen so the
            # dual residual has no component along the objective variable.
            pull = -(jac[:, [gp.phi]].toarray().ravel()) / s
            z = (1.0 / max(float(np.sum(pull)), 1e-300)) / s
        dual = gp.c + jac.T @ z
        primal = values + s
        gap = float(s @ z)
        record.update(
            iterations=iteration, gap=gap, step=step,
            dual_residual=float(np.max(np.abs(dual))),
            primal_residual=float(np.max(np.abs(primal))),
            objective=math.exp(u[gp.phi]),
        )
        if telemetry_on:
            obs.event("solver.iteration", method="interior-point", nit=iteration,
                      objective=record["objective"], gap=gap,
                      primal_residual=record["primal_residual"],
                      dual_residual=record["dual_residual"], step=step)
        if options.verbose:
            print(f"ipm {iteration:3d}  phi {record['objective']:.12g}  "
                  f"gap {gap:.3e}  primal {record['primal_residual']:.3e}  "
                  f"dual {record['dual_residual']:.3e}  step {step:.3f}")
        if gap <= options.tolerance and max(
            record["dual_residual"], record["primal_residual"]
        ) <= options.feasibility_tolerance:
            record["status"] = "converged"
            break
        if iteration == options.max_iterations:
            break
        check_deadline("allocate")
        if deadline is not None and time.monotonic() > deadline:
            record["status"] = "timeout"
            break

        z_f = z[:n_f]
        hessian = (
            gp.F.T @ weighted.multiply(z_f[gp.term_row][:, None])
            + grad_f.T @ grad_f.multiply((z_f / s[:n_f] - z_f)[:, None])
            + gp.G.T @ gp.G.multiply((z[n_f:] / s[n_f:])[:, None])
        ).toarray()
        try:
            factor = _cholesky(hessian)
        except LinAlgError:
            record["status"] = "breakdown"
            break

        def direction(complementarity):
            du = cho_solve(factor, -dual - jac.T @ ((z * primal - complementarity) / s))
            jdu = jac @ du
            return du, -primal - jdu, (z * (jdu + primal) - complementarity) / s

        # Predictor (affine scaling), then the centred corrector; primal
        # and dual iterates take their own step lengths.
        du, ds, dz = direction(s * z)
        alpha = min(1.0, _max_step(s, ds), _max_step(z, dz))
        mu_affine = float((s + alpha * ds) @ (z + alpha * dz)) / m
        sigma = (mu_affine / (gap / m)) ** 3
        # Centre no lower than a tenth of the target gap: a complementarity
        # far below it only makes the Newton matrix singular while the
        # residuals still have to converge.
        target = max(sigma * gap / m, 0.1 * options.tolerance / m)
        du, ds, dz = direction(s * z + ds * dz - target)
        step = min(1.0, _STEP_FRACTION * _max_step(s, ds))
        u, s = u + step * du, s + step * ds
        z = z + min(1.0, _STEP_FRACTION * _max_step(z, dz)) * dz
        values, weights = gp.rows(u)
    return u, record


def _max_step(value: np.ndarray, change: np.ndarray) -> float:
    """Largest ``alpha`` keeping ``value + alpha * change >= 0``."""
    falling = change < 0.0
    if not np.any(falling):
        return np.inf
    return float(np.min(-value[falling] / change[falling]))


def _cholesky(matrix: np.ndarray):
    """Cholesky factor, with a growing diagonal shift if it is not PD."""
    try:
        return cho_factor(matrix, check_finite=False)
    except LinAlgError:
        pass
    base = 1e-14 * max(1.0, float(np.max(np.abs(np.diag(matrix)))))
    for power in range(0, 8, 2):
        try:
            shifted = matrix + (base * 10.0**power) * np.eye(matrix.shape[0])
            return cho_factor(shifted, check_finite=False)
        except LinAlgError:
            continue
    raise LinAlgError("reduced Newton matrix is not positive definite")


def _start_point(problem: ConvexAllocationProblem) -> np.ndarray:
    """A strictly feasible problem point: ``sqrt(P)`` on every node.

    ``log sqrt(P)`` is the middle of each node's box; each max variable
    sits just above its endpoints, and finish times and ``phi`` carry a
    relative margin, so no row is tight.
    """
    layout = problem.layout
    z = problem.initial_point()
    ub = problem.bounds().ub
    for edge in layout.max_edges:
        top = max(z[layout.x_index(edge[0])], z[layout.x_index(edge[1])])
        k = layout.m_index(edge)
        z[k] = top + _MAX_VAR_LIFT * (ub[k] - top)
    return problem._complete_point(z, margin=_START_MARGIN)


def solve_allocation(
    mdg: MDG,
    machine: MachineParameters,
    options: ConvexSolverOptions | None = None,
) -> Allocation:
    """Globally optimal continuous processor allocation for ``mdg``.

    The input is normalized (dummy START/STOP added if needed) before
    solving; the returned allocation covers the *normalized* node set, so
    callers that normalized the graph themselves see exactly their nodes.

    Returns an :class:`Allocation` whose ``phi`` is the optimum
    ``max(A_p, C_p)`` in seconds (the solver's scaled objective converted by
    :meth:`ConvexAllocationProblem.seconds`) and whose
    ``average_finish_time`` / ``critical_path_time`` re-evaluate the
    solution with the exact cost model. ``info["solver"]`` (also the one
    entry of ``info["attempts"]``) records the iterations, the duality
    ``gap``, the ``primal_residual`` and the ``dual_residual``.

    Raises
    ------
    SolverError
        If the solve does not converge and ``options.strict`` is set.
    """
    options = options or ConvexSolverOptions()
    normalized = mdg.normalized()
    problem = ConvexAllocationProblem(normalized, machine)
    check_deadline("allocate")
    obs.counter("solver.attempts").inc()
    with obs.span("solver.attempt", method="interior-point") as span:
        try:
            gp = _StandardForm(problem)
            z = _start_point(problem)
            if gp.degenerate:
                record = {"iterations": 0, "status": "converged", "gap": 0.0,
                          "primal_residual": 0.0, "dual_residual": 0.0,
                          "objective": 0.0}
            else:
                u, record = _solve_standard_form(gp, gp.to_log(z), options)
                z = gp.to_problem(u)
        except (ArithmeticError, ValueError) as exc:
            # Numbers that break the standard form or the start are a
            # breakdown too: strict raises, and strict=False falls back.
            record = {**_NO_ITERATE, "message": f"{type(exc).__name__}: {exc}"}
        for key in ("iterations", "gap", "dual_residual", "status"):
            span.set_attr(key, record[key])
    solver_record = {
        "method": "interior-point",
        "status": record["status"],
        "iterations": record["iterations"],
        "phi_scaled": record["objective"],
        "gap": record["gap"],
        "primal_residual": record["primal_residual"],
        "dual_residual": record["dual_residual"],
    }
    if "message" in record:
        solver_record["message"] = record["message"]
    obs.histogram("solver.iterations").observe(record["iterations"])
    if record["status"] != "converged":
        obs.counter("solver.failures").inc()
        if record["status"] == "timeout":
            obs.counter("solver.timeouts").inc()
        if options.strict:
            raise SolverError(
                f"allocation solver did not converge on {problem.describe()}: "
                f"{solver_record!r}"
            )
        return _fallback_allocation(problem, machine, [solver_record])

    processors = problem.allocation_from_point(z)
    a_exact, c_exact = problem.evaluate_allocation(processors)
    phi = problem.seconds(solver_record["phi_scaled"])
    obs.counter("solver.solves").inc()
    obs.event("solver.result", method="interior-point",
              iterations=record["iterations"], phi=phi, gap=record["gap"],
              dual_residual=record["dual_residual"], nodes=problem.layout.n_nodes)
    return Allocation(
        processors=processors,
        phi=phi,
        average_finish_time=a_exact,
        critical_path_time=c_exact,
        info={
            "solver": solver_record,
            "attempts": [solver_record],
            "problem": problem.describe(),
            "time_scale": problem.time_scale,
            "machine": machine.name,
            "total_processors": machine.processors,
        },
    )


def _fallback_allocation(
    problem: ConvexAllocationProblem,
    machine: MachineParameters,
    attempts: list[dict],
) -> Allocation:
    """Guaranteed-feasible analytic allocation when the solve failed.

    Uniform allocations ``p_i = t`` are always inside the GP's feasible
    cone (1 <= t <= p), so the degraded answer never inherits whatever
    numerical pathology stopped the solver. The ladder of targets — powers
    of two up to ``p`` plus ``sqrt(p)``, the Amdahl-style balance point
    between average and critical-path time — is evaluated with the exact
    (unrelaxed) cost model, and the best ``max(A_p, C_p)`` wins.
    """
    p = machine.processors
    candidates = {1.0, float(p), math.sqrt(p)}
    t = 2.0
    while t < p:
        candidates.add(t)
        t *= 2.0
    best_target = None
    best_cost = math.inf
    best_eval = (math.inf, math.inf)
    best_processors: dict[str, float] | None = None
    for target in sorted(candidates):
        z = problem.initial_point(target)
        processors = problem.allocation_from_point(z)
        a_exact, c_exact = problem.evaluate_allocation(processors)
        cost = max(a_exact, c_exact)
        if cost < best_cost:
            best_target = target
            best_cost = cost
            best_eval = (a_exact, c_exact)
            best_processors = processors
    assert best_processors is not None  # candidates is never empty
    obs.counter("solver.fallbacks").inc()
    obs.event(
        "solver.fallback",
        level="warning",
        target=best_target,
        phi=best_cost,
        candidates=len(candidates),
        attempts=len(attempts),
        problem=problem.describe(),
    )
    solver_record = {
        "method": "analytic-fallback",
        "start": best_target,
        "status": None,
        "message": "uniform analytic fallback after solver failure",
        "iterations": 0,
        "phi_scaled": best_cost / problem.time_scale,
    }
    return Allocation(
        processors=best_processors,
        phi=best_cost,
        average_finish_time=best_eval[0],
        critical_path_time=best_eval[1],
        info={
            "solver": solver_record,
            "attempts": attempts,
            "fallback": True,
            "problem": problem.describe(),
            "time_scale": problem.time_scale,
            "machine": machine.name,
            "total_processors": machine.processors,
        },
    )
