"""Riccati-sweep solver for linear-quadratic memory-feedback control.

For linear dynamics ds = (A s + B u) dt + sigma dw over the extended
state s = (x, z), quadratic cost, and Gaussian densities, the optimal
memory-feedback control is affine,

    u(t, z) = -R^{-1} B^T (Pi K(Lambda)(s - mu) + Psi mu),

where (mu, Lambda) are the mean and precision of the extended-state
Gaussian, Psi solves the classical Riccati equation of the fully
observable problem, and Pi solves a modified Riccati equation whose
extra term prices the information lost by feeding back the conditional
mean E[s|z] = K(Lambda)(s - mu) + mu instead of s. Because the Pi
equation runs backward given Lambda and the Lambda equation runs forward
given Pi, the coupled system is solved by alternating sweeps that hold
the opposite trajectory fixed, recording the closed-loop cost after
every sweep (the sweep loop and the descent rule are fbsweep.core's,
shared with the grid backend; a sweep whose cost rises past
MONOTONICITY_SLACK is recorded, not raised). All three node-level
equations (Psi/Pi backward, Lambda and mu forward) are stepped by one
classical RK4 integrator, _integrate. Cost of each iterate is evaluated
from the exact closed-loop second moments, so the recorded objective is
meaningful even mid-iteration when Lambda is stale. Those moments solve
a linear Lyapunov equation, so each RK4 step of it is one mat-vec
y -> Phi y on y = (vec(Sigma), 1), row-major. The Phi of a batch of
steps are built in one batched pass, (d_s^2 + 1)^2 doubles and O(d_s^6)
flops per step, leaving one small mat-vec per step in the time loop.
That beats stepping the stages one at a time only for small d_s (up to
about 5; the bundled document has 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np
from scipy.linalg.lapack import dgesv

from fbsweep.core import (
    DivergenceError,
    LqgProblem,
    ProblemError,
    SingularPrecisionError,
    _descent_violations,
    _sweep,
    as_time_fn,
    validate_lqg,
)

MONOTONICITY_SLACK = 1e-8


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + np.swapaxes(mat, -1, -2)) / 2.0


def inference_gain(lam: np.ndarray, d_x: int, d_z: Optional[int] = None) -> np.ndarray:
    """Gain K mapping centered extended states to centered conditional means.

    For a Gaussian with precision matrix lam partitioned into state and
    memory blocks, E[s | z] = K (s - mu) + mu with

        K = [[0, -lam_xx^{-1} lam_xz], [0, I]].

    Only the memory block of s enters K (s - mu), so any control built
    from it is automatically a function of z alone. lam may be a single
    (d_s, d_s) matrix or a stack of shape (..., d_s, d_s); a singular or
    non-finite state block in any slice raises SingularPrecisionError.
    """
    lam = np.asarray(lam, dtype=float)
    d_s = lam.shape[-1]
    if d_z is not None and d_x + d_z != d_s:
        raise ProblemError(f"d_x + d_z = {d_x + d_z} does not match matrix size {d_s}")
    lam_xx = lam[..., :d_x, :d_x]
    lam_xz = lam[..., :d_x, d_x:]
    try:
        cross = np.linalg.solve(lam_xx, lam_xz)
    except np.linalg.LinAlgError as exc:
        raise SingularPrecisionError(
            "state block of the precision matrix is singular"
        ) from exc
    if not np.all(np.isfinite(cross)):
        raise SingularPrecisionError(
            "state block of the precision matrix is numerically singular"
        )
    gain = np.zeros(lam.shape)
    gain[..., :d_x, d_x:] = -cross
    gain[..., d_x:, d_x:] = np.eye(d_s - d_x)
    return gain


def _memory_cross(lam_val: np.ndarray, d_x: int) -> np.ndarray:
    """C = lam_xx^{-1} lam_xz of one precision matrix, by one LAPACK solve."""
    _, _, cross, info = dgesv(lam_val[:d_x, :d_x], lam_val[:d_x, d_x:])
    if info != 0:
        raise SingularPrecisionError("state block of the precision matrix is singular")
    return cross


def _half_grid(nodes: np.ndarray) -> np.ndarray:
    """Held node values at the points the sweep stages read.

    Index 2i is node i and index 2i+1 the average of nodes i and i+1,
    matching the half-grid layout of _Coefficients.
    """
    half = np.empty((2 * len(nodes) - 1,) + nodes.shape[1:])
    half[0::2] = nodes
    half[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return half


class _Coefficients:
    """Problem coefficients tabulated on the time grid and its midpoints.

    Index 2i is node t_i, index 2i+1 the midpoint of step i. Also caches
    M = B R^{-1} B^T and sigma sigma^T, the only combinations the sweep
    equations need, and the node times t_0..t_n.
    """

    def __init__(self, problem: LqgProblem):
        n = problem.n_steps
        self.n = n
        self.dt = problem.horizon / n
        self.times = np.linspace(0.0, problem.horizon, 2 * n + 1)
        self.node_times = np.linspace(0.0, problem.horizon, n + 1)
        A_f, B_f = as_time_fn(problem.A), as_time_fn(problem.B)
        s_f = as_time_fn(problem.sigma)
        Q_f, R_f = as_time_fn(problem.Q), as_time_fn(problem.R)
        d = problem.d_s

        def tab(fn, shape):
            out = np.empty((2 * n + 1,) + shape)
            for j, t in enumerate(self.times):
                out[j] = np.atleast_2d(np.asarray(fn(t), dtype=float))
            return out

        self.A = tab(A_f, (d, d))
        self.Q = tab(Q_f, (d, d))
        B0 = np.atleast_2d(np.asarray(B_f(0.0), dtype=float))
        self.B = tab(B_f, B0.shape)
        R0 = np.atleast_2d(np.asarray(R_f(0.0), dtype=float))
        self.R = tab(R_f, R0.shape)
        sig0 = np.atleast_2d(np.asarray(s_f(0.0), dtype=float))
        sig = tab(s_f, sig0.shape)
        self.M = np.einsum(
            "tij,tjk,tlk->til", self.B, np.linalg.inv(self.R), self.B
        )
        self.SS = np.einsum("tij,tkj->tik", sig, sig)


def _riccati_increment(A, M, Q, mat, gap=None):
    """-dX/dt of the backward Riccati equations at one stage point.

    Returns Q + A'X + X A - X M X with M = B R^{-1} B', the classical
    equation of Psi. Given gap = I - K(Lambda) it adds
    (I-K)' X M X (I-K), the information-loss term of the memory-feedback
    equation of Pi; with K = I that term vanishes and Psi's increment is
    recovered exactly.
    """
    pmp = mat @ M @ mat
    out = Q + A.T @ mat + mat @ A - pmp
    if gap is not None:
        out += gap.T @ pmp @ gap
    return out


def _lambda_increment(A, SS, mp_x, mp_z, lam, d_x):
    """dLambda/dt = -At' Lambda - Lambda At - Lambda SS Lambda, SS = sigma sigma'.

    At = A - M Pi K(Lambda) is the drift of the centered state under the
    affine law. K(Lambda) has zero state columns and memory columns [-C; I]
    with C = Lambda_xx^{-1} Lambda_xz, so At is A with mp_z - mp_x C
    subtracted from its memory columns, where mp_x and mp_z are the state
    and memory columns of M Pi. This block form costs one small solve.
    """
    At = A.copy()
    At[:, d_x:] -= mp_z - mp_x @ _memory_cross(lam, d_x)
    return -At.T @ lam - lam @ At - lam @ SS @ lam


def _mean_increment(A, M, psi, mu):
    """dmu/dt = (A - M Psi) mu."""
    return (A - M @ psi) @ mu


def _check_finite(traj: np.ndarray, times: np.ndarray, what: str):
    bad = ~np.isfinite(traj).reshape(traj.shape[0], -1).all(axis=1)
    if bad.any():
        t_bad = times[int(np.argmax(bad))]
        raise DivergenceError(f"{what} became non-finite at t={t_bad:.6g}")


def _integrate(rhs, start, n, dt, backward=False, sym=True):
    """Step y over the n steps of the time grid from start; returns all n + 1 nodes.

    Classical RK4. rhs(j, y) is the right-hand side at stage point j, a
    _half_grid index: node i is 2i, the midpoint of step i is 2i + 1.
    Forward, start is node 0 and step i runs from node i to i + 1.
    Backward, start is node n, step i runs from node i + 1 to i, and rhs
    is -dy/dt, so either way a step adds dt times the stage average. With
    sym, every new node is symmetrized.
    """
    out = np.empty((n + 1,) + np.shape(start))
    out[n if backward else 0] = start
    for i in range(n - 1, -1, -1) if backward else range(n):
        y = out[i + 1] if backward else out[i]
        first, last = (2 * i + 2, 2 * i) if backward else (2 * i, 2 * i + 2)
        k1 = rhs(first, y)
        k2 = rhs(2 * i + 1, y + 0.5 * dt * k1)
        k3 = rhs(2 * i + 1, y + 0.5 * dt * k2)
        k4 = rhs(last, y + dt * k3)
        step = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        new = y + dt * step
        out[i if backward else i + 1] = _sym(new) if sym else new
    return out


def _backward_riccati(problem, coeffs, what, gap=None):
    """Integrate a Riccati equation backward from X(T) = P.

    Without gap this is Psi's classical equation; with gap, the stack of
    I - K(Lambda) of a held precision trajectory at the points the stages
    read (_half_grid layout), it is the Pi equation. The output is
    symmetrized every step and must stay finite (what names it otherwise).
    """
    A, M, Q = coeffs.A, coeffs.M, coeffs.Q

    def rhs(j, val):
        return _riccati_increment(A[j], M[j], Q[j], val, None if gap is None else gap[j])

    out = _integrate(rhs, _sym(problem.P), coeffs.n, coeffs.dt, backward=True)
    _check_finite(out, coeffs.node_times, what)
    return out


def _forward_mu(problem, coeffs, psi):
    """Integrate the mean forward from mu(0) = mu0 given Psi."""
    if not np.any(problem.mu0):
        return np.zeros((coeffs.n + 1, problem.d_s))
    A, M = coeffs.A, coeffs.M
    psi_stages = _half_grid(psi)

    def rhs(j, m):
        return _mean_increment(A[j], M[j], psi_stages[j], m)

    mu = _integrate(rhs, problem.mu0, coeffs.n, coeffs.dt, sym=False)
    _check_finite(mu, coeffs.node_times, "mu")
    return mu


@dataclass
class GainTrajectory:
    """Time-indexed gains (Psi, Pi, Lambda, mu) of the affine control law.

    All matrix trajectories are stored symmetrized at the grid nodes.
    Lookup is piecewise constant from the left: t in [t_i, t_{i+1}) maps
    to node i, and t = T maps to the last node.
    """

    times: np.ndarray
    psi: np.ndarray
    pi: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    d_x: int

    def __post_init__(self):
        for name in ("psi", "pi", "lam"):
            traj = np.asarray(getattr(self, name), dtype=float)
            drift = np.abs(traj - np.swapaxes(traj, -1, -2)).max()
            if drift > 1e-10:
                raise ProblemError(f"{name} trajectory asymmetric by {drift:.3e}")
            setattr(self, name, _sym(traj))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def index_for(self, t: float) -> int:
        if t < -1e-9 or t > self.horizon * (1 + 1e-12) + 1e-9:
            raise ProblemError(f"t={t} outside the horizon [0, {self.horizon}]")
        idx = int(np.searchsorted(self.times, t, side="right") - 1)
        return min(max(idx, 0), self.n_steps)


@dataclass(frozen=True)
class LqgControlLaw:
    """Affine memory-feedback law u(t, z) built from a gain trajectory.

    Everything that does not depend on z is tabulated once per time node,
    on first use: the gains K(Lambda) (one batched inference_gain), the
    memory mean, Psi mu and R^{-1} B^T.
    """

    gains: GainTrajectory
    problem: LqgProblem

    @cached_property
    def _tables(self) -> tuple:
        g, d_x = self.gains, self.problem.d_x
        B_f, R_f = as_time_fn(self.problem.B), as_time_fn(self.problem.R)
        feedback = np.stack([
            np.linalg.solve(
                np.atleast_2d(np.asarray(R_f(t), dtype=float)),
                np.atleast_2d(np.asarray(B_f(t), dtype=float)).T,
            )
            for t in g.times
        ])
        psi_mu = np.stack([psi @ mu for psi, mu in zip(g.psi, g.mu)])
        return inference_gain(g.lam, d_x), g.mu[:, d_x:], psi_mu, feedback

    def evaluate_memory(self, t: float, z: np.ndarray) -> np.ndarray:
        """Evaluate u at time t for memory points z of shape (..., d_z)."""
        z = np.asarray(z, dtype=float)
        d_x = self.problem.d_x
        i = self.gains.index_for(t)
        gain, mu_z, psi_mu, feedback = self._tables
        ez = z - mu_z[i]
        ks = np.concatenate([ez @ gain[i, :d_x, d_x:].T, ez], axis=-1)
        core = ks @ self.gains.pi[i].T + psi_mu[i]
        return -core @ feedback[i].T

    def evaluate(self, t: float, s: np.ndarray) -> np.ndarray:
        """Evaluate u at extended states s; reads only the memory block."""
        s = np.asarray(s, dtype=float)
        return self.evaluate_memory(t, s[..., self.problem.d_x :])


@dataclass
class LqgSweepResult:
    """Gains, per-iteration objective history, and iterate trajectories."""

    problem: LqgProblem
    gains: GainTrajectory
    objective_history: np.ndarray
    pi_iterates: List[np.ndarray]
    lambda_iterates: List[np.ndarray]
    converged: bool
    iterations: int
    final_delta: float
    monotonicity_violations: List[tuple]

    def control_law(self) -> LqgControlLaw:
        return LqgControlLaw(self.gains, self.problem)


def _forward_lambda(problem, coeffs, pi_stale, what):
    """One forward sweep of Lambda holding the Pi trajectory fixed.

    M Pi is tabulated for every stage before the time loop, so each stage
    of _lambda_increment costs one small solve. The output must stay
    finite (what names it otherwise).
    """
    d_x = problem.d_x
    A, SS = coeffs.A, coeffs.SS
    mp = coeffs.M @ _half_grid(pi_stale)
    mp_x, mp_z = mp[..., :d_x], mp[..., d_x:]

    def rhs(j, lam_val):
        return _lambda_increment(A[j], SS[j], mp_x[j], mp_z[j], lam_val, d_x)

    lam = _integrate(rhs, _sym(problem.lambda0), coeffs.n, coeffs.dt)
    # one batched check that every node a stage read has a finite,
    # invertible state block; a bad last node is left to the finiteness
    # check
    inference_gain(lam[:-1], d_x)
    _check_finite(lam, coeffs.node_times, what)
    return lam


def _expected_cost(problem, coeffs, psi, pi, gain, mu, sigma):
    """Expected cost of the affine law from node-wise moments.

    gain is K(Lambda) and sigma the closed-loop covariance at the grid
    nodes. The running cost density
    tr(Q Sigma) + mu'Q mu + tr((Pi K)' M Pi K Sigma) + mu'Psi M Psi mu
    is integrated by the trapezoidal rule, plus the terminal cost.
    """
    Q, M = coeffs.Q[::2], coeffs.M[::2]
    pk = pi @ gain
    ctrl_gain = np.swapaxes(pk, -1, -2) @ M @ pk
    row, col = mu[:, None, :], mu[:, :, None]
    state_term = np.trace(Q @ sigma, axis1=-2, axis2=-1) + (row @ Q @ col)[:, 0, 0]
    ctrl_term = (
        np.trace(ctrl_gain @ sigma, axis1=-2, axis2=-1)
        + (row @ psi @ M @ psi @ col)[:, 0, 0]
    )
    densities = state_term + ctrl_term
    running = float(np.trapezoid(densities, dx=coeffs.dt))
    terminal = float(np.trace(problem.P @ sigma[-1]) + mu[-1] @ problem.P @ mu[-1])
    return running + terminal


# Doubles per operator stack that one batch of steps may hold. The
# bundled document (d_s = 2, 1000 steps) fits in one batch; larger d_s is
# cut into batches of fewer steps, so memory stays bounded.
_PROPAGATOR_BATCH = 1 << 16


def _lyapunov_propagators(drift, SS, dt):
    """Yield the step maps of the closed-loop covariance recurrence.

    On y = (vec(Sigma), 1), with row-major vec(Sigma) = Sigma.reshape(-1),
    dSigma/dt = F Sigma + Sigma F' + SS is the linear equation y' = L y
    with L = [[F (x) I + I (x) F, vec(SS)], [0, 0]]. An RK4 step of it is
    a fixed polynomial in dt L, so step i is y_{i+1} = Phi_i y_i. Phi is
    built for consecutive batches of steps, each in one batched pass over
    the stage points the integrator reads (_half_grid layout), and
    yielded as a stack of shape (steps, d^2 + 1, d^2 + 1). A batch holds
    at most _PROPAGATOR_BATCH doubles per stack, so memory does not grow
    with n.
    Building Phi costs O(d^6) flops per step against O(d^3) for stepping
    the stages one at a time, so this pays off only for small d_s.
    """
    m, d, _ = drift.shape
    size = d * d + 1
    n = (m - 1) // 2
    per = max(1, _PROPAGATOR_BATCH // size**2)
    eye, ident = np.eye(d), np.eye(size)

    def operators(lo, hi):
        ops = np.zeros((hi - lo, size, size))
        F = drift[lo:hi]
        ops[:, :-1, :-1] = (
            F[:, :, None, :, None] * eye[None, None, :, None, :]
            + eye[None, :, None, :, None] * F[:, None, :, None, :]
        ).reshape(hi - lo, d * d, d * d)
        ops[:, :-1, -1] = SS[lo:hi].reshape(hi - lo, d * d)
        return ops

    for start in range(0, n, per):
        stop = min(n, start + per)
        ops = operators(2 * start, 2 * stop + 1)
        La, Lb, Lc = ops[0:-1:2], ops[1::2], ops[2::2]
        K2 = Lb + 0.5 * dt * (Lb @ La)
        K3 = Lb + 0.5 * dt * (Lb @ K2)
        K4 = Lc + dt * (Lc @ K3)
        yield ident + dt / 6.0 * (La + 2 * K2 + 2 * K3 + K4)


def _closed_loop_objective(problem, coeffs, psi, pi, lam, mu):
    """Expected cost of the affine law defined by (psi, pi, lam, mu).

    Integrates the true closed-loop covariance Sigma (not Lambda^{-1},
    which is only consistent after a forward sweep) under the drift
    A - M Pi K(Lambda), tabulated for every stage in one batched
    expression, and prices it with _expected_cost. The Lyapunov equation
    is linear, so each RK4 step is one mat-vec y_{i+1} = Phi_i y_i on
    y = (vec(Sigma), 1), row-major (_lyapunov_propagators); Sigma is
    symmetrized once, at the end. A batch of Phi holds
    (d_s^2 + 1)^2 doubles per step: all 1000 steps of the bundled
    document (d_s = 2) come to 200 KB.
    """
    n, dt = coeffs.n, coeffs.dt
    d = problem.d_s
    gain = inference_gain(_half_grid(lam), problem.d_x)
    drift = coeffs.A - coeffs.M @ _half_grid(pi) @ gain

    y = np.empty((n + 1, d * d + 1))
    y[0, :-1] = np.linalg.inv(problem.lambda0).reshape(-1)
    y[0, -1] = 1.0
    i = 0
    for phi in _lyapunov_propagators(drift, coeffs.SS, dt):
        for step in phi:
            y[i + 1] = step @ y[i]
            i += 1
    sigma_nodes = _sym(y[:, :-1].reshape(n + 1, d, d))
    _check_finite(sigma_nodes, coeffs.node_times, "Sigma")
    return _expected_cost(problem, coeffs, psi, pi, gain[::2], mu, sigma_nodes)


def fbsm_lqg(
    problem: LqgProblem,
    pi0: Optional[np.ndarray] = None,
    max_iters: int = 50,
    tol: float = 1e-6,
    method: str = "rk4",
) -> LqgSweepResult:
    """Alternate backward Pi sweeps and forward Lambda sweeps to a fixed point.

    Starts from the given Pi trajectory (zero by default), integrates
    Lambda forward under it, then alternates: even iterations refresh Pi
    backward against the held Lambda, odd iterations refresh Lambda
    forward against the held Pi. The closed-loop objective is recorded
    after the initial step and after every sweep; iteration stops when
    the objective change falls within tol * (1 + |J|) or at max_iters.

    A sweep whose objective rises by more than MONOTONICITY_SLACK is
    recorded in monotonicity_violations as (k, J_{k-1}, J_k); it does not
    stop the iteration. Raises DivergenceError on non-finite trajectories
    or objectives. Every equation is stepped by RK4, the only value method
    takes.
    """
    if method != "rk4":
        raise ProblemError(f"unknown integration method {method!r}; expected 'rk4'")
    report = validate_lqg(problem)
    if not report.ok:
        raise ProblemError("invalid problem:\n" + str(report))

    coeffs = _Coefficients(problem)
    n = coeffs.n
    d = problem.d_s

    psi = _backward_riccati(problem, coeffs, "Psi")
    mu = _forward_mu(problem, coeffs, psi)

    if pi0 is None:
        pi = np.zeros((n + 1, d, d))
    else:
        pi = _sym(np.asarray(pi0, dtype=float).copy())
        if pi.shape != (n + 1, d, d):
            raise ProblemError(
                f"pi0 must have shape {(n + 1, d, d)}, got {pi.shape}"
            )
    lam = _forward_lambda(problem, coeffs, pi, "Lambda")

    pi_iterates = [pi]
    lambda_iterates = [lam]

    def half_sweep(k, backward):
        nonlocal pi, lam
        if backward:
            # I - K(Lambda) at every stage point, from one batched gain evaluation
            gap = np.eye(d) - inference_gain(_half_grid(lam), problem.d_x)
            pi = _backward_riccati(problem, coeffs, f"Pi (iteration {k + 1})", gap)
        else:
            lam = _forward_lambda(problem, coeffs, pi, f"Lambda (iteration {k + 1})")
        pi_iterates.append(pi)
        lambda_iterates.append(lam)
        return _closed_loop_objective(problem, coeffs, psi, pi, lam, mu)

    j0 = _closed_loop_objective(problem, coeffs, psi, pi, lam, mu)
    history, converged, iterations, final_delta = _sweep(j0, half_sweep, max_iters, tol)
    violations, _ = _descent_violations(history, MONOTONICITY_SLACK)
    gains = GainTrajectory(
        times=coeffs.node_times, psi=psi, pi=pi, lam=lam, mu=mu, d_x=problem.d_x
    )
    return LqgSweepResult(
        problem=problem,
        gains=gains,
        objective_history=history,
        pi_iterates=pi_iterates,
        lambda_iterates=lambda_iterates,
        converged=converged,
        iterations=iterations,
        final_delta=final_delta,
        monotonicity_violations=violations,
    )


def lqg_objective(problem: LqgProblem, gains: GainTrajectory) -> float:
    """Closed-form expected cost of the affine law from Gaussian moments.

    Uses Sigma_t = Lambda_t^{-1} as the closed-loop covariance, which is
    exact when the Lambda trajectory is the forward solution consistent
    with the Pi trajectory (always true for converged sweep output).
    """
    coeffs = _Coefficients(problem)
    if gains.n_steps != coeffs.n:
        raise ProblemError(
            f"gain trajectory has {gains.n_steps} steps, problem has {coeffs.n}"
        )
    try:
        sigma = np.linalg.inv(gains.lam)
    except np.linalg.LinAlgError as exc:
        raise SingularPrecisionError("Lambda trajectory not invertible") from exc
    gain = inference_gain(gains.lam, gains.d_x)
    return _expected_cost(problem, coeffs, gains.psi, gains.pi, gain, gains.mu, sigma)
