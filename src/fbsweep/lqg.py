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

The state block of Lambda is solved by the LAPACK gufunc behind
np.linalg.solve, called directly: each Lambda stage solves one small
block, and the public wrapper's checks would cost several times that
solve. The gufunc answers a singular block with NaN, not an exception,
so inference_gain and _lambda_increment test for NaN. The package needs
numpy only.

The sweeps are thousands of tiny per-stage products, so their cost is
call overhead. Every 2-D per-stage product (the three increments and
the Lyapunov mat-vec) is x.dot(y): it calls the BLAS routine that @
calls, so the bits are the same, but skips the matmul gufunc dispatch,
about 0.4-0.85 us a call against 1-1.8 us. Batched stacks keep @, as
.dot on 3-D arrays is a different product. With the sweeps' rhs reading
plain lists of per-stage views, the bundled document's Pi sweep takes
0.68x and its Lambda sweep 0.80x the time they took with @ (README,
Performance).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np
from numpy.linalg._umath_linalg import solve as _block_solve

from fbsweep.core import (
    DivergenceError,
    LqgProblem,
    ProblemError,
    SingularPrecisionError,
    _descent_violations,
    _sweep,
)

MONOTONICITY_SLACK = 1e-8


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + np.swapaxes(mat, -1, -2)) / 2.0


def inference_gain(lam: np.ndarray, d_x: int) -> np.ndarray:
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
    # a singular block's slice comes back NaN, as a non-finite one's does
    with np.errstate(all="ignore"):
        cross = _block_solve(lam[..., :d_x, :d_x], lam[..., :d_x, d_x:])
    if not np.isfinite(cross).all():
        raise SingularPrecisionError("state block of the precision matrix is singular")
    gain = np.zeros(lam.shape)
    gain[..., :d_x, d_x:] = -cross
    gain[..., d_x:, d_x:] = np.eye(d_s - d_x)
    return gain


def _half_grid(nodes: np.ndarray) -> np.ndarray:
    """Held node values at the points the sweep stages read.

    Index 2i is node i and index 2i+1 the average of nodes i and i+1,
    matching the layout of LqgProblem.stages.
    """
    half = np.empty((2 * len(nodes) - 1,) + nodes.shape[1:])
    half[0::2] = nodes
    half[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return half


def _riccati_increment(A, M, Q, mat, gap=None):
    """-dX/dt of the backward Riccati equations at one stage point.

    Returns Q + A'X + X A - X M X with M = B R^{-1} B', the classical
    equation of Psi. Given gap = I - K(Lambda) it adds
    (I-K)' X M X (I-K), the information-loss term of the memory-feedback
    equation of Pi; with K = I that term vanishes and Psi's increment is
    recovered exactly.
    """
    pmp = mat.dot(M).dot(mat)
    out = Q + A.T.dot(mat) + mat.dot(A) - pmp
    if gap is not None:
        out += gap.T.dot(pmp).dot(gap)
    return out


def _lambda_increment(A, SS, mp_x, mp_z, lam, d_x):
    """dLambda/dt = -At' Lambda - Lambda At - Lambda SS Lambda, SS = sigma sigma'.

    At = A - M Pi K(Lambda) is the drift of the centered state under the
    affine law. K(Lambda) has zero state columns and memory columns [-C; I]
    with C = Lambda_xx^{-1} Lambda_xz, so At is A with mp_z - mp_x C
    subtracted from its memory columns, where mp_x and mp_z are the state
    and memory columns of M Pi. This block form costs one small solve.
    A NaN C from a finite Lambda means a singular block; from a
    non-finite Lambda it is overflow, left to the caller's checks.
    """
    cross = _block_solve(lam[:d_x, :d_x], lam[:d_x, d_x:])
    if cross[0, 0] != cross[0, 0] and np.isfinite(lam).all():
        raise SingularPrecisionError("state block of the precision matrix is singular")
    At = A.copy()
    At[:, d_x:] -= mp_z - mp_x.dot(cross)
    return (-At.T).dot(lam) - lam.dot(At) - lam.dot(SS).dot(lam)


def _mean_increment(A, M, psi, mu):
    """dmu/dt = (A - M Psi) mu."""
    return (A - M.dot(psi)).dot(mu)


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

    A diverging solution overflows silently: the callers' finiteness
    checks turn it into a DivergenceError or SingularPrecisionError.
    """
    out = np.empty((n + 1,) + np.shape(start))
    out[n if backward else 0] = start
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1) if backward else range(n):
            y = out[i + 1] if backward else out[i]
            first, last = (2 * i + 2, 2 * i) if backward else (2 * i, 2 * i + 2)
            k1 = rhs(first, y)
            k2 = rhs(2 * i + 1, y + 0.5 * dt * k1)
            k3 = rhs(2 * i + 1, y + 0.5 * dt * k2)
            k4 = rhs(last, y + dt * k3)
            step = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            new = y + dt * step
            # _sym's bits without its swapaxes call
            out[i if backward else i + 1] = (new + new.T) / 2.0 if sym else new
    return out


def _backward_riccati(problem, what, gap=None):
    """Integrate a Riccati equation backward from X(T) = P.

    Without gap this is Psi's classical equation; with gap, the stack of
    I - K(Lambda) of a held precision trajectory at the points the stages
    read (_half_grid layout), it is the Pi equation. The output is
    symmetrized every step and must stay finite (what names it otherwise).
    """
    st = problem.stages
    # plain lists of per-stage views: a list index is cheaper than an
    # ndarray one
    A, M, Q = list(st.A), list(st.M), list(st.Q)
    gaps = [None] * len(A) if gap is None else list(gap)

    def rhs(j, val):
        return _riccati_increment(A[j], M[j], Q[j], val, gaps[j])

    out = _integrate(rhs, _sym(problem.P), st.n, st.dt, backward=True)
    _check_finite(out, st.node_times, what)
    return out


def _forward_mu(problem, psi):
    """Integrate the mean forward from mu(0) = mu0 given Psi."""
    st = problem.stages
    if not np.any(problem.mu0):
        return np.zeros((st.n + 1, problem.d_s))
    A, M, psi_stages = list(st.A), list(st.M), list(_half_grid(psi))

    def rhs(j, m):
        return _mean_increment(A[j], M[j], psi_stages[j], m)

    mu = _integrate(rhs, problem.mu0, st.n, st.dt, sym=False)
    _check_finite(mu, st.node_times, "mu")
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
    memory mean, Psi mu and R^{-1} B^T, which reads only B and R.
    """

    gains: GainTrajectory
    problem: LqgProblem

    @cached_property
    def _tables(self) -> tuple:
        g, p = self.gains, self.problem
        feedback = np.stack([
            np.linalg.solve(p._reading("R", t), p._reading("B", t).T) for t in g.times
        ])
        psi_mu = np.stack([psi @ mu for psi, mu in zip(g.psi, g.mu)])
        return inference_gain(g.lam, p.d_x), g.mu[:, p.d_x :], psi_mu, feedback

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


@dataclass
class LqgSweepResult:
    """Gains, per-iteration objective history, and sweep health.

    pi_gap and lambda_gap are the largest absolute change of Pi and of
    Lambda at their last refresh, None before their first one.
    min_lambda_eigenvalue is the smallest eigenvalue of every Lambda
    iterate, the initial one included.
    """

    problem: LqgProblem
    gains: GainTrajectory
    objective_history: np.ndarray
    converged: bool
    iterations: int
    final_delta: float
    monotonicity_violations: List[tuple]
    pi_gap: Optional[float]
    lambda_gap: Optional[float]
    min_lambda_eigenvalue: float


def _forward_lambda(problem, pi_stale, what):
    """One forward sweep of Lambda holding the Pi trajectory fixed.

    M Pi is tabulated for every stage before the time loop, so each stage
    of _lambda_increment costs one small solve. The output must stay
    finite (what names it otherwise).
    """
    d_x = problem.d_x
    st = problem.stages
    mp = st.M @ _half_grid(pi_stale)
    A, SS = list(st.A), list(st.SS)
    mp_x, mp_z = list(mp[..., :d_x]), list(mp[..., d_x:])

    def rhs(j, lam_val):
        return _lambda_increment(A[j], SS[j], mp_x[j], mp_z[j], lam_val, d_x)

    lam = _integrate(rhs, _sym(problem.lambda0), st.n, st.dt)
    # one batched check that every node a stage read has a finite,
    # invertible state block; a bad last node is left to the finiteness
    # check
    inference_gain(lam[:-1], d_x)
    _check_finite(lam, st.node_times, what)
    return lam


def _expected_cost(problem, psi, pi, gain, mu, sigma):
    """Expected cost of the affine law from node-wise moments.

    gain is K(Lambda) and sigma the closed-loop covariance at the grid
    nodes. The running cost density
    tr(Q Sigma) + mu'Q mu + tr((Pi K)' M Pi K Sigma) + mu'Psi M Psi mu
    is integrated by the trapezoidal rule, plus the terminal cost.
    """
    st = problem.stages
    Q, M = st.Q[::2], st.M[::2]
    pk = pi @ gain
    ctrl_gain = np.swapaxes(pk, -1, -2) @ M @ pk
    row, col = mu[:, None, :], mu[:, :, None]
    state_term = np.trace(Q @ sigma, axis1=-2, axis2=-1) + (row @ Q @ col)[:, 0, 0]
    ctrl_term = (
        np.trace(ctrl_gain @ sigma, axis1=-2, axis2=-1)
        + (row @ psi @ M @ psi @ col)[:, 0, 0]
    )
    densities = state_term + ctrl_term
    running = float(np.trapezoid(densities, dx=st.dt))
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


def _closed_loop_objective(problem, psi, pi, lam, mu):
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

    A diverging Sigma or cost overflows silently: the finiteness check
    here and the sweep loop's check of J raise DivergenceError.
    """
    st = problem.stages
    n, dt = st.n, st.dt
    d = problem.d_s
    gain = inference_gain(_half_grid(lam), problem.d_x)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = st.A - st.M @ _half_grid(pi) @ gain
        y = np.empty((n + 1, d * d + 1))
        y[0, :-1] = np.linalg.inv(problem.lambda0).reshape(-1)
        y[0, -1] = 1.0
        i = 0
        for phi in _lyapunov_propagators(drift, st.SS, dt):
            for step in phi:
                step.dot(y[i], out=y[i + 1])
                i += 1
        sigma_nodes = _sym(y[:, :-1].reshape(n + 1, d, d))
        _check_finite(sigma_nodes, st.node_times, "Sigma")
        return _expected_cost(problem, psi, pi, gain[::2], mu, sigma_nodes)


def _max_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.abs(new - old).max())


def _min_eigenvalue(lam: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(lam).min())


def fbsm_lqg(
    problem: LqgProblem,
    max_iters: int = 50,
    tol: float = 1e-6,
    method: str = "rk4",
) -> LqgSweepResult:
    """Alternate backward Pi sweeps and forward Lambda sweeps to a fixed point.

    Starts from the zero Pi trajectory, integrates Lambda forward under
    it, then alternates: even iterations refresh Pi backward against the
    held Lambda, odd iterations refresh Lambda forward against the held
    Pi. The closed-loop objective is recorded
    after the initial step and after every sweep; iteration stops when
    the objective change falls within tol * (1 + |J|) with tol > 0, or at
    max_iters (tol = 0 runs all of them).
    Only the current Pi and Lambda are kept; each sweep records the
    largest change of the trajectory it refreshed (pi_gap, lambda_gap)
    and the smallest eigenvalue of every Lambda (min_lambda_eigenvalue).

    A sweep whose objective rises by more than MONOTONICITY_SLACK is
    recorded in monotonicity_violations as (k, J_{k-1}, J_k); it does not
    stop the iteration. Raises DivergenceError on non-finite trajectories
    or objectives. Every equation is stepped by RK4, the only value method
    takes.
    """
    if method != "rk4":
        raise ProblemError(f"unknown integration method {method!r}; expected 'rk4'")
    n = problem.stages.n
    d = problem.d_s

    psi = _backward_riccati(problem, "Psi")
    mu = _forward_mu(problem, psi)

    pi = np.zeros((n + 1, d, d))
    lam = _forward_lambda(problem, pi, "Lambda")
    pi_gap = lambda_gap = None
    min_eig = _min_eigenvalue(lam)

    def half_sweep(k, backward):
        nonlocal pi, lam, pi_gap, lambda_gap, min_eig
        if backward:
            # I - K(Lambda) at every stage point, from one batched gain evaluation
            gap = np.eye(d) - inference_gain(_half_grid(lam), problem.d_x)
            new = _backward_riccati(problem, f"Pi (iteration {k + 1})", gap)
            pi, pi_gap = new, _max_change(new, pi)
        else:
            new = _forward_lambda(problem, pi, f"Lambda (iteration {k + 1})")
            lam, lambda_gap = new, _max_change(new, lam)
            min_eig = min(min_eig, _min_eigenvalue(lam))
        return _closed_loop_objective(problem, psi, pi, lam, mu)

    j0 = _closed_loop_objective(problem, psi, pi, lam, mu)
    history, converged, iterations, final_delta = _sweep(j0, half_sweep, max_iters, tol)
    violations, _ = _descent_violations(history, MONOTONICITY_SLACK)
    gains = GainTrajectory(
        times=problem.stages.node_times, psi=psi, pi=pi, lam=lam, mu=mu, d_x=problem.d_x
    )
    return LqgSweepResult(
        problem=problem,
        gains=gains,
        objective_history=history,
        converged=converged,
        iterations=iterations,
        final_delta=final_delta,
        monotonicity_violations=violations,
        pi_gap=pi_gap,
        lambda_gap=lambda_gap,
        min_lambda_eigenvalue=min_eig,
    )


def lqg_objective(problem: LqgProblem, gains: GainTrajectory) -> float:
    """Closed-form expected cost of the affine law from Gaussian moments.

    Uses Sigma_t = Lambda_t^{-1} as the closed-loop covariance. That is
    the law's covariance only when Lambda is the forward solution under
    the Pi trajectory, as after a sweep run that ends on a Lambda sweep
    (an even number of sweeps). After a Pi sweep, Lambda predates Pi and
    the value is not the cost of the law the gains define.
    """
    if gains.n_steps != problem.stages.n:
        raise ProblemError(
            f"gain trajectory has {gains.n_steps} steps, problem has {problem.stages.n}"
        )
    try:
        sigma = np.linalg.inv(gains.lam)
    except np.linalg.LinAlgError as exc:
        raise SingularPrecisionError("Lambda trajectory not invertible") from exc
    gain = inference_gain(gains.lam, gains.d_x)
    return _expected_cost(problem, gains.psi, gains.pi, gain, gains.mu, sigma)
