"""Delayed comparison inequality: constructive constants, majorant, certification.

Certifies, on the grid, that any nonnegative xi satisfying

    xi(t) <= theta(t) + int_0^t L(s) xi(s) (t-s)^(nu-1) ds
                      + int_0^t L(s) xi(s-h) (t-s)^(nu-1) ds

is dominated by the explicit curve theta_n(t) + K int_0^t L theta (t-s)^(nu-1) ds
for a constructively chosen K.  The check compares that curve against the sharp
oracle: the fixed point of the equality version, whose lower-triangular
discrete system ``resolvent_majorant`` solves exactly by the method of steps.

Both triangular solves are blocked forward substitutions built from two shared
pieces: views of one ``SingularWeights.slab`` (a row block of the weights laid
out once, so every off-diagonal weight block is a zero-copy BLAS operand) and
the resolvents (I - A1[I, I])^(-1) - I of all diagonal blocks at once, by
batched recursive doubling (``_diag_resolvents``).  Every term is nonnegative.

Constant constructions kept separate from the oracle:
  * ``lemma1_constant`` dominates the non-delayed resolvent by the first kernel,
    entrywise on the discretized operators (blocked column-strip forward
    substitution, O(n^3/3) work, O(n b) memory).
  * ``certify`` runs an exact discrete method of steps: per delay window, the
    delayed term is frozen at the previous window's dominating curve and the
    non-delayed resolvent bound is applied.  The minimal K folding the
    resulting curve into the theta_n form is then the certified constant.

The delay shifts in theta_n are whole windows, so with each window laid out
as one row of m = h / dt nodes, theta_n is theta plus K times one cumulative
sum down the rows.  The bound, fold gain and step constants follow from it in
one pass (``_report``) behind both ``certify`` and ``gronwall_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, HypothesisError, ParameterError, StructuralError
from .grid import GridFunction, GridSpec, _csv_rows, lp_norm
from .quadrature import (
    SingularWeights,
    build_singular_weights,
    delayed_product_convolution,
    singular_convolution,
)
from .special import beta

__all__ = [
    "GronwallProblem",
    "BoundReport",
    "CertificationResult",
    "step_constant_k1",
    "resolvent_majorant",
    "lemma1_constant",
    "theta_n",
    "gronwall_bound",
    "certify",
]


def _check_q(q: float, nu: float) -> None:
    """Reject q unless q * nu lies in (1, inf); nan fails every comparison."""
    if not 1.0 < q * nu < math.inf:
        raise HypothesisError(f"requires finite q > 1/nu, got q={q}, nu={nu}")


def _check_nonnegative(label: str, value: float) -> None:
    """Reject a value outside [0, inf); nan fails every comparison."""
    if not 0.0 <= value < math.inf:
        raise ParameterError(f"{label} must be finite and >= 0, got {value}")


def _check_node_values(label: str, g: GridFunction) -> None:
    """Reject a grid function unless it is scalar, finite and nonnegative at every node."""
    if g.values.ndim != 1:
        raise StructuralError(f"{label} must be scalar-valued, got {g.dim} components")
    if not np.all(np.isfinite(g.values)):
        raise ParameterError(f"{label} must be finite at every node")
    if np.any(g.values < 0.0):
        raise ParameterError(f"{label} must be node-wise nonnegative")


@dataclass(frozen=True)
class GronwallProblem:
    """Data (L, theta, nu, q) of the delayed comparison inequality, on L's grid."""

    L: GridFunction
    theta: GridFunction
    nu: float
    q: float

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ParameterError(f"nu must lie in (0, 1), got {self.nu}")
        _check_q(self.q, self.nu)
        if self.theta.spec != self.spec:
            raise StructuralError("theta must live on L's grid")
        if self.spec.delay_steps < 1:
            raise HypothesisError("delay h must be positive and span >= 1 step")
        _check_node_values("L", self.L)
        _check_node_values("theta", self.theta)

    @classmethod
    def build(cls, L: GridFunction, theta: GridFunction, nu: float, q: float | None = None):
        """The problem on L's grid; q None is 2/nu."""
        if q is None:
            q = 2.0 / nu if nu != 0.0 else math.nan  # __post_init__ rejects nu = 0
        return cls(L=L, theta=theta, nu=nu, q=q)

    @property
    def spec(self) -> GridSpec:
        return self.L.spec

    @property
    def h(self) -> float:
        return self.L.spec.h

    @cached_property
    def weights(self) -> SingularWeights:
        """Product-integration weights of the problem grid, built once."""
        return build_singular_weights(self.spec, self.nu)


@dataclass(frozen=True)
class BoundReport:
    """Computed constants and curves of one bound evaluation."""

    K_steps: tuple
    K: float
    theta: GridFunction
    theta_n: GridFunction
    bound: GridFunction
    majorant: GridFunction
    margin: GridFunction

    def to_csv(self, path, header_lines=()) -> None:
        """Curves as CSV plus a ``*_constants.txt`` sidecar with the constants."""
        spec = self.theta_n.spec
        with open(path, "w", encoding="utf-8") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("t,theta,theta_n,bound,majorant,margin\n")
            curves = (self.theta, self.theta_n, self.bound, self.majorant, self.margin)
            fh.write(_csv_rows(np.column_stack([spec.times] + [c.values for c in curves])))
        path = Path(path)
        sidecar = path.with_name(path.stem + "_constants.txt")
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write("K_steps = " + ", ".join(f"{k:.17g}" for k in self.K_steps) + "\n")
            fh.write(f"K = {self.K:.17g}\n")

    def verdict(self, tol: float | None = None) -> tuple[bool, float]:
        """(passed, tol): pass iff the node-wise margin stays >= -tol.

        tol defaults to 1e-8 relative to the oracle's sup, 1e-8 (1 + max M).
        """
        if tol is None:
            tol = 1e-8 * (1.0 + float(np.max(self.majorant.values)))
        else:
            _check_nonnegative("tol", tol)
        return float(np.min(self.margin.values)) >= -tol, tol


@dataclass(frozen=True)
class CertificationResult:
    """Verdict of ``certify``.

    ``min_margin`` is the smallest bound-minus-oracle margin over t > 0; on
    t <= 0 both curves equal theta, so the margin there is exactly zero and
    says nothing.  ``passed`` is decided over every node.
    """

    report: BoundReport
    passed: bool
    tol: float
    min_margin: float


def step_constant_k1(L: GridFunction, nu: float, q: float) -> float:
    """||L||_q * B((nu q - 1)/(q - 1), (nu q - 1)/(q - 1))^((q-1)/q)."""
    _check_q(q, nu)
    _check_node_values("L", L)
    arg = (nu * q - 1.0) / (q - 1.0)
    norm = lp_norm(L, q)
    if norm == 0.0:
        return 0.0
    return norm * beta(arg, arg) ** ((q - 1.0) / q)


def _checked_gain(gain: np.ndarray) -> np.ndarray:
    """Diagonal gains w[i][i] L_i of the first kernel (0 at i = 0), checked below 1.

    A gain >= 1 is exactly when the iterated-kernel series from theta diverges.
    """
    bad = gain[gain >= 1.0]
    if bad.size:
        raise ConvergenceError(
            "iterated kernel series diverges: diagonal gain >= 1 "
            "(grid too coarse for this L)",
            history=list(bad[:5]),
        )
    return gain


# Block heights, powers of two, measured on 2 vCPU: the lemma's BLAS-3 strip
# updates want tall blocks (n = 2048: 0.15 s at 32, 0.10 s at 128 and 256);
# the oracle's BLAS-2 matvecs do not, and its diagonal resolvents cost O(n b)
# memory (n = 2^16: 0.78 s and 80 MB at 32, 0.87 s and 196 MB at 128).
_STRIP = 128  # row-block height and column-strip width of ``_lemma_row_max``
_ORACLE_BLOCK = 32  # row-block height of ``resolvent_majorant``


def resolvent_majorant(problem: GronwallProblem) -> GridFunction:
    """Fixed point of the equality version, by an exact method of steps.

    The discrete system M = theta + A1 M + A2 M is lower triangular with
    diagonal w_right[1] L_i, and on a delay window (lo, hi] the delayed term
    A2 M reads only nodes <= lo.  Each window therefore takes one delayed
    convolution of the solved prefix and a blocked forward substitution over
    its nodes: the rows of each row block I of ``_ORACLE_BLOCK`` nodes inside
    the window take one matvec of a ``SingularWeights.slab`` view against the
    solved L M (plus the rank-one w_left term of j = 0), and are then solved
    by one product with I + R[I, I] from ``_diag_resolvents``.  A window that
    ends inside a block uses the leading or trailing part of that block's
    resolvent, which is the resolvent of the part.  O(n^2) work in
    O(n / b) BLAS-2 calls, O(n b) memory.  The fixed point is the limit of
    the monotone iteration from theta, so it dominates every grid function
    satisfying the inequality.
    """
    spec, weights = problem.spec, problem.weights
    L = problem.L.horizon_values
    theta = problem.theta.horizon_values
    npts = spec.n_points
    b = _ORACLE_BLOCK
    slab = weights.slab(b)
    diag = _diag_resolvents(L, weights, slab)
    x = np.zeros(npts + 1)
    x[0] = theta[0]
    Lx = np.zeros(npts + 1)  # L M on the solved nodes
    Lx[0] = L[0] * x[0]
    for lo, hi in _window_ends(spec):
        prefix = GridFunction.from_horizon_values(spec, x)
        lag = delayed_product_convolution(problem.L, prefix, weights).horizon_values
        a = lo + 1
        while a <= hi:
            r0 = a - a % b
            e = min(r0 + b, hi + 1)
            rhs = theta[a:e] + lag[a:e] + weights.w_left[a:e] * Lx[0]
            rhs += slab[a - r0 : e - r0, npts - r0 + 1 : npts - r0 + a] @ Lx[1:a]
            R = diag[r0 // b, a - r0 : e - r0, a - r0 : e - r0]
            x[a:e] = rhs + R @ rhs
            Lx[a:e] = L[a:e] * x[a:e]
            a = e
    return GridFunction.from_horizon_values(spec, x)


def _diag_resolvents(L: np.ndarray, weights: SingularWeights, slab: np.ndarray) -> np.ndarray:
    """R[I, I] = (I - A1[I, I])^(-1) - I of every row block I of b nodes, b = slab rows.

    A1 = w[i][j] L_j.  Its diagonal blocks are one lower-triangular Toeplitz
    block (the slab's columns n..n+b-1) scaled by L per column, with w_left
    in column 0 of the first; rows past n get L = 0.  All blocks are solved
    at once by recursive doubling: from the 1 x 1 resolvents a / (1 - a),
    each step joins neighbouring diagonal blocks P (top) and Q by
    R[Q, P] = (I + R[Q, Q]) A1[Q, P] (I + R[P, P]), log2(b) batched matmul
    steps in all, O(n b^2) work.  Every term is nonnegative, so nothing
    cancels.  A diagonal gain >= 1 raises ``ConvergenceError``.
    """
    npts, b = weights.spec.n_points, slab.shape[0]
    nb = npts // b + 1
    Lpad = np.zeros(nb * b)
    Lpad[: npts + 1] = L
    # A1[I, I] for every I, overwritten in place: each entry below the
    # diagonal is read once, by the step that turns it into R
    R = slab[:, npts : npts + b] * Lpad.reshape(nb, 1, b)
    head = min(b, npts + 1)
    R[0, :head, 0] = weights.w_left[:head] * L[0]
    a = _checked_gain(np.diagonal(R, axis1=1, axis2=2).copy())  # w_right[1] L_i
    R[:, range(b), range(b)] = a / (1.0 - a)
    s = 1
    while s < b:
        G = _diagonal_groups(R, 2 * s)
        T = G[..., s:, :s] + G[..., s:, s:] @ G[..., s:, :s]
        G[..., s:, :s] = T + T @ G[..., :s, :s]
        s *= 2
    return R


def _diagonal_groups(M: np.ndarray, g: int) -> np.ndarray:
    """View of the g x g diagonal blocks of each b x b matrix of M, (nb, b/g, g, g)."""
    nb, b, _ = M.shape
    s0, s1, s2 = M.strides
    return np.lib.stride_tricks.as_strided(
        M, shape=(nb, b // g, g, g), strides=(s0, g * (s1 + s2), s1, s2)
    )


def _ratio_row_max(R: np.ndarray, A1: np.ndarray) -> np.ndarray:
    """Running max over rows 0..i of R/A1 where A1 > 0 (0 while there is none)."""
    ratio = np.divide(R, A1, out=np.zeros_like(R), where=A1 > 0.0)
    return np.maximum.accumulate(ratio.max(axis=1))


def _lemma_row_max(L: GridFunction, weights: SingularWeights) -> np.ndarray:
    """Running row max of R/A1 for the first kernel A1 = w[i][j] L_j.

    R = (I - A1)^(-1) A1 sums the iterated kernel matrices.  It is found by
    blocked column-strip forward substitution, O(n^3/3) work, O(n b)
    memory, with b = ``_STRIP``; R is never formed whole.  The diagonal
    blocks R[I, I] of every row block come from ``_diag_resolvents``.  Then
    each column strip J = [c0, c0 + b) of R, lower triangular, is walked
    down its row blocks I = [r0, r1): one BLAS-3 update rhs = A1[I, J] +
    w[I, c0:r0] (L R)[c0:r0, J], with w[I, c0:r0] a view of one
    ``SingularWeights.slab``, and R[I, J] = rhs + R[I, I] rhs because
    (I - A1[I, I])^(-1) = I + R[I, I].  L scales the solved rows of the
    strip, not the weights.  Column 0 of A1 is w_left L_0, set apart from
    the slab; row 0 of R is zero (so is row 0 of w), so j = 0 adds nothing
    to a history sum.  Every term is nonnegative, so nothing cancels.  Later
    blocks read only L R, so it is the one strip kept, (n + 1) b doubles;
    R[I, J] and A1[I, J] are b x b temporaries whose ratio is folded into
    the row max as each block is solved.  A diagonal gain >= 1 raises
    ``ConvergenceError``.  All zeros when L vanishes, and then no weights
    are laid out.
    """
    if not np.any(L.horizon_values):
        return np.zeros(weights.spec.n_points + 1)
    L = L.horizon_values
    npts, b = weights.spec.n_points, _STRIP
    slab = weights.slab(b)
    diag = _diag_resolvents(L, weights, slab)
    strip = np.empty((npts + 1, b))
    work = np.empty((2, b, b))
    out = np.zeros(npts + 1)
    for c0 in range(0, npts + 1, b):
        c1 = min(c0 + b, npts + 1)
        LS = strip[: npts + 1 - c0, : c1 - c0]  # (L R)[c0:, J]
        for r0 in range(c0, npts + 1, b):
            r1 = min(r0 + b, npts + 1)
            top, bot, h = r0 - c0, r1 - c0, r1 - r0
            rhs, blk = (w[:h, : c1 - c0] for w in work)  # R[I, J], A1[I, J]
            np.multiply(slab[:h, npts - r0 + c0 : npts - r0 + c1], L[c0:c1], out=blk)
            if c0 == 0:
                blk[:, 0] = weights.w_left[r0:r1] * L[0]
            np.matmul(slab[:h, npts - r0 + c0 : npts], LS[:top], out=rhs)
            rhs += blk
            rhs += diag[r0 // b, :h, :h] @ rhs
            np.multiply(rhs, L[r0:r1, None], out=LS[top:bot])
            out[r0:r1] = np.maximum(out[r0:r1], _ratio_row_max(rhs, blk))
    return np.maximum.accumulate(out)


def lemma1_constant(L: GridFunction, nu: float) -> float:
    """Constant K with resolvent(t_i, t_j) <= K * [first kernel](t_i, t_j) on L's grid.

    Both sides are the product-integration discretizations, so the ratio is
    stable under grid refinement.  The iterated-kernel series is summed in
    closed form by blocked column-strip forward substitution
    (``_lemma_row_max``), O(n^3/3) work, O(n b) memory; a diagonal gain >= 1
    (the only way the series can diverge on the grid) raises
    ``ConvergenceError``.
    """
    _check_node_values("L", L)
    return float(_lemma_row_max(L, build_singular_weights(L.spec, nu))[-1])


def theta_n(problem: GronwallProblem, K: float) -> GridFunction:
    """Majorant forcing: theta plus K times the delay-shifted convolution sums.

    theta_n(t) = theta(t)
               + K sum_{k=1..n} int_0^{t-kh} L theta (t-kh-s)^(nu-1) ds
               + K sum_{k=0..n-1} int_h^{t-kh} L theta(.-h) (t-kh-s)^(nu-1) ds,
    every integral with upper limit <= lower limit taken as 0.  Both sums
    shift by whole delay windows, so they are one window sum H
    (``_window_sum``) and theta_n = theta + K H.  Every term of H is
    nonnegative, and H is exactly 0 on [0, h], where the stored values are
    therefore bitwise equal to theta.
    """
    _check_nonnegative("K", K)
    _, H = _window_sum(problem)
    return GridFunction.from_horizon_values(problem.spec, problem.theta.horizon_values + K * H)


def _delay_rows(v: np.ndarray, m: int) -> np.ndarray:
    """v[1:] as zero-padded (W, m) rows: row k holds nodes k m + 1 .. k m + m."""
    rows = np.zeros(-(-(v.size - 1) // m) * m)
    rows[: v.size - 1] = v[1:]
    return rows.reshape(-1, m)


def _window_sum(problem: GronwallProblem) -> tuple[np.ndarray, np.ndarray]:
    """(A1 theta, H): the convolution of L theta, and the cumulative sum down the
    window rows (``_delay_rows``) of f = A2 theta + (A1 theta)(. - h), 0 on row 0.
    """
    weights = problem.weights
    direct = singular_convolution(problem.L * problem.theta, weights).horizon_values
    lagged = delayed_product_convolution(problem.L, problem.theta, weights).horizon_values
    m = problem.spec.delay_steps
    f = _delay_rows(lagged, m)
    f[0] = 0.0
    f[1:] += _delay_rows(direct, m)[:-1]
    H = np.zeros_like(direct)
    H[1:] = np.cumsum(f, axis=0).ravel()[: H.size - 1]
    return direct, H


def _window_ends(spec: GridSpec) -> list:
    """Horizon index ranges ((lo, hi] node blocks) of the delay windows."""
    m, n = spec.delay_steps, spec.n_points
    return [(lo, min(lo + m, n)) for lo in range(0, n, m)]


def _steps_curve(
    problem: GronwallProblem, weights: SingularWeights, K_lemma: float
) -> GridFunction:
    """Exact discrete method-of-steps dominating curve.

    Window by window, the delayed term is bounded using the previous window's
    curve and the non-delayed resolvent bound R f <= K_lemma * A1 f (exact on
    the grid by construction of K_lemma) is applied to the frozen forcing.
    Window (lo, hi] reads only nodes <= hi, so it convolves that prefix alone
    and writes only its own nodes.  The curve can grow by many decades over
    the horizon, and so the FFT round-off of a later window, which scales
    with that window's values, never reaches the nodes of an earlier one.
    A window that leaves the float range, to inf or to the nan of an FFT
    over inf, is +inf from there on, and so is every later node.
    """
    L = problem.L.horizon_values
    theta = problem.theta.horizon_values
    cur = theta.copy()
    for lo, hi in _window_ends(problem.spec):
        # the delayed term reads cur on nodes <= hi - m <= lo, all solved
        with np.errstate(over="ignore", invalid="ignore"):
            forcing = theta[: hi + 1] + weights.apply_delayed(L[: hi + 1], cur[: hi + 1])
            seg = forcing + K_lemma * weights.apply_horizon(L[: hi + 1] * forcing)
        cur[lo + 1 : hi + 1] = seg[lo + 1 :]
        if not np.isfinite(seg[lo + 1 :]).all():
            cur[lo + 1 :] = math.inf
            break
    return GridFunction.from_horizon_values(problem.spec, cur)


def _report(problem: GronwallProblem, K: float | None) -> BoundReport:
    """The bound with K against the oracle; K None takes the certified K.

    The bound theta + K (H + A1 theta) grows by the gain H + A1 theta per
    unit K, so the method-of-steps curve folds into it with K >= excess /
    gain, excess = curve - theta.  ``K_steps`` is, per delay window (row),
    the max of that ratio and of the lemma's running row max.  The certified
    K adds K1; a curve that overflows (+inf, and so ``K_steps``, from that
    window on) or one above theta where the gain vanishes raises
    ``ConvergenceError``.
    """
    spec, weights, m = problem.spec, problem.weights, problem.spec.delay_steps
    ratio_max = _lemma_row_max(problem.L, weights)
    curve = _steps_curve(problem, weights, float(ratio_max[-1])).horizon_values
    direct, H = _window_sum(problem)
    gain = H + direct
    excess = curve - problem.theta.horizon_values
    fold = np.divide(excess, gain, out=np.zeros_like(gain), where=gain > 0.0)
    rows = np.maximum(_delay_rows(ratio_max, m), _delay_rows(fold, m))
    K_steps = tuple(rows.max(axis=1).tolist())
    if K is None:
        over = ~np.isfinite(curve)
        if over.any():
            window = (int(np.argmax(over)) - 1) // m
            raise ConvergenceError(
                f"method-of-steps curve overflows the float range in delay window "
                f"{window} of {len(rows)}; no finite K can certify this grid problem",
                window=window,
            )
        if not np.all(excess[gain <= 0.0] <= 1e-12 * (1.0 + float(np.max(curve)))):
            raise ConvergenceError(
                "steps curve exceeds theta where the bound gain vanishes; "
                "no finite K can certify this grid problem"
            )
        # K_steps[-1] >= K_lemma, so the lemma constant needs no place of its own
        K = max(*K_steps, step_constant_k1(problem.L, problem.nu, problem.q))
    tn = theta_n(problem, K)
    bound = tn + K * GridFunction.from_horizon_values(spec, direct)
    majorant = resolvent_majorant(problem)
    return BoundReport(
        K_steps=K_steps,
        K=K,
        theta=problem.theta,
        theta_n=tn,
        bound=bound,
        majorant=majorant,
        margin=bound - majorant,
    )


def gronwall_bound(problem: GronwallProblem, K: float) -> BoundReport:
    """Evaluate the explicit bound with the supplied K and compare to the oracle."""
    _check_nonnegative("K", K)
    return _report(problem, K)


def certify(problem: GronwallProblem, tol: float | None = None) -> CertificationResult:
    """Run the bound with the internally constructed K and check domination.

    K is the maximum of the lemma constant, the per-window step constants, and
    the closed-form K1.  The verdict is pass iff the node-wise margin against
    the sharp oracle (the exact fixed point from ``resolvent_majorant``) stays
    above -tol; ``BoundReport.verdict`` holds the rule and its default tol.
    """
    if tol is not None:
        _check_nonnegative("tol", tol)
    report = _report(problem, None)
    passed, tol = report.verdict(tol)
    return CertificationResult(
        report=report,
        passed=passed,
        tol=tol,
        min_margin=float(np.min(report.margin.values[problem.spec.delay_steps + 1 :])),
    )
