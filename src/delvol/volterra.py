"""Windowed contraction solver for the delayed weakly singular state equation.

Solves

    xi(t) = zeta(t) + int_0^t kappa(t, s, xi(s), xi(s-h), u(s)) (t-s)^(nu-1) ds,
    xi(t) = 0 on [-h, 0],

by Picard iteration over contraction windows.  Loading a state makes one
kernel call, whose answer decides once whether kappa reads t
(``_RowEngine.t_free``).  The quadrature row sums (the frozen history of a
window, one application of the state operator, and the kappa-difference curve
of the stability check) are plain prefix sums in ``_block_sum``, which follows
that decision and splits the delay jump cell at s = h: a kernel that ignores t
gives one row of values, summed by FFT or direct correlation with no weights
laid out (Picard keeps those of its solved nodes, so a t-free history calls no
kernel), and one that reads t is called per block of rows and summed against
views of one ``SingularWeights.slab`` per solve or full-prefix sum, with
w_left at j = 0 added as a rank-one term.  The in-window part of a Picard
sweep is one row block, so each window prepares it once (``_window_sweep``)
against the corner of that slab's square block; a t-free solve lays out that
block alone.
The generator kappa carries its growth and Lipschitz envelopes (L0, L, u0,
omega) so the well-posedness estimates can be evaluated against the certified
comparison machinery.

Kernel contract: ``kappa(t, s, xi, xi_h, u)`` is vectorized.  s, xi, xi_h
and u are same-length arrays along the s-axis (xi and xi_h are (C, dim) for
vector states, so s enters there as s[:, None]).  t is either a scalar or a
column of row times, shape (R, 1) for scalar states and (R, 1, 1) for vector
states, which broadcasts against the s-axis arrays.  The answer is either
s-shaped, (C,) or (C, dim), which says kappa ignores t and one row of values
serves every row time, or it carries a leading row axis and broadcasts to
(R, C) or (R, C, dim).  A scalar answer is broadcast to the s shape; any
other shape raises ``StructuralError``, and so does an answer with a row axis
from a kernel whose first answer was s-shaped.  Values at s > t are never
used, so a kernel may be undefined there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    EvaluationError,
    HypothesisError,
    ParameterError,
    StructuralError,
)
from .grid import GridFunction, GridSpec, _lp_norm_at, lp_norm
from .gronwall import GronwallProblem, certify
from .quadrature import SingularWeights, build_singular_weights, singular_convolution
from .reports import CheckRecord

__all__ = [
    "GeneratorKernel",
    "VolterraProblem",
    "SolverConfig",
    "contraction_window",
    "choose_epsilon",
    "picard_solve",
    "apply_state_operator",
    "fixed_point_residual",
    "apriori_check",
    "stability_check",
    "difference_forcing",
    "difference_problem",
    "check_generator_hypotheses",
]

@dataclass(frozen=True)
class GeneratorKernel:
    """Generator kappa with its declared growth and Lipschitz envelopes.

    L0 bounds |kappa(t, s, 0, 0, u0)|; L is the Lipschitz rate in
    (xi, xi_h, u); omega is a modulus of continuity for the t-argument.
    """

    kappa: object
    L0: GridFunction
    L: GridFunction
    u0: np.ndarray
    omega: object = staticmethod(lambda r: r)
    dim_state: int = 1
    dim_control: int = 1

    def __post_init__(self):
        object.__setattr__(self, "u0", np.atleast_1d(np.asarray(self.u0, dtype=float)))
        for g, label in ((self.L0, "L0"), (self.L, "L")):
            if not np.all(np.isfinite(g.values)):
                raise ParameterError(f"{label} must be finite at every node")
        if np.any(self.L0.values < 0.0) or np.any(self.L.values < 0.0):
            raise ParameterError("L0 and L must be node-wise nonnegative")


@dataclass(frozen=True)
class VolterraProblem:
    """State-equation data: free term, generator, control, exponents, grid."""

    zeta: GridFunction
    kernel: GeneratorKernel
    control: GridFunction
    nu: float
    h: float
    p: float
    spec: GridSpec

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ParameterError(f"nu must lie in (0, 1), got {self.nu}")
        if not 1.0 <= self.p < math.inf:  # False for nan too
            raise HypothesisError(f"solution exponent p must be finite and >= 1, got {self.p}")
        for g, label in (
            (self.zeta, "zeta"),
            (self.control, "control"),
            (self.kernel.L0, "L0"),
            (self.kernel.L, "L"),
        ):
            if g.spec != self.spec:
                raise StructuralError(f"{label} does not live on the problem grid")
        if abs(self.h - self.spec.h) > 1e-12 * max(1.0, self.h):
            raise StructuralError("problem delay differs from the grid delay")
        if not np.all(np.isfinite(self.zeta.values)):
            raise ParameterError("zeta must be finite at every node")
        if not np.all(np.isfinite(self.control_distance().values)):
            raise ParameterError("control must be finite-distance from u0")

    @cached_property
    def weights(self) -> SingularWeights:
        """Product-integration weights of the problem grid, built once."""
        return build_singular_weights(self.spec, self.nu)

    def control_distance(self) -> GridFunction:
        """d(u(t), u0) sampled on the grid."""
        u = self.control.horizon_values
        diff = u - (self.kernel.u0 if u.ndim == 2 else self.kernel.u0[0])
        dist = np.linalg.norm(diff, axis=1) if diff.ndim == 2 else np.abs(diff)
        return GridFunction.from_horizon_values(self.spec, dist)


@dataclass(frozen=True)
class SolverConfig:
    """Contraction parameters and Picard controls.

    ``epsilon`` None takes the three-case scan (``choose_epsilon``) of the
    problem being solved.  ``delta`` is the window length; when None,
    ``picard_solve`` takes the certified ``contraction_window``.
    ``force_delta`` acknowledges a delta larger than the certified window
    (plain Picard still converges on the grid, only the norm-contraction
    guarantee is waived).  Every value must be finite.
    """

    epsilon: float | None = None
    delta: float | None = None
    picard_tol: float = 1e-10
    max_iter: int = 500
    force_delta: bool = False

    def __post_init__(self):
        # each comparison is False for nan, so the chains reject it too
        if self.epsilon is not None and not 0.0 <= self.epsilon < math.inf:
            raise ParameterError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.delta is not None and not 0.0 < self.delta < math.inf:
            raise ParameterError(f"delta must be finite and > 0, got {self.delta}")
        if not 0.0 < self.picard_tol < math.inf:
            raise ParameterError(f"picard_tol must be finite and > 0, got {self.picard_tol}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")


def _norm_exponent(p: float, epsilon: float) -> tuple[float, float]:
    """(q, r) with 1/p + 1 = 1/q + 1/(1+eps) and r = pq/(p-q); r = inf at eps = 0."""
    inv_q = 1.0 / p + 1.0 - 1.0 / (1.0 + epsilon)
    if inv_q > 1.0 + 1e-12:
        raise HypothesisError(
            f"epsilon={epsilon} gives q < 1 for p={p} (needs epsilon <= p - 1)"
        )
    q = 1.0 / inv_q
    if abs(p - q) < 1e-12 * p:
        return q, math.inf
    return q, p * q / (p - q)


def contraction_window(L: GridFunction, nu: float, p: float, epsilon: float) -> float:
    """Largest delta <= T with 2 (delta^e1 / e1)^(1/(1+eps)) ||L|| <= 0.99.

    T is the horizon of L's grid, e1 = 1 - (1+eps)(1-nu) and the norm
    exponent is pq/(p-q) from the exponent relation (sup norm when p = q).  The left side increases in
    delta, so when delta = T fails the condition, equality gives the window
    in closed form: delta = (e1 (0.99 / (2 ||L||))^(1+eps))^(1/e1).  Testing T
    first keeps a tiny ||L|| from overflowing the power.
    """
    if not 1.0 <= p < math.inf:  # False for nan
        raise HypothesisError(f"p must be finite and >= 1, got {p}")
    return _contraction_window(_lp_norm_at(L), nu, p, epsilon, L.spec.t_end)


def _contraction_window(norm_of, nu: float, p: float, epsilon: float, T: float) -> float:
    """``contraction_window`` with ||L||_r taken from norm_of(r)."""
    e1 = 1.0 - (1.0 + epsilon) * (1.0 - nu)
    if not e1 > 0.0:  # also a nan nu or epsilon
        raise HypothesisError(
            f"(1+epsilon)(1-nu) must stay below 1; epsilon={epsilon}, nu={nu}"
        )
    _, r = _norm_exponent(p, epsilon)
    norm = norm_of(r)
    if not math.isfinite(norm):
        raise HypothesisError(f"||L|| with exponent {r} is not finite")
    if 2.0 * (T**e1 / e1) ** (1.0 / (1.0 + epsilon)) * norm <= 0.99:
        return T
    return min(T, (e1 * (0.99 / (2.0 * norm)) ** (1.0 + epsilon)) ** (1.0 / e1))


def choose_epsilon(p: float, nu: float, L: GridFunction) -> tuple[float, float, int]:
    """Pick epsilon by the three-case analysis, maximizing the window (<= L's horizon).

    Case 1 (p > 1/(1-nu)): scan epsilon in (0, nu/(1-nu)).
    Case 2 (1 < p <= 1/(1-nu)): scan epsilon in (0, p-1).
    Case 3 (p = 1): epsilon = 0 and the sup norm of L.
    Returns (epsilon, q, case_id).  |L|, its max and the trapezoid weights
    are found once per scan, not once per candidate.
    """
    eps, q, case, _ = _scan_epsilon(p, nu, L)
    return eps, q, case


def _scan_epsilon(p: float, nu: float, L: GridFunction):
    """``choose_epsilon``'s (epsilon, q, case) and the window of that epsilon.

    Case 3 scans nothing, and its window is None.
    """
    if not 1.0 <= p < math.inf:  # False for nan
        raise HypothesisError(f"p must be finite and >= 1, got {p}")
    if abs(p - 1.0) < 1e-12:
        q, _ = _norm_exponent(1.0, 0.0)
        return 0.0, q, 3, None
    if p > 1.0 / (1.0 - nu):
        hi, case = nu / (1.0 - nu), 1
    else:
        hi, case = p - 1.0, 2
    norm_of = _lp_norm_at(L)
    best = None
    for k in range(1, 21):
        eps = hi * k / 21.0
        try:
            delta = _contraction_window(norm_of, nu, p, eps, L.spec.t_end)
        except HypothesisError:
            continue
        if best is None or delta > best[1]:
            best = (eps, delta)
    if best is None:
        raise HypothesisError(
            f"no admissible epsilon found in case {case} for p={p}, nu={nu}"
        )
    q, _ = _norm_exponent(p, best[0])
    return best[0], q, case, best[1]


# -- core block assembly -----------------------------------------------------

# (t, s) pairs per kernel call with a row axis, and so per row block of the
# weights; an s-shaped answer is summed without laying out any
_PAIR_BUDGET = 1 << 16
# nodes per Picard window at most, so that an in-window sweep is one kernel
# call.  Measured: at 256, a t-dependent sweep's 512 KiB answers made
# example414 (n = 512) cost 0.10-0.19 s and up to 42,000 page faults a run,
# set by what the process had freed before (glibc's mmap threshold); 128 and
# 64 take 0.06 s and a few hundred faults whatever ran before.
_WINDOW_NODES = 128


class _RowEngine:
    """Integrand kappa(t_i, ., z, z(. - h), u) of one problem at a loaded state.

    ``_block_sum`` turns an integrand into quadrature row sums; the row layout
    (w_left at j = 0, the reversed stencil inside, w_right[1] on the diagonal)
    lives in ``SingularWeights`` alone, which lays it out (``slab``) or sums
    by it (``apply_rows``, ``apply_horizon``).  The state is kept in the grid's
    own layout, m = h/dt zero prehistory nodes before the horizon values, so
    the lag z(s_j - h) of horizon node j is the same array read at j and can
    never fall out of step with z.  The lag jumps at s = h when z(0) != 0, so
    ``values`` can also sample under its left limit, the zero prehistory.
    """

    fft_prefix = True  # a full prefix may be summed by FFT (see ``_block_sum``)

    def __init__(self, prob: VolterraProblem):
        self.weights = prob.weights
        self.m = prob.spec.delay_steps
        self.t = prob.spec.times[self.m :]
        self.kappa = prob.kernel.kappa
        self.u = prob.control.horizon_values

    def load(self, z: np.ndarray) -> "_RowEngine":
        """Sample at a copy of state z (horizon values) and its lag z(. - h).

        One kernel call, ``origin`` at node 0 and t_1 (s <= t, and t = 0 is
        never a row time), decides ``t_free``; every later answer keeps it.
        """
        self.state = np.zeros((self.m + len(z),) + np.shape(z)[1:])
        self.z = self.state[self.m :]
        self.ndim = self.z.ndim  # of an answer that ignores t: (C,) or (C, dim)
        self.store(0, z)
        # no sweep writes node 0, so whether the lag jumps is fixed here
        self.jumps = self.m > 0 and bool(np.any(self.z[0] != 0.0))
        self.t_free = False  # the first answer may take either shape
        self.origin = self.values(slice(1, 2), slice(0, 1))
        self.t_free = self.origin.ndim == self.ndim
        return self

    def store(self, start: int, seg: np.ndarray) -> None:
        """Write seg into the state from node start on."""
        self.z[start : start + len(seg)] = seg

    def prepare(self, rows: slice, js: slice, left_limit: bool = False):
        """The kappa call at t_i (i in rows) and s_j (j in js), ready to repeat.

        t goes in as a column that broadcasts against the s-axis arrays, and
        the other arguments are views of the state, so each call reads the
        live iterate.  The answer is s-shaped when kappa ignores t, else it
        has a leading row axis (see the module docstring for the contract);
        once ``t_free`` is set, a row axis raises ``StructuralError``.
        """
        t = self.t[rows].reshape((-1,) + (1,) * self.ndim)
        lag = self.state[js] * 0.0 if left_limit else self.state[js]
        args = (t, self.t[js], self.z[js], lag, self.u[js])
        shape = self.z[js].shape
        full = (len(t),) + shape

        def call() -> np.ndarray:
            vals = np.asarray(self.kappa(*args), dtype=float)
            if vals.shape == shape or (vals.shape == full and not self.t_free):
                return vals
            if vals.ndim == 0:
                return np.broadcast_to(vals, shape)
            if vals.ndim == len(full) and not self.t_free:
                try:
                    return np.broadcast_to(vals, full)
                except ValueError:
                    pass
            want = f"{shape}, {full} or a scalar"
            if self.t_free:
                want = f"{shape} or a scalar, as its first answer ignored t"
            raise StructuralError(f"kernel answer has shape {vals.shape}; expected {want}")

        return call

    def values(self, rows: slice, js: slice, left_limit: bool = False) -> np.ndarray:
        """kappa at t_i (i in rows) and s_j (j in js): one ``prepare``d call."""
        return self.prepare(rows, js, left_limit)()

    def locate_bad_eval(self, i: int):
        """Time s of the first non-finite kernel value in row i, if any."""
        vals = self.values(slice(i, i + 1), slice(0, i + 1))
        bad = ~np.isfinite(vals.reshape(i + 1, -1)).all(axis=1)
        return float(self.t[int(np.argmax(bad))]) if bad.any() else None


class _KappaDifference:
    """Integrand |kappa(t, s, xi1, ...) - kappa(t, s, xi2, ...)| of two loaded engines."""

    # The curve is a certified forcing: each node must stay a sum of
    # non-negative terms, exactly 0 where the two problems agree up to t.
    # FFT round-off scales with the largest (late) value and has either sign.
    fft_prefix = False

    def __init__(self, eng1: _RowEngine, eng2: _RowEngine):
        self.eng1, self.eng2 = eng1, eng2
        self.weights, self.m = eng1.weights, eng1.m
        self.ndim = 1  # |difference| is one number per pair, also for vector states
        self.jumps = eng1.jumps or eng2.jumps
        self.t_free = eng1.t_free and eng2.t_free

    def values(self, rows: slice, js: slice, left_limit: bool = False) -> np.ndarray:
        d = self.eng1.values(rows, js, left_limit) - self.eng2.values(rows, js, left_limit)
        return np.abs(d) if self.eng1.ndim == 1 else np.linalg.norm(d, axis=-1)


def _weighted_rows(w: np.ndarray, vals: np.ndarray, d0: int, ndim: int) -> np.ndarray:
    """Row sums of the weight block w against kappa values on the same columns.

    d0 is the distance i - j of the block's top-left entry, which places the
    diagonal.  An s-shaped answer (``vals.ndim == ndim``) serves every row through one
    matvec; an answer with a row axis is summed row by row (einsum), and only
    its R sums are checked.  Pairs above the diagonal (s_j > t_i) carry zero
    weight, but 0 * nan is nan: a non-finite answer is masked there, so a
    kernel may be undefined at s > t, and a nan at s_j still makes every row
    i >= j non-finite.  Every value meets some row sum, so a non-finite value
    always shows in one; finite values whose sum overflows are not masked.
    """
    if vals.ndim > ndim:
        out = np.einsum("rc,rc...->r...", w, vals)
        if np.isfinite(out).all() or np.isfinite(vals).all():
            return out
    elif np.isfinite(vals).all():  # C values; checked first, as matmul warns on 0 * inf
        return w @ vals
    keep = np.arange(w.shape[1]) <= np.arange(d0, d0 + len(w))[:, None]
    vals = np.where(keep.reshape(keep.shape + (1,) * (ndim - 1)), vals, 0.0)
    return np.einsum("rc,rc...->r...", w, vals)


def _split_cell(g, acc: np.ndarray, r0: int, r1: int, lo: int, vals: np.ndarray) -> None:
    """Give rows r0..r1 (sums acc, kappa values vals on columns lo..) the s = h split.

    Every row i >= m (s_m = h) replaces its node-m term by the split-cell
    value, so that the piecewise-linear moments see one-sided limits; the
    left limit costs one kappa call.
    """
    m = g.m
    k = max(m - r0, 0)  # the first row that reaches node m
    left = g.values(slice(r0 + k, r1 + 1), slice(m, m + 1), left_limit=True)
    left = left[:, 0] if left.ndim > g.ndim else left[0]
    right = vals[k:, m - lo] if vals.ndim > g.ndim else vals[m - lo]
    wr = g.weights.w_right[r0 + k - m + 1 : r1 - m + 2]
    acc[k:] += wr.reshape((-1,) + (1,) * (acc.ndim - 1)) * (left - right)


def _block_sum(g, i0: int, i1: int, hi: int, known=None, slab=None) -> np.ndarray:
    """Rows i0..i1 of sum_{0 <= j <= min(hi, i)} w[i][j] g(t_i, s_j), s = h cell split.

    A plain prefix sum that follows the integrand's ``t_free``, decided once
    when its state was loaded:

    * kappa ignores t: one row of values serves every row.  They are
      ``known`` when the caller kept them (the Picard history), else one
      kappa call at the last row t_{i1}, over every column of the sum (all at
      s <= t there).  A full prefix (hi >= i1) of an integrand with
      ``fft_prefix`` set is summed as one lower-triangular Toeplitz product
      by FFT (``apply_horizon``); its round-off is about eps times the
      largest value, of either sign, at every node.  Any other prefix sum, or
      a non-finite answer, is one direct correlation (``apply_rows``): exact
      zeros stay zero, and a nan at s_j reaches only the rows i >= j;
    * kappa reads t: it is called per row block and summed row by row
      against views of a ``SingularWeights.slab``: the caller's, at least
      i1 - i0 + 1 rows high and reaching back to column 1 (Picard lays out
      one per solve), else one laid out here at the height of a row block.
      Column j = 0, w_left and no part of the slab, adds the rank-one term
      w_left[i] kappa(t_i, s_0).  A row block holds at most ``_PAIR_BUDGET``
      (t, s) pairs.

    When the delayed trace jumps, rows i >= m of a sum whose columns hold
    node m get the split-cell correction of ``_split_cell``: once per call for
    a t-free integrand, once per row block otherwise.  The corrected row
    equals the shifted-horizon discretization of the delayed term, which the
    comparison operators use.  This is the only place the split is made.
    """
    width = min(hi, i1) + 1
    split = g.jumps and g.m < width
    if g.t_free:
        vals = g.values(slice(i1, i1 + 1), slice(0, width)) if known is None else known[:width]
        if g.fft_prefix and width == i1 + 1 and np.isfinite(vals).all():
            acc = g.weights.apply_horizon(vals)[i0:]
        else:
            acc = g.weights.apply_rows(vals, i0, i1)
        if split:
            _split_cell(g, acc, i0, i1, 0, vals)
        return acc
    step = min(max(1, _PAIR_BUDGET // width), i1 - i0 + 1)
    if slab is None:
        slab = g.weights.slab(step)
    back = slab.shape[1] - len(slab)
    out = []
    for r0 in range(i0, i1 + 1, step):
        r1 = min(r0 + step, i1 + 1) - 1
        c1 = min(hi, r1)
        v = g.values(slice(r0, r1 + 1), slice(0, c1 + 1))
        # column 0 apart; the rest on columns 1..c1
        v0, v = (v[:, 0], v[:, 1:]) if v.ndim > g.ndim else (v[0], v[1:])
        w = slab[: r1 - r0 + 1, back - r0 + 1 : back - r0 + c1 + 1]
        acc = _weighted_rows(w, v, r0 - 1, g.ndim)
        acc += g.weights.w_left[r0 : r1 + 1].reshape((-1,) + (1,) * (acc.ndim - 1)) * v0
        if split and g.m <= c1:
            _split_cell(g, acc, r0, r1, 1, v)
        out.append(acc)
    return np.concatenate(out)


def _window_sweep(g: _RowEngine, i0: int, i1: int, w: np.ndarray):
    """In-window row sums of rows and columns i0..i1 against the weights w.

    A window fits one kernel call (``_WINDOW_NODES``), so its rows are one
    block, prepared once per window; the prepared call reads the live iterate.
    """
    kappa = g.prepare(slice(i0, i1 + 1), slice(i0, i1 + 1))
    split = g.jumps and i0 <= g.m <= i1

    def sweep() -> np.ndarray:
        vals = kappa()
        acc = _weighted_rows(w, vals, 0, g.ndim)  # rows and columns both start at i0
        if split:
            _split_cell(g, acc, i0, i1, i0, vals)
        return acc

    return sweep


def picard_solve(prob: VolterraProblem, config: SolverConfig | None = None) -> GridFunction:
    """Solve the state equation window by window; returns xi on [-h, T].

    On each window the map z -> zeta + integral(kappa(., z, z(.-h), u)) is
    iterated with the already-solved history frozen, until the sup-norm
    increment falls below picard_tol relative to the iterate size.  A window
    holds at most ``_WINDOW_NODES`` nodes, which refines the certified window
    and never hurts.  The weights depend on i - j alone, so one
    ``SingularWeights.slab`` of window height serves the solve: its square
    block at column ``back`` is the in-window block of every sweep of every
    window (the last, shorter window takes its top-left corner), and each
    window prepares its sweep once (``_window_sweep``).  The frozen history
    goes through ``_block_sum``.  When kappa reads t, the history row blocks
    are views of the same slab, which reaches back to column 1 (back = n).
    When kappa ignores t, its values at the solved nodes are kept (node 0
    from the load, then one call per converged window at its last row), so
    the history is one correlation over them, no solved pair is evaluated
    again, and the slab is the square block alone (back = 0).
    """
    cfg = config if config is not None else SolverConfig()
    spec = prob.spec
    delta = cfg.delta
    # a forced delta waives the certificate, so its hypotheses go unchecked
    if delta is None or not cfg.force_delta:
        eps, certified = cfg.epsilon, None
        if eps is None:
            eps, _, _, certified = _scan_epsilon(prob.p, prob.nu, prob.kernel.L)
        if certified is None:
            certified = contraction_window(prob.kernel.L, prob.nu, prob.p, eps)
        if delta is None:
            delta = certified
        elif delta > certified * (1.0 + 1e-9):
            raise ParameterError(
                f"delta={delta} exceeds the certified window {certified}; "
                "set force_delta=True to override"
            )
    n = spec.n_points
    step = max(1, min(int(delta / spec.dt), _WINDOW_NODES, n))
    zeta = prob.zeta.horizon_values
    engine = _RowEngine(prob).load(zeta)
    slab = prob.weights.slab(step, 0 if engine.t_free else None)
    window_weights = slab[:, slab.shape[1] - step :]
    known = None
    if engine.t_free:
        known = np.empty(zeta.shape)
        known[0] = engine.origin[0]

    for w_idx, lo in enumerate(range(0, n, step)):
        hi = min(lo + step, n)
        frozen = zeta[lo + 1 : hi + 1] + _block_sum(engine, lo + 1, hi, lo, known, slab)
        sweep = _window_sweep(engine, lo + 1, hi, window_weights[: hi - lo, : hi - lo])
        current = engine.z[lo + 1 : hi + 1]
        increments = []
        for _ in range(cfg.max_iter):
            new_seg = frozen + sweep()
            # a non-finite new_seg makes the increment non-finite: one test per
            # sweep; an increment that overflows from finite values goes on to
            # the convergence test
            inc = float(np.abs(new_seg - current).max())
            if not math.isfinite(inc):
                bad_rows = ~np.isfinite(new_seg.reshape(len(new_seg), -1)).all(axis=1)
                if bad_rows.any():
                    i_bad = lo + 1 + int(np.argmax(bad_rows))
                    t_bad = float(engine.t[i_bad])
                    s_bad = engine.locate_bad_eval(i_bad)
                    raise EvaluationError(
                        f"kernel produced a non-finite value at (t, s) = ({t_bad}, {s_bad})",
                        t=t_bad,
                        s=s_bad,
                    )
            engine.store(lo + 1, new_seg)
            increments.append(inc)
            scale = 1.0 + float(np.abs(new_seg).max())
            if inc < cfg.picard_tol * scale:
                break
        else:
            raise ConvergenceError(
                f"Picard iteration cap reached in window {w_idx}",
                history=increments,
                window=w_idx,
            )
        if known is not None:
            known[lo + 1 : hi + 1] = engine.values(slice(hi, hi + 1), slice(lo + 1, hi + 1))
    return GridFunction(spec, engine.state)


def apply_state_operator(prob: VolterraProblem, z: GridFunction) -> GridFunction:
    """One full application zeta + integral(kappa(., z, z(.-h), u))."""
    if z.spec != prob.spec:
        raise StructuralError("iterate does not live on the problem grid")
    engine = _RowEngine(prob).load(z.horizon_values)
    out = prob.zeta.horizon_values.copy()
    out[1:] += _block_sum(engine, 1, prob.spec.n_points, prob.spec.n_points)
    return GridFunction.from_horizon_values(prob.spec, out)


def fixed_point_residual(prob: VolterraProblem, xi: GridFunction) -> float:
    """Sup-node magnitude of xi minus one operator application."""
    image = apply_state_operator(prob, xi)
    return float(np.max((xi - image).magnitude().values))


# -- well-posedness checks ----------------------------------------------------


def _induced_forcing(prob: VolterraProblem) -> GridFunction:
    """|zeta| + int (L0 + L d(u, u0)) (t-s)^(nu-1) ds, the growth forcing."""
    drive = prob.kernel.L0 + prob.kernel.L * prob.control_distance()
    return prob.zeta.magnitude() + singular_convolution(drive, prob.weights)


def _certified_bound_norm(prob: VolterraProblem, forcing: GridFunction):
    """||bound||_p on [-h, T], {gronwall_K, certified_margin} of certify(L, forcing, nu)."""
    cert = certify(GronwallProblem.build(prob.kernel.L, forcing, prob.nu))
    bound_norm = lp_norm(cert.report.bound, prob.p, window=(prob.spec.t_start, prob.spec.t_end))
    return bound_norm, {"gronwall_K": cert.report.K, "certified_margin": cert.min_margin}


def apriori_check(
    prob: VolterraProblem, xi: GridFunction, K: float | None = None
) -> CheckRecord:
    """Check ||xi||_p <= ||zeta||_p + K (1 + ||d(u, u0)||_p).

    With K omitted, the constant is derived from the certified comparison
    bound of the induced growth inequality, which dominates |xi| node-wise.
    """
    lhs = lp_norm(xi, prob.p, window=(prob.spec.t_start, prob.spec.t_end))
    zeta_norm = lp_norm(prob.zeta, prob.p, window=(prob.spec.t_start, prob.spec.t_end))
    control_norm = lp_norm(prob.control_distance(), prob.p)
    constants = {}
    if K is None:
        bound_norm, constants = _certified_bound_norm(prob, _induced_forcing(prob))
        K = max(0.0, bound_norm - zeta_norm) / (1.0 + control_norm)
    rhs = zeta_norm + K * (1.0 + control_norm)
    constants.update({"K": K, "zeta_norm": zeta_norm, "control_norm": control_norm})
    return CheckRecord(
        name="apriori",
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs + 1e-10,
        constants=constants,
    )


def _kappa_difference_curve(
    prob1: VolterraProblem,
    prob2: VolterraProblem,
    xi1: GridFunction,
    xi2: GridFunction,
) -> GridFunction:
    """t -> int_0^t |kappa(t,s,xi1,...) - kappa(t,s,xi2,...)| (t-s)^(nu-1) ds."""
    g = _KappaDifference(
        _RowEngine(prob1).load(xi1.horizon_values),
        _RowEngine(prob2).load(xi2.horizon_values),
    )
    n = prob1.spec.n_points
    out = np.zeros(n + 1)
    out[1:] = _block_sum(g, 1, n, n)
    return GridFunction.from_horizon_values(prob1.spec, out)


def _check_shared_structure(prob1: VolterraProblem, prob2: VolterraProblem):
    same = (
        prob1.kernel is prob2.kernel
        and prob1.nu == prob2.nu
        and prob1.h == prob2.h
        and prob1.p == prob2.p
        and prob1.spec == prob2.spec
    )
    if not same:
        raise StructuralError(
            "stability comparison requires shared (kernel, nu, h, p, spec)"
        )


def difference_forcing(
    prob1: VolterraProblem,
    prob2: VolterraProblem,
    xi1: GridFunction,
    xi2: GridFunction,
) -> GridFunction:
    """|zeta1 - zeta2| + the kappa-difference convolution; forcing for |xi1 - xi2|."""
    _check_shared_structure(prob1, prob2)
    return (prob1.zeta - prob2.zeta).magnitude() + _kappa_difference_curve(
        prob1, prob2, xi1, xi2
    )


def difference_problem(
    prob1: VolterraProblem,
    prob2: VolterraProblem,
    xi1: GridFunction,
    xi2: GridFunction,
    q: float | None = None,
) -> GronwallProblem:
    """Comparison problem satisfied by |xi1 - xi2| on the grid; q None is 2/nu."""
    theta = difference_forcing(prob1, prob2, xi1, xi2)
    return GronwallProblem.build(prob1.kernel.L, theta, prob1.nu, q)


def stability_check(
    prob1: VolterraProblem,
    prob2: VolterraProblem,
    xi1: GridFunction,
    xi2: GridFunction,
    K: float | None = None,
) -> CheckRecord:
    """Check ||xi1 - xi2||_p <= K { ||zeta1 - zeta2||_p + [kappa-difference term] }."""
    _check_shared_structure(prob1, prob2)
    spec = prob1.spec
    window = (spec.t_start, spec.t_end)
    lhs = lp_norm(xi1 - xi2, prob1.p, window=window)
    zeta_diff = lp_norm(prob1.zeta - prob2.zeta, prob1.p, window=window)
    kappa_curve = _kappa_difference_curve(prob1, prob2, xi1, xi2)
    bracket = lp_norm(kappa_curve, prob1.p)
    brace = zeta_diff + bracket
    constants = {"zeta_diff_norm": zeta_diff, "kappa_bracket": bracket}
    if K is None:
        if brace == 0.0:
            K = 0.0
        else:
            forcing = (prob1.zeta - prob2.zeta).magnitude() + kappa_curve
            bound_norm, certified = _certified_bound_norm(prob1, forcing)
            K = bound_norm / brace
            constants.update(certified)
    rhs = K * brace
    constants["K"] = K
    return CheckRecord(
        name="stability",
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs + 1e-10 * (1.0 + rhs),
        constants=constants,
    )


def check_generator_hypotheses(
    prob: VolterraProblem, samples: int = 100, rng=None
) -> dict:
    """Spot-check the declared envelopes at sampled tuples.

    Returns worst-case slack for the growth bound, the Lipschitz bound, the
    combined growth bound, and the t-continuity ratio (negative slack means a
    violation).
    """
    rng = np.random.default_rng(rng)
    spec = prob.spec
    kernel = prob.kernel
    if kernel.dim_state != 1:
        raise StructuralError("hypothesis spot-check supports scalar state only")
    t_pos = spec.times[spec.delay_steps :]
    n = len(t_pos)
    u0 = kernel.u0 if kernel.dim_control > 1 else kernel.u0[0]
    growth_slack = math.inf
    lipschitz_slack = math.inf
    combined_slack = math.inf
    t_ratio = 0.0
    for _ in range(samples):
        j = int(rng.integers(1, n))
        i = int(rng.integers(j, n))
        t, s = float(t_pos[i]), float(t_pos[j])
        sv = np.array([s])
        L0s = kernel.L0.horizon_values[j]
        Ls = kernel.L.horizon_values[j]
        xi, xi_p = rng.uniform(-2.0, 2.0, size=2)
        xih, xih_p = rng.uniform(-2.0, 2.0, size=2)
        uv = np.array([u0]) if np.ndim(u0) == 0 else u0[None, :]
        k00 = float(np.atleast_1d(kernel.kappa(t, sv, np.array([0.0]), np.array([0.0]), uv))[0])
        growth_slack = min(growth_slack, L0s - abs(k00))
        ka = float(np.atleast_1d(kernel.kappa(t, sv, np.array([xi]), np.array([xih]), uv))[0])
        kb = float(np.atleast_1d(kernel.kappa(t, sv, np.array([xi_p]), np.array([xih_p]), uv))[0])
        lip_rhs = Ls * (abs(xi - xi_p) + abs(xih - xih_p))
        lipschitz_slack = min(lipschitz_slack, lip_rhs - abs(ka - kb))
        comb_rhs = L0s + Ls * (abs(xi) + abs(xih))
        combined_slack = min(combined_slack, comb_rhs - abs(ka))
        t2 = float(t_pos[int(rng.integers(j, n))])
        kc = float(np.atleast_1d(kernel.kappa(t2, sv, np.array([xi]), np.array([xih]), uv))[0])
        denom = kernel.omega(abs(t - t2)) * (1.0 + abs(xi) + abs(xih))
        if denom > 0.0:
            t_ratio = max(t_ratio, abs(ka - kc) / denom)
    return {
        "growth_slack": growth_slack,
        "lipschitz_slack": lipschitz_slack,
        "combined_slack": combined_slack,
        "t_continuity_ratio": t_ratio,
    }
