"""Uniform grids on [-h, T] with zero prehistory, and Lp norms over node windows.

Functions with a time lag are stored on a single uniform grid that covers the
prehistory interval [-h, 0) explicitly.  All prehistory values are pinned to
zero, so shifted arguments never need special-casing: reading index ``k - m``
(with ``m = h/dt``) is always valid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ParameterError, StructuralError

__all__ = ["GridSpec", "GridFunction", "lp_norm"]

_ALIGN_RTOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with ``n_points`` intervals on [0, t_end] plus prehistory.

    The step is ``dt = t_end / n_points``.  A positive delay ``h`` must be an
    exact multiple of ``dt`` (within rounding) so that delayed arguments land
    on grid nodes; the prehistory starts at ``t_start = -h``.
    """

    t_end: float
    n_points: int
    h: float = 0.0

    def __post_init__(self):
        # each comparison is False for nan, so the chains reject it too
        if not 0.0 < self.t_end < math.inf:
            raise ParameterError(f"t_end must be finite and positive, got {self.t_end}")
        try:
            operator.index(self.n_points)
        except TypeError:
            raise ParameterError(f"n_points must be an integer, got {self.n_points!r}") from None
        if self.n_points < 2:
            raise ParameterError(f"n_points must be >= 2, got {self.n_points}")
        if not 0.0 <= self.h < math.inf:
            raise ParameterError(f"delay h must be finite and >= 0, got {self.h}")
        if self.h > 0.0:
            ratio = self.h / self.dt
            if abs(ratio - round(ratio)) > _ALIGN_RTOL * max(1.0, ratio):
                raise ParameterError(
                    f"delay h={self.h} is not a multiple of dt={self.dt}"
                )
            if round(ratio) < 1:
                raise ParameterError("positive delay must span at least one step")

    @property
    def t_start(self) -> float:
        return -self.h

    @property
    def dt(self) -> float:
        return self.t_end / self.n_points

    @property
    def delay_steps(self) -> int:
        """Number of grid steps spanned by the delay (0 when h == 0)."""
        return int(round(self.h / self.dt)) if self.h > 0.0 else 0

    @property
    def n_nodes(self) -> int:
        return self.delay_steps + self.n_points + 1

    @cached_property
    def times(self) -> np.ndarray:
        t = (np.arange(self.n_nodes) - self.delay_steps) * self.dt
        t.flags.writeable = False
        return t

    def index_at(self, t: float) -> int:
        """Node index of a grid-aligned time; raises if t is off the grid."""
        steps = t / self.dt
        if not abs(steps) < math.inf:  # nan, +-inf, or a time whose step count overflows
            raise DomainError(
                f"time {t} is not a finite time in [{self.t_start}, {self.t_end}]"
            )
        i = int(round(steps)) + self.delay_steps
        if i < 0 or i >= self.n_nodes:
            raise DomainError(f"time {t} outside [{self.t_start}, {self.t_end}]")
        if abs(t - self.times[i]) > _ALIGN_RTOL * max(1.0, self.dt):
            raise DomainError(f"time {t} does not lie on a grid node")
        return i


@dataclass(frozen=True)
class GridFunction:
    """Node values on a GridSpec; prehistory nodes in [-h, 0) are exactly zero.

    ``values`` has shape (n_nodes,) for scalar functions or (n_nodes, d) for
    vector-valued ones.  Instances are immutable and safe to share.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[0] != self.spec.n_nodes:
            raise StructuralError(
                f"values shape {vals.shape} does not match {self.spec.n_nodes} nodes"
            )
        m = self.spec.delay_steps
        if m > 0 and np.any(vals[:m] != 0.0):
            raise StructuralError("prehistory values on [-h, 0) must be exactly zero")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, spec: GridSpec, dim: int | None = None) -> "GridFunction":
        shape = (spec.n_points + 1,) if dim is None else (spec.n_points + 1, dim)
        return cls.from_horizon_values(spec, np.zeros(shape))

    @classmethod
    def constant(cls, spec: GridSpec, c: float) -> "GridFunction":
        return cls.from_horizon_values(spec, np.full(spec.n_points + 1, c, dtype=float))

    @classmethod
    def from_callable(cls, spec: GridSpec, fn) -> "GridFunction":
        """Sample fn on the nodes of [0, t_end], per node if it does not vectorize."""
        t_pos = spec.times[spec.delay_steps :]
        sampled = np.asarray(fn(t_pos), dtype=float)
        if sampled.shape[:1] != t_pos.shape:
            sampled = np.array([fn(t) for t in t_pos], dtype=float)
        return cls.from_horizon_values(spec, sampled)

    @classmethod
    def from_horizon_values(cls, spec: GridSpec, arr) -> "GridFunction":
        """Build from values on the [0, t_end] nodes; the prehistory nodes are zero."""
        arr = np.asarray(arr, dtype=float)
        if arr.shape[:1] != (spec.n_points + 1,):
            raise StructuralError(
                f"expected {spec.n_points + 1} horizon values, got shape {arr.shape}"
            )
        vals = np.zeros((spec.n_nodes,) + arr.shape[1:])
        vals[spec.delay_steps :] = arr
        return cls(spec, vals)

    # -- views -------------------------------------------------------------

    @property
    def horizon_values(self) -> np.ndarray:
        """Values on the [0, t_end] nodes."""
        return self.values[self.spec.delay_steps :]

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    def at_time(self, t: float):
        return self.values[self.spec.index_at(t)]

    def magnitude(self) -> "GridFunction":
        """Node-wise Euclidean magnitude (identity-shaped for scalars)."""
        if self.values.ndim == 1:
            return GridFunction(self.spec, np.abs(self.values))
        return GridFunction(self.spec, np.linalg.norm(self.values, axis=1))

    # -- arithmetic ---------------------------------------------------------

    def _check_spec(self, other: "GridFunction"):
        if other.spec != self.spec:
            raise StructuralError("grid functions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_spec(other)
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_spec(other)
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, other) -> "GridFunction":
        if isinstance(other, GridFunction):
            self._check_spec(other)
            return GridFunction(self.spec, self.values * other.values)
        return GridFunction(self.spec, self.values * float(other))

    __rmul__ = __mul__

    # -- serialization -------------------------------------------------------

    def to_csv(self, path, header_lines=()) -> None:
        """Write ``t,value`` rows (or ``t,xi_1..xi_n``) with 17 significant digits."""
        vals = self.values if self.values.ndim == 2 else self.values[:, None]
        ncol = vals.shape[1]
        cols = "value" if self.values.ndim == 1 else ",".join(
            f"xi_{k + 1}" for k in range(ncol)
        )
        with open(path, "w", encoding="utf-8") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write(f"t,{cols}\n")
            fh.write(_csv_rows(np.column_stack([self.spec.times, vals])))

    @classmethod
    def read_csv(cls, path, spec: GridSpec) -> "GridFunction":
        """Read a ``to_csv`` table; its t column must match ``spec.times``.

        A non-numeric cell, or a row whose cell count differs from the first
        row's, raises ``StructuralError`` naming its 1-based line number.
        """
        rows = []
        with open(path, encoding="utf-8") as fh:
            for num, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("t,"):
                    continue
                try:
                    row = [float(x) for x in line.split(",")]
                except ValueError as exc:
                    raise StructuralError(f"CSV line {num}: {exc}") from None
                if rows and len(row) != len(rows[0]):
                    raise StructuralError(
                        f"CSV line {num} has {len(row)} cells, the first row {len(rows[0])}"
                    )
                rows.append(row)
        arr = np.asarray(rows)
        if arr.shape[0] != spec.n_nodes:
            raise StructuralError(
                f"CSV has {arr.shape[0]} rows, grid has {spec.n_nodes} nodes"
            )
        if arr.shape[1] < 2:
            raise StructuralError("CSV has a t column but no value column")
        off = np.max(np.abs(arr[:, 0] - spec.times))
        if off > _ALIGN_RTOL * max(1.0, spec.t_end, spec.h):
            raise StructuralError(
                f"CSV t column is off the grid nodes by up to {off:.3g}"
            )
        vals = arr[:, 1:]
        if vals.shape[1] == 1:
            vals = vals[:, 0]
        return cls(spec, vals)


def _csv_rows(table: np.ndarray) -> str:
    """The rows of a 2-D table as CSV lines, every value with 17 significant digits.

    One ``%`` format over all rows; it writes the bytes of ``f"{v:.17g}"``
    per value, -0, nan and inf included.
    """
    rows, cols = table.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    return (line * rows) % tuple(table.ravel().tolist())


def _window_slice(spec: GridSpec, window) -> tuple[int, int]:
    a, b = window
    if a > b:
        raise DomainError(f"empty window [{a}, {b}]")
    return spec.index_at(a), spec.index_at(b)


def lp_norm(f: GridFunction, p: float, window=None) -> float:
    """Lp norm of |f| over a node-aligned window, by composite trapezoid.

    Defaults to the [0, t_end] window.  ``p = math.inf`` returns the discrete
    sup of |f| over the window nodes.  The sum is taken on |f| / max |f|, so a
    large p neither overflows nor underflows.
    """
    if not 1.0 <= p <= math.inf:  # False for nan
        raise ParameterError(f"exponent p must be >= 1 or inf, got {p}")
    return _lp_norm_at(f, window)(p)


def _lp_norm_at(f: GridFunction, window=None):
    """p -> ``lp_norm(f, p, window)``, with |f|, its max and the weights found once.

    A scan over many exponents of one function takes the norms from one such
    callable; p is not checked here.
    """
    spec = f.spec
    if window is None:
        window = (0.0, spec.t_end)
    i0, i1 = _window_slice(spec, window)
    mag = f.magnitude().values[i0 : i1 + 1]
    mx = float(np.max(mag))
    scaled = mag / mx if 0.0 < mx < math.inf else None
    w = np.full(i1 - i0 + 1, spec.dt)
    w[0] = w[-1] = 0.5 * spec.dt

    def norm(p: float) -> float:
        if p == math.inf:
            return mx
        if i1 == i0:
            return 0.0
        if scaled is None:  # max |f| is 0 or not finite
            return mx
        return mx * float(np.sum(w * scaled**p) ** (1.0 / p))

    return norm

