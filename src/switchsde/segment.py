"""Fixed-grid history window used by path-dependent switching rates."""

from __future__ import annotations

import math

import numpy as np

_GRID_TOL = 1e-9


def _grid_size(delay: float, dt: float) -> int:
    """Sample count r/dt + 1 of the window grid; raises unless r and dt are
    finite and positive and r is an integer multiple of dt."""
    for name, v in (("delay", delay), ("dt", dt)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {v}")
    steps = delay / dt
    if abs(steps - round(steps)) > _GRID_TOL * max(1.0, steps):
        raise ValueError(f"delay {delay} is not an integer multiple of dt {dt}")
    return int(round(steps)) + 1


class _Window:
    """Reads of a ring of grid samples: ``_slot(k)`` copies ring slot k, of shape ``_shape``."""

    __slots__ = ()

    def value_at(self, s: float) -> np.ndarray:
        """Linearly interpolated value at offset ``s`` in [-r, 0]."""
        s = float(s)
        if not -self.delay - _GRID_TOL <= s <= _GRID_TOL:  # written so that NaN fails
            raise ValueError(f"offset {s} outside [{-self.delay}, 0]")
        u = (s + self.delay) / self.dt
        m = self._buf.shape[0]
        u = min(max(u, 0.0), m - 1.0)
        k = int(u)
        frac = u - k
        lo = self._slot((self._head + k) % m)
        if frac <= _GRID_TOL or k == m - 1:
            return lo
        hi = self._slot((self._head + k + 1) % m)
        if frac >= 1.0 - _GRID_TOL:
            return hi
        return (1.0 - frac) * lo + frac * hi

    def integrate_against(self, weights) -> np.ndarray:
        """Discrete pairing sum(w_k * phi(s_k)) for weights [(s_k, w_k), ...],
        summed in order from 0.0, which turns a -0.0 first term into +0.0."""
        terms = [float(w) * self.value_at(s) for s, w in weights]
        return sum(terms, 0.0) if terms else np.zeros(self._shape)


class Segment(_Window):
    """Sliding window of a trajectory over the interval [-r, 0].

    Holds exactly ``r/dt + 1`` samples on a uniform grid, oldest first in
    logical order, backed by a ring buffer so advancing the window by one
    grid step is O(1).  Values between grid points are linearly
    interpolated; the window norm is the max Euclidean norm over the grid
    samples.
    """

    __slots__ = ("delay", "dt", "dim", "_buf", "_head")

    def __init__(self, samples, delay: float, dt: float):
        delay = float(delay)
        dt = float(dt)
        n = _grid_size(delay, dt)
        buf = np.array(samples, dtype=float, copy=True)
        if buf.ndim == 1:
            buf = buf[:, None]
        if buf.ndim != 2 or buf.shape[0] != n:
            raise ValueError(
                f"need {n} samples on the grid for delay={delay}, dt={dt}; "
                f"got shape {buf.shape}"
            )
        if not np.isfinite(buf).all():
            raise ValueError("samples must be finite")
        self.delay = delay
        self.dt = dt
        self.dim = buf.shape[1]
        self._buf = buf
        self._head = 0  # index of the oldest sample

    @classmethod
    def make_constant(cls, phi0, delay: float, dt: float) -> "Segment":
        """Window holding the constant value ``phi0`` on the whole grid."""
        phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
        if phi0.ndim != 1:
            raise ValueError("phi0 must be a vector")
        return cls(np.tile(phi0, (_grid_size(float(delay), float(dt)), 1)), delay, dt)

    @property
    def n_samples(self) -> int:
        return self._buf.shape[0]

    @property
    def samples(self) -> np.ndarray:
        """Grid samples in chronological order (oldest first), as a copy."""
        if self._head == 0:
            return self._buf.copy()
        return np.vstack((self._buf[self._head:], self._buf[: self._head]))

    def push(self, x) -> None:
        """Drop the oldest sample and append ``x`` as the newest."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected sample of shape ({self.dim},), got {x.shape}")
        self._buf[self._head] = x
        self._head = (self._head + 1) % self._buf.shape[0]

    _shape = property(lambda self: (self.dim,))

    def _slot(self, k: int) -> np.ndarray:
        return self._buf[k].copy()

    def terminal(self) -> np.ndarray:
        """Newest sample, the current state phi(0)."""
        m = self._buf.shape[0]
        return self._buf[(self._head + m - 1) % m].copy()

    def sup_norm(self) -> float:
        """Max Euclidean norm over the grid samples."""
        return float(np.sqrt((self._buf * self._buf).sum(axis=1).max()))

    def copy(self) -> "Segment":
        return Segment(self.samples, self.delay, self.dt)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Segment(delay={self.delay}, dt={self.dt}, dim={self.dim}, "
            f"n={self.n_samples})"
        )


class SegmentBatch(_Window):
    """History windows of the paths ``paths`` (an index array) in the ring
    ``buf`` (n_samples, n_paths, dim), oldest sample at ``head``.

    ``sup_norm``, ``value_at`` and ``integrate_against`` return one value
    per path, (P,) or (P, dim), each equal to the path's own
    :class:`Segment` read.  ``norms()``, when given, returns the sup-norm
    of every path of the ring, so that views share one computation.
    """

    __slots__ = ("delay", "dt", "dim", "_buf", "_head", "_paths", "_norms")

    def __init__(self, buf, head: int, paths, delay: float, dt: float, norms=None):
        self.delay, self.dt, self.dim = delay, dt, buf.shape[2]
        self._buf, self._head, self._paths, self._norms = buf, head, paths, norms

    def sup_norm(self) -> np.ndarray:
        if self._norms is not None:
            return self._norms().take(self._paths)
        h = self._buf.take(self._paths, axis=1)
        return np.sqrt((h * h).sum(axis=2).max(axis=0))

    _shape = property(lambda self: (len(self._paths), self.dim))

    def _slot(self, k: int) -> np.ndarray:
        return self._buf[k].take(self._paths, axis=0)
