"""Chart-based differential geometry: points, connection and metric fields,
parametrized paths, torsion, curvature, and the covariant derivative of
tensor components along a curve.

Everything lives in a single global chart of dimension ``d``: a vector is a
``(d,)`` array of components and a tensor a ``(d,) * (p + q)`` array, upper
indices first.

Index convention, fixed for the whole package::

    (D_k Y)^i = d_k Y^i + Gamma^i_{jk} Y^j

i.e. for connection coefficients ``Gamma[i, j, k]`` the middle index ``j``
contracts the vector and the last index ``k`` is the differentiation
direction.  Derived slot conventions (validated symbolically against the
deviation-equation set before this module was written):

* torsion          ``T[i, j, k] = Gamma[i, j, k] - Gamma[i, k, j]``,
  applied as       ``T(X, Y)^i = T[i, j, k] Y^j X^k``
* curvature        ``R[i, j, k, l] = d_k G[i,j,l] - d_l G[i,j,k] + GG - GG``,
  applied as       ``R(X, Y)Z^i = R[i, j, k, l] Z^j X^k Y^l``
"""

from __future__ import annotations

import itertools
import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, EvaluationError, NullVectorError

__all__ = [
    "ChartPoint",
    "ConnectionField",
    "MetricField",
    "PathCurve",
    "read_points",
    "checked_array",
    "torsion_at",
    "torsion_components",
    "curvature_at",
    "curvature_components",
    "cov_tensor_components",
    "metric_dot",
    "sign_of_square",
    "bilinear",
    "torsion_apply",
    "curvature_apply",
]

METRIC_SYMMETRY_TOL = 1e-12
METRIC_DET_TOL = 1e-12
NULL_TOL = 1e-10  # |U^2| at or below this is null for sign_of_square


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite: a NaN or an infinity makes a
    float sum non-finite, and NumPy decides past 16 entries, where it is
    the cheaper test, and after a non-finite sum."""
    return ((arr.size <= 16 and math.isfinite(sum(arr.ravel().tolist())))
            or np.count_nonzero(np.isfinite(arr)) == arr.size)


def checked_array(values, shape: Tuple[int, ...], what: str,
                  point: Optional["ChartPoint"] = None) -> np.ndarray:
    """``values`` as a float array, which must have ``shape`` and finite
    entries; EvaluationError naming ``what`` (at ``point``) otherwise."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise EvaluationError(f"{what} have shape {arr.shape}, expected {shape}",
                              point=point)
    if not _all_finite(arr):
        raise EvaluationError(f"non-finite {what}", point=point)
    return arr


def _checked_stack(values, shape: Tuple[int, ...], what: str, coords) -> np.ndarray:
    """``checked_array`` of one ``shape`` entry per row of the checked
    ``coords``, made once on the stack; a bad entry raises at its row's point."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (len(coords), *shape) or not _all_finite(arr):
        for x, row in zip(coords, np.atleast_1d(arr)):
            checked_array(row, shape, what, ChartPoint(x))
        raise EvaluationError(f"{what} have shape {arr.shape}")
    return arr


def _require(value: float, domain: Tuple[float, float], prefix: str, name: str) -> None:
    """DomainError ``f"{prefix}{value} outside {name} [lo, hi]"`` unless ``value``
    lies in ``domain`` widened by 1e-12 at each end; the message is formatted
    only to raise."""
    lo, hi = domain
    if not (lo - 1e-12 <= value <= hi + 1e-12):
        raise DomainError(f"{prefix}{value} outside {name} [{lo}, {hi}]")


class ChartPoint:
    """A point of the manifold, by its flat, finite chart coordinates; immutable."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 1 or not _all_finite(coords):
            raise EvaluationError(f"chart coordinates must be flat and finite: {coords!r}")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle without assigning a field
        return ChartPoint, (self.coords,)

    @property
    def dimension(self) -> int:
        return self.coords.shape[0]

    def __repr__(self):
        return f"ChartPoint({np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True)
class ConnectionField:
    """Affine connection given by its coefficient field ``Gamma^i_{jk}(x)``.

    Every field is stated on a stack: ``gamma_at`` maps an ``(n, d)`` stack
    of coordinates to the ``(n, d, d, d)`` stack of Gamma, laid out per the
    module index convention, and ``partials_at`` to the ``(n, d, d, d, d)``
    stack of its analytic partials, derivative index last (``partials[n, i,
    j, k, l] = d_l Gamma^i_{jk}``); ``coefficients`` and ``partials`` read
    them checked once per stack, a bad row raising at its point.
    """

    gamma_at: Callable[[np.ndarray], np.ndarray]
    partials_at: Callable[[np.ndarray], np.ndarray]

    def coefficients(self, coords: np.ndarray) -> np.ndarray:
        return _checked_stack(self.gamma_at(coords), coords.shape[1:] * 3,
                              "connection coefficients", coords)

    def partials(self, coords: np.ndarray) -> np.ndarray:
        return _checked_stack(self.partials_at(coords), coords.shape[1:] * 4,
                              "connection partials", coords)


@dataclass(frozen=True)
class MetricField:
    """Bundle metric ``g_{ij}(x)``: bilinear, symmetric, nondegenerate,
    stated on stacks as ``ConnectionField`` is: ``g_at`` gives ``(n, d, d)``
    and ``partials_at`` ``(n, d, d, d)``, ``partials[n, i, j, l] = d_l g_{ij}``.

    Not assumed positive definite, and not assumed compatible with any
    connection (nonmetricity is allowed and measured elsewhere).
    """

    g_at: Callable[[np.ndarray], np.ndarray]
    partials_at: Callable[[np.ndarray], np.ndarray]

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        """g at each row of ``coords``, checked once; the first row that is
        not symmetric, or else degenerate, raises at its point."""
        g = _checked_stack(self.g_at(coords), coords.shape[1:] * 2, "metric entries", coords)
        asymmetric = np.max(np.abs(g - g.swapaxes(1, 2)), axis=(1, 2)) > METRIC_SYMMETRY_TOL
        bad = asymmetric | (np.abs(np.linalg.det(g)) <= METRIC_DET_TOL)
        if bad.any():
            row = int(np.argmax(bad))
            raise EvaluationError("metric is not symmetric" if asymmetric[row]
                                  else "metric is degenerate", point=ChartPoint(coords[row]))
        return g

    def partials(self, coords: np.ndarray) -> np.ndarray:
        return _checked_stack(self.partials_at(coords), coords.shape[1:] * 3,
                              "metric partials", coords)


@dataclass(frozen=True)
class PathCurve:
    """A C^1 path in the chart over ``domain``, stated once as ``jets(u) ->
    (coords, velocity)``, read at one u, point and velocity checked, by ``map``
    and ``tangent``, and at a stack of u by ``points`` (``read_points``).  A
    path that is the line ``key`` of a family whose ``read(keys, us)`` gives
    the same values at one key per row states ``along = (read, key)``."""

    jets: Callable[[float], Tuple[np.ndarray, np.ndarray]]
    domain: Tuple[float, float]
    along: Optional[Tuple[Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
                          float]] = None

    def _jet(self, u: float) -> Tuple[ChartPoint, np.ndarray]:
        coords, velocity = self.jets(u)
        point = ChartPoint(coords)
        return point, checked_array(velocity, point.coords.shape, "tangent components", point)

    def map(self, u: float) -> ChartPoint:
        return self._jet(u)[0]

    def tangent(self, u: float) -> np.ndarray:
        return self._jet(u)[1]

    def points(self, us) -> Tuple[np.ndarray, np.ndarray]:
        """``read_points([(self, us)])``."""
        return read_points([(self, us)])

    def require(self, s: float) -> None:
        _require(s, self.domain, "parameter ", "path domain")


def _checked_points(coords, velocity) -> Tuple[np.ndarray, np.ndarray]:
    """``read_points``' check of a stack: the coordinates flat and finite,
    made read-only (the laws and fields read its rows), and the velocities
    finite, the first bad row raising at its point."""
    coords, velocity = np.asarray(coords, dtype=float), np.asarray(velocity, dtype=float)
    if coords.ndim != 2 or not _all_finite(coords):
        list(map(ChartPoint, coords))  # raises at the first bad row
    coords.setflags(write=False)
    return coords, _checked_stack(velocity, coords.shape[1:], "tangent components", coords)


def read_points(reads) -> Tuple[np.ndarray, np.ndarray]:
    """(coords, velocity), ``(n, d)`` each, at the nodes ``us`` of each
    ``(path, us)`` of ``reads``, stacked in order, bit for bit as ``jets``:
    each run of paths of one family (``PathCurve.along``) in one ``read``
    call with one key per row, and every other path by its ``jets`` at each
    node.  The stack is checked once: a bad entry raises the error of
    ``map`` or ``tangent`` at its parameter."""
    parts = []
    for read, run in itertools.groupby(reads, lambda pair: pair[0].along and pair[0].along[0]):
        run = list(run)
        if read is None:
            parts.append(tuple(zip(*(path.jets(u) for path, us in run for u in us))))
        else:
            keys = np.array([path.along[1] for path, us in run for _ in us])
            parts.append(read(keys, np.array([u for _, us in run for u in us], dtype=float)))
    return _checked_points(*(parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))))


# ---------------------------------------------------------------------------
# contraction helpers (raw arrays; the slot order encodes the conventions
# stated in the module docstring)

def bilinear(t: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``t[i, j, k] b^j v^k``, e.g. the correction ``Gamma^i_{jk} B^j xdot^k``
    of a covariant derivative or ``S(B, Z)``.  Each of the three, and of the
    vectors of ``torsion_apply`` and ``curvature_apply``, may carry leading
    stack axes, which broadcast: row by row, bit for bit as one at a time."""
    return np.einsum("...ijk,...j,...k->...i", t, b, v)


def torsion_apply(torsion: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``T(X, Y)^i = T[i, j, k] Y^j X^k`` (first argument in the direction
    slot), matching ``T(X,Y) = D_X Y - D_Y X`` on commuting fields."""
    return bilinear(torsion, y, x)


def curvature_apply(curv: np.ndarray, x: np.ndarray, y: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """``R(X, Y)Z^i = R[i, j, k, l] Z^j X^k Y^l``."""
    return np.einsum("...ijkl,...j,...k,...l->...i", curv, z, x, y)


# ---------------------------------------------------------------------------
# operations

def torsion_components(gamma: np.ndarray) -> np.ndarray:
    """``T^i_{jk} = Gamma^i_{jk} - Gamma^i_{kj}`` (linear in ``gamma``)."""
    return gamma - np.swapaxes(gamma, 1, 2)


def torsion_at(conn: ConnectionField, x: ChartPoint) -> np.ndarray:
    """Torsion tensor of the connection at ``x``, valence (1,2).

    This is the commutator definition evaluated on coordinate vector fields,
    whose Lie bracket vanishes; the result is exactly antisymmetric in its
    two lower indices.
    """
    return torsion_components(conn.coefficients(x.coords[None])[0])


def curvature_components(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """``R^i_{jkl} = d_k G^i_{jl} - d_l G^i_{jk} + G^i_{mk} G^m_{jl}
    - G^i_{ml} G^m_{jk}`` of Gamma and its partials ``dgamma[i, j, k, l] =
    d_l G^i_{jk}``; antisymmetric in (k, l)."""
    term_dk = np.transpose(dgamma, (0, 1, 3, 2))  # [i,j,k,l] -> d_k G^i_{jl}
    quad = np.einsum("imk,mjl->ijkl", gamma, gamma)
    return term_dk - dgamma + quad - np.swapaxes(quad, 2, 3)


def curvature_at(conn: ConnectionField, x: ChartPoint) -> np.ndarray:
    """Curvature tensor of the connection at ``x``, valence (1,3)
    (``curvature_components``)."""
    coords = x.coords[None]
    return curvature_components(conn.coefficients(coords)[0], conn.partials(coords)[0])


def cov_tensor_components(gamma: np.ndarray, xdot: np.ndarray,
                          entries: np.ndarray, d_entries: np.ndarray,
                          valence: Tuple[int, int]) -> np.ndarray:
    """Covariant derivative along a curve with tangent ``xdot`` of a tensor
    with ``entries`` and component derivative ``d_entries``: one ``+Gamma``
    correction per upper index and one ``-Gamma`` correction per lower
    index, each contracted with the tangent.  For valence (1,2) the
    corrections are ``"im,mjk->ijk"``, ``"mj,imk->ijk"``, ``"mk,ijm->ijk"``.
    """
    p, q = valence
    idx = "ijklnopq"[:p + q]
    gdot = np.einsum("ijk,k->ij", gamma, xdot)  # gdot[i, m] = G^i_{mk} xdot^k
    out = np.array(d_entries, dtype=np.result_type(d_entries, float))
    for axis, letter in enumerate(idx):
        summed = idx.replace(letter, "m")
        if axis < p:
            out += np.einsum(f"{letter}m,{summed}->{idx}", gdot, entries)
        else:
            out -= np.einsum(f"m{letter},{summed}->{idx}", gdot, entries)
    return out


def metric_dot(metric: MetricField, x: ChartPoint, u: np.ndarray,
               v: np.ndarray) -> float:
    """Scalar product ``g_{ij}(x) U^i V^j`` of the components ``u``, ``v`` of
    two vectors at ``x``."""
    g = metric.matrix(x.coords[None])[0]
    u, v = (checked_array(w, (x.dimension,), "vector components", x) for w in (u, v))
    return float(_stacked_dot(g, u, v))


def _stacked_dot(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``g_{ij} U^i V^j`` of checked components, row by row over the leading
    stack axes of ``u`` and ``v``: ``(K,)`` for ``(K, d)`` stacks."""
    # evaluated symmetrically so dot(U, V) == dot(V, U) holds exactly
    return 0.5 * ((u[..., None, :] @ (g @ v[..., None]))
                  + (v[..., None, :] @ (g @ u[..., None])))[..., 0, 0]


def sign_of_square(metric: MetricField, x: ChartPoint, u: np.ndarray) -> int:
    """Causal sign of ``(U)^2``: +1 or -1; raises NullVectorError when the
    scalar square is within ``NULL_TOL`` of zero."""
    return _matrix_sign(metric.matrix(x.coords[None])[0],
                        checked_array(u, (x.dimension,), "vector components", x))


def _matrix_sign(g: np.ndarray, u: np.ndarray) -> int:
    """``sign_of_square`` given the checked metric matrix ``g`` and the
    checked components ``u``."""
    square = float(_stacked_dot(g, u, u))
    if abs(square) <= NULL_TOL:
        raise NullVectorError(
            f"scalar square {square} within null tolerance {NULL_TOL}")
    return 1 if square > 0 else -1
