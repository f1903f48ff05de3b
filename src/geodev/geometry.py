"""Chart-based differential geometry: points, tangents, tensors, connection
and metric fields, torsion, curvature, and covariant derivatives along
parametrized curves.

Everything lives in a single global chart of dimension ``d``; components are
plain numpy arrays.

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

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, EvaluationError, NullVectorError

__all__ = [
    "ChartPoint",
    "Tangent",
    "Tensor",
    "ConnectionField",
    "MetricField",
    "PathCurve",
    "checked_array",
    "torsion_at",
    "torsion_components",
    "curvature_at",
    "cov_derivative_along",
    "cov_derivative_tensor_along",
    "cov_tensor_components",
    "metric_dot",
    "sign_of_square",
    "torsion_apply",
    "curvature_apply",
]

DEFAULT_FD_STEP = 1e-5
METRIC_SYMMETRY_TOL = 1e-12
METRIC_DET_TOL = 1e-12


def checked_array(values, shape: Tuple[int, ...], what: str,
                  point: Optional["ChartPoint"] = None) -> np.ndarray:
    """``values`` as a float array, which must have ``shape`` and finite
    entries; EvaluationError naming ``what`` (at ``point``) otherwise."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise EvaluationError(f"{what} have shape {arr.shape}, expected {shape}",
                              point=point)
    if not np.isfinite(arr).all():
        raise EvaluationError(f"non-finite {what}", point=point)
    return arr


def _central_partials(field_at, point) -> np.ndarray:
    """Partials of ``field_at`` at ``point`` by central differences with step
    ``DEFAULT_FD_STEP``, the derivative index last."""
    h = DEFAULT_FD_STEP
    return np.stack([(field_at(ChartPoint(point.coords + step))
                      - field_at(ChartPoint(point.coords - step))) / (2.0 * h)
                     for step in h * np.eye(point.dimension)], axis=-1)


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A point of the manifold, given by its chart coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1 or not np.isfinite(coords).all():
            raise EvaluationError(f"chart coordinates must be flat and finite: {coords!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return self.coords.shape[0]

    def close_to(self, other: "ChartPoint", tol: float = 1e-9) -> bool:
        return (self.dimension == other.dimension
                and bool(np.all(np.abs(self.coords - other.coords) <= tol)))

    def __repr__(self):
        return f"ChartPoint({np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector attached to a chart point."""

    base: ChartPoint
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", checked_array(
            self.components, (self.base.dimension,), "tangent components",
            self.base))

    def __repr__(self):
        return f"Tangent({np.array2string(self.components, precision=6)})"


@dataclass(frozen=True, eq=False)
class Tensor:
    """A small dense tensor of valence ``(p, q)`` at a chart point.

    Entries are indexed upper indices first: a (1,2) tensor ``W`` has
    ``entries[i, j, k]`` with ``i`` contravariant.
    """

    base: ChartPoint
    valence: Tuple[int, int]
    entries: np.ndarray

    def __post_init__(self):
        p, q = self.valence
        if p < 0 or q < 0:
            raise EvaluationError("tensor valence must be non-negative")
        object.__setattr__(self, "entries", checked_array(
            self.entries, (self.base.dimension,) * (p + q),
            f"valence {self.valence} tensor entries", self.base))


@dataclass(frozen=True)
class ConnectionField:
    """Affine connection given by its coefficient field ``Gamma^i_{jk}(x)``.

    ``gamma_at`` maps a ChartPoint to a ``(d, d, d)`` array laid out per the
    module index convention.  ``partials_at``, when given, returns the
    ``(d, d, d, d)`` array of coordinate partials with the derivative index
    last (``partials[i, j, k, l] = d_l Gamma^i_{jk}``); otherwise partials
    are approximated by central differences with step ``DEFAULT_FD_STEP``.
    """

    gamma_at: Callable[[ChartPoint], np.ndarray]
    partials_at: Optional[Callable[[ChartPoint], np.ndarray]] = None

    def coefficients(self, point: ChartPoint) -> np.ndarray:
        return checked_array(self.gamma_at(point), (point.dimension,) * 3,
                             "connection coefficients", point)

    def partials(self, point: ChartPoint) -> np.ndarray:
        out = (_central_partials(self.coefficients, point)
               if self.partials_at is None else self.partials_at(point))
        return checked_array(out, (point.dimension,) * 4, "connection partials",
                             point)


@dataclass(frozen=True)
class MetricField:
    """Bundle metric ``g_{ij}(x)``: bilinear, symmetric, nondegenerate.

    Not assumed positive definite, and not assumed compatible with any
    connection (nonmetricity is allowed and measured elsewhere).
    """

    g_at: Callable[[ChartPoint], np.ndarray]
    partials_at: Optional[Callable[[ChartPoint], np.ndarray]] = None

    def matrix(self, point: ChartPoint) -> np.ndarray:
        g = checked_array(self.g_at(point), (point.dimension,) * 2,
                          "metric entries", point)
        if np.max(np.abs(g - g.T)) > METRIC_SYMMETRY_TOL:
            raise EvaluationError("metric is not symmetric", point=point)
        if abs(np.linalg.det(g)) <= METRIC_DET_TOL:
            raise EvaluationError("metric is degenerate", point=point)
        return g

    def partials(self, point: ChartPoint) -> np.ndarray:
        """``partials[i, j, l] = d_l g_{ij}``, by central differences with
        step ``DEFAULT_FD_STEP`` unless ``partials_at`` is given."""
        if self.partials_at is not None:
            return np.asarray(self.partials_at(point), dtype=float)
        return _central_partials(self.matrix, point)


@dataclass(frozen=True)
class PathCurve:
    """A C^1 path in the chart over ``domain``, stated once as ``jets(u) ->
    (coords, velocity)``.  ``map`` and ``tangent`` share one memoized
    evaluation of the last parameter and hand out read-only arrays."""

    jets: Callable[[float], Tuple[np.ndarray, np.ndarray]]
    domain: Tuple[float, float]

    def __post_init__(self):
        jets = self.jets

        @functools.lru_cache(maxsize=1)
        def at(u: float) -> Tangent:
            coords, velocity = jets(u)
            tangent = Tangent(ChartPoint(coords), velocity)
            tangent.base.coords.flags.writeable = False
            tangent.components.flags.writeable = False
            return tangent

        object.__setattr__(self, "_at", at)

    def map(self, u: float) -> ChartPoint:
        return self._at(u).base

    def tangent(self, u: float) -> Tangent:
        return self._at(u)

    def require(self, s: float) -> None:
        lo, hi = self.domain
        if not (lo - 1e-12 <= s <= hi + 1e-12):
            raise DomainError(f"parameter {s} outside path domain [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# contraction helpers (raw arrays; the slot order encodes the conventions
# stated in the module docstring)

def torsion_apply(torsion: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``T(X, Y)^i = T[i, j, k] Y^j X^k`` (first argument in the direction
    slot), matching ``T(X,Y) = D_X Y - D_Y X`` on commuting fields."""
    return np.einsum("ijk,j,k->i", torsion, y, x)


def curvature_apply(curv: np.ndarray, x: np.ndarray, y: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """``R(X, Y)Z^i = R[i, j, k, l] Z^j X^k Y^l``."""
    return np.einsum("ijkl,j,k,l->i", curv, z, x, y)


# ---------------------------------------------------------------------------
# operations

def torsion_components(gamma: np.ndarray) -> np.ndarray:
    """``T^i_{jk} = Gamma^i_{jk} - Gamma^i_{kj}`` (linear in ``gamma``)."""
    return gamma - np.swapaxes(gamma, 1, 2)


def torsion_at(conn: ConnectionField, x: ChartPoint) -> Tensor:
    """Torsion tensor of the connection at ``x``, valence (1,2).

    This is the commutator definition evaluated on coordinate vector fields,
    whose Lie bracket vanishes; the result is exactly antisymmetric in its
    two lower indices.
    """
    return Tensor(x, (1, 2), torsion_components(conn.coefficients(x)))


def curvature_at(conn: ConnectionField, x: ChartPoint) -> Tensor:
    """Curvature tensor of the connection at ``x``, valence (1,3).

    ``R^i_{jkl} = d_k G^i_{jl} - d_l G^i_{jk} + G^i_{mk} G^m_{jl}
    - G^i_{ml} G^m_{jk}``; antisymmetric in (k, l).
    """
    gamma = conn.coefficients(x)
    dgamma = conn.partials(x)  # dgamma[i, j, k, l] = d_l G^i_{jk}
    term_dk = np.transpose(dgamma, (0, 1, 3, 2))  # [i,j,k,l] -> d_k G^i_{jl}
    quad = np.einsum("imk,mjl->ijkl", gamma, gamma)
    entries = term_dk - dgamma + quad - np.swapaxes(quad, 2, 3)
    return Tensor(x, (1, 3), entries)


def cov_derivative_along(path: PathCurve, field: Callable[[float], Tangent],
                         s: float, conn: ConnectionField,
                         d_components: Optional[Callable[[float], np.ndarray]] = None,
                         ) -> Tangent:
    """Covariant derivative ``(DB/ds)^i = dB^i/ds + G^i_{jk} B^j xdot^k`` of a
    tangent field along the path at parameter ``s``: the valence (1,0) case
    of ``cov_derivative_tensor_along``, whose component-derivative rule
    ``d_components`` follows."""
    def as_tensor(u: float) -> Tensor:
        value = field(u)
        return Tensor(value.base, (1, 0), value.components)

    out = cov_derivative_tensor_along(path, as_tensor, s, conn, d_components)
    return Tangent(out.base, out.entries)


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
    out = np.array(d_entries, dtype=float)
    for axis, letter in enumerate(idx):
        summed = idx.replace(letter, "m")
        if axis < p:
            out += np.einsum(f"{letter}m,{summed}->{idx}", gdot, entries)
        else:
            out -= np.einsum(f"m{letter},{summed}->{idx}", gdot, entries)
    return out


def cov_derivative_tensor_along(path: PathCurve,
                                tfield: Callable[[float], Tensor],
                                s: float, conn: ConnectionField,
                                d_entries: Optional[Callable[[float], np.ndarray]] = None,
                                ) -> Tensor:
    """Covariant derivative along the path of a tensor field of constant
    valence (``cov_tensor_components``).  The component derivative is taken
    from ``d_entries`` when given, else by a central difference with step
    ``DEFAULT_FD_STEP``."""
    path.require(s)
    value = tfield(s)
    base = path.map(s)
    if not value.base.close_to(base):
        raise EvaluationError("field base point does not lie on the path",
                              point=value.base)
    if d_entries is not None:
        dw = d_entries(s)
    else:
        h = DEFAULT_FD_STEP
        dw = (tfield(s + h).entries - tfield(s - h).entries) / (2.0 * h)
    out = cov_tensor_components(conn.coefficients(base),
                                path.tangent(s).components, value.entries, dw,
                                value.valence)
    return Tensor(base, value.valence, out)


def metric_dot(metric: MetricField, x: ChartPoint, u: Tangent, v: Tangent) -> float:
    """Scalar product ``g_{ij}(x) U^i V^j``."""
    if not (u.base.close_to(x) and v.base.close_to(x)):
        raise EvaluationError("metric_dot arguments attached to different points",
                              point=x)
    g = metric.matrix(x)
    # evaluated symmetrically so dot(U, V) == dot(V, U) holds exactly
    return 0.5 * (float(u.components @ (g @ v.components))
                  + float(v.components @ (g @ u.components)))


def sign_of_square(metric: MetricField, x: ChartPoint, u: Tangent,
                   null_tol: float = 1e-10) -> int:
    """Causal sign of ``(U)^2``: +1 or -1; raises NullVectorError when the
    scalar square is within ``null_tol`` of zero."""
    square = metric_dot(metric, x, u, u)
    if abs(square) <= null_tol:
        raise NullVectorError(
            f"scalar square {square} within null tolerance {null_tol}")
    return 1 if square > 0 else -1
