"""Projection framework: parameter record, shared numerics, registry.

The reference dispatches per (projection, direction, sphere|ellipsoid) to an
OpenCL kernel with host-precomputed scalar args (`/root/reference/src/projcl_run.c:65-111,
236-264,287-298`).  Here each projection is a pair of vectorized float64 NumPy
functions built once from a :class:`ProjParams` — the "prep" step is the host
precompute, the returned closures are the kernels.

Conventions preserved from the reference:
- inputs/outputs are degrees for geographic coordinates;
- ``out = (x0, y0) + folded_scale * f(λ−λ0, φ)`` with the same constant folding
  per projection (e.g. Albers folds ``scale·a/n``, TM folds ``scale·a·krueger_A``);
- longitude wrap via ``pl_mod_pi`` (`kernel/peel.opencl:55-57`);
- the reference's iterative latitude inverses (`pl_phi2`, Albers ``phi1_``,
  stereographic ``phi_sph2ell``, the TM Newton step on τ) become one closed-form
  series, :func:`aux_to_geodetic`, with a fixed cost per point; only the 2-D
  Newton solves (polyconic, Winkel) and Robinson's spline inverse still
  iterate, to :func:`dtype_tol`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..spheroid import SpheroidInfo, get_spheroid, is_spherical

DEG_TO_RAD = math.pi / 180.0
RAD_TO_DEG = 180.0 / math.pi


@dataclass(frozen=True)
class ProjParams:
    """User-facing projection parameters (mirror of PLProjectionParams,
    projcl_types.h:127-137; defaults per src/projcl_params.c:7-50)."""

    spheroid: str = "SPHERE"
    scale: float = 1.0
    x0: float = 0.0
    y0: float = 0.0
    lon0: float = 0.0
    lat0: float = 0.0
    rlat1: float = math.nan
    rlat2: float = math.nan

    @property
    def info(self) -> SpheroidInfo:
        return get_spheroid(self.spheroid)

    @property
    def spherical(self) -> bool:
        return is_spherical(self.spheroid)

    def with_(self, **kw) -> "ProjParams":
        return replace(self, **kw)


# A prepared projection: two vectorized closures over float64 ndarrays.
# forward: (lon_deg, lat_deg) -> (x, y);  inverse: (x, y) -> (lon_deg, lat_deg)
PointFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class PreparedProjection:
    name: str
    params: ProjParams
    forward: PointFn
    inverse: PointFn


# name -> prepare(params) -> PreparedProjection
_REGISTRY: dict[str, Callable[[ProjParams], PreparedProjection]] = {}

PROJECTION_NAMES = (
    "albers_equal_area",
    "american_polyconic",
    "lambert_conformal_conic",
    "lambert_azimuthal_equal_area",
    "mercator",
    "oblique_stereographic",
    "robinson",
    "transverse_mercator",
    "winkel_tripel",
)


def register(name: str):
    def deco(prep_fn):
        _REGISTRY[name] = prep_fn
        return prep_fn

    return deco


def prepare(name: str, params: ProjParams | None = None, **kw) -> PreparedProjection:
    """Resolve and precompute a projection; the analogue of kernel lookup +
    host param precompute (projcl_run.c:256-264 + per-proj prep).

    Raises KeyError for unknown names and ValueError for unsupported
    spheroid/projection combinations (the reference's kernel-not-found cases:
    oblique_stereographic is ellipsoid-only, robinson/winkel sphere-only).
    """
    if params is None:
        params = ProjParams(**kw)
    elif kw:
        params = params.with_(**kw)
    # LCC with symmetric standard parallels degenerates; the reference rewrites
    # it to a shifted Mercator (src/projcl_project.c:99-109, projcl_params.c:52-61).
    if (
        name == "lambert_conformal_conic"
        and not (math.isnan(params.rlat1) or math.isnan(params.rlat2))
        and abs((params.rlat1 + params.rlat2) * DEG_TO_RAD) < 1e-7
    ):
        info = params.info
        cosphi1 = math.cos(params.rlat1 * DEG_TO_RAD)
        merc = ProjParams(
            spheroid=params.spheroid,
            scale=params.scale * cosphi1,
            x0=params.x0 - params.scale * info.major_axis * cosphi1 * params.lon0 * DEG_TO_RAD,
            y0=params.y0
            - params.scale * info.major_axis * cosphi1 * math.asinh(math.tan(params.lat0 * DEG_TO_RAD)),
        )
        prepped = _REGISTRY["mercator"](merc)
        return PreparedProjection("lambert_conformal_conic", params, prepped.forward, prepped.inverse)
    if name not in _REGISTRY:
        raise KeyError(f"unknown projection {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name](params)


def projection_names() -> tuple[str, ...]:
    return PROJECTION_NAMES


# ---------------------------------------------------------------------------
# Shared numerics (host helpers _pl_mlfn/_pl_qsfn/_pl_msfn/_pl_tsfn,
# projcl_run.c:214-233, and kernel helpers in peel.opencl), vectorized float64.
# ---------------------------------------------------------------------------


def mlfn(phi, sphi, cphi, en):
    """Meridional arc length series (projcl_run.c:214-218)."""
    cphi = cphi * sphi
    sphi2 = sphi * sphi
    return en[0] * phi - cphi * (en[1] + sphi2 * (en[2] + sphi2 * (en[3] + sphi2 * en[4])))


def mlfn1(phi, sphi, cphi, en):
    """d(mlfn)/dphi (kernel pl_mlfn1, pl_project_american_polyconic.opencl:11-17)."""
    cphi2 = cphi * cphi
    sphi2 = sphi * sphi
    return en[0] - (
        en[1] * (cphi2 - sphi2)
        + sphi2
        * (
            en[2] * (3 * cphi2 - sphi2)
            + sphi2 * (en[3] * (5 * cphi2 - sphi2) + sphi2 * (en[4] * (7 * cphi2 - sphi2)))
        )
    )


def qsfn(sinphi, e, one_es):
    """Authalic q (projcl_run.c:220-223 / peel.opencl:34-37)."""
    con = e * sinphi
    return one_es * (sinphi / (1.0 - con * con) + np.arctanh(con) / e)


def msfn(sinphi, cosphi, es):
    return cosphi / np.sqrt(1.0 - es * sinphi * sinphi)


def tsfn(phi, sinphi, e):
    con = e * sinphi
    return np.tan(0.5 * (0.5 * math.pi - phi)) / np.power((1.0 - con) / (1.0 + con), 0.5 * e)


def as_float(arr):
    """float64 by default, but PRESERVE float32 inputs — the warp pixel path
    feeds float32 grids to halve memory traffic; exact-point APIs pass float64."""
    a = np.asarray(arr)
    if a.dtype == np.dtype(np.float32):
        return a
    return np.asarray(a, np.float64)


def dtype_tol(arr, f64=1e-15, f32=2e-7):
    """Convergence tolerance matched to the working dtype — float32 pipelines
    (the warp pixel path) exit iterative inverses as soon as they hit float32
    resolution instead of running to the iteration cap."""
    return f32 if getattr(arr, "dtype", None) == np.dtype(np.float32) else f64


def newton_rows(step, unknowns, consts, n_iter, tol):
    """Newton iteration that stops each row on its own.

    ``step(*unknowns, *consts)`` returns one correction per unknown, which is
    subtracted from it. Only the rows not yet converged are passed to
    ``step``; a row leaves once every correction is below ``tol``, and a NaN
    row after its first pass. So a row's result never depends on the other
    rows of the batch, and converged rows cost nothing.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in (*unknowns, *consts)))
    us = [np.ravel(np.broadcast_to(u, shape)).copy() for u in unknowns]
    cs = [np.ravel(np.broadcast_to(c, shape)) for c in consts]
    act = slice(None)  # every row on the first pass, without a gather
    for _ in range(n_iter):
        cur = [u[act] for u in us]
        deltas = step(*cur, *(c[act] for c in cs))
        still = np.zeros(cur[0].size, bool)
        for u, a, d in zip(us, cur, deltas):
            u[act] = a - d
            still |= np.abs(d) >= tol
        if not still.any():
            break
        act = np.flatnonzero(still) if isinstance(act, slice) else act[still]
    return [u.reshape(shape) for u in us]


def aux_to_geodetic(x, coeffs):
    """Geodetic latitude from an auxiliary one: φ = x + Σₖ cₖ·sin 2kx.

    ``x`` is the conformal χ with ``info.chi_to_phi`` or the authalic β with
    ``info.beta_to_phi`` (radians).  Clenshaw summation: one sin/cos pair and
    a short recurrence, the same cost for every point.
    """
    two_x = 2.0 * x
    two_cos = 2.0 * np.cos(two_x)
    b1, b2 = coeffs[-1], 0.0
    for c in reversed(coeffs[:-1]):
        b1, b2 = c + two_cos * b1 - b2, b1
    return x + np.sin(two_x) * b1


def mod_pi(lam):
    """Wrap radians longitude into (−π, π] the way pl_mod_pi does
    (peel.opencl:55-57): a single ±2π correction."""
    return np.where(np.abs(lam) > math.pi, lam - np.copysign(2.0 * math.pi, lam), lam)
