"""Albers Equal Area conic (sphere + ellipsoid).

Semantics per `kernel/pl_project_albers_equal_area.opencl:23-162` and host prep
`src/projcl_run.c:310-367`: folded scale = scale·a/n; kernel rho omits the /n
(it lives in the folded scale).  The ellipsoidal inverse takes the authalic
latitude β = asin(q/q_p) in closed form and recovers φ by the shared series
instead of the kernel's phi1_ Newton loop (lines 4-21); the near-pole case
clamps φ to ±π/2 when |ec − |q|| ≤ tol (kernel line 157's select).
"""

from __future__ import annotations

import math

import numpy as np

from .base import (
    as_float,
    aux_to_geodetic,
    DEG_TO_RAD,
    RAD_TO_DEG,
    PreparedProjection,
    ProjParams,
    mod_pi,
    msfn,
    qsfn,
    register,
)


@register("albers_equal_area")
def prepare_albers(params: ProjParams) -> PreparedProjection:
    info = params.info
    phi1 = params.rlat1 * DEG_TO_RAD
    phi2 = params.rlat2 * DEG_TO_RAD
    phi0 = params.lat0 * DEG_TO_RAD
    lam0 = params.lon0 * DEG_TO_RAD
    x0, y0 = params.x0, params.y0

    sinphi, cosphi = math.sin(phi1), math.cos(phi1)
    n = sinphi
    if params.spherical:
        n = 0.5 * (sinphi + math.sin(phi2))
        c = 1.0 + math.sin(phi2) * sinphi
        rho0 = math.sqrt(c - 2.0 * n * math.sin(phi0))
    else:
        m1 = msfn(sinphi, cosphi, info.ecc2)
        ml1 = qsfn(sinphi, info.ecc, info.one_ecc2)
        if abs(phi1 - phi2) >= 1e-7:
            sinphi2, cosphi2 = math.sin(phi2), math.cos(phi2)
            m2 = msfn(sinphi2, cosphi2, info.ecc2)
            ml2 = qsfn(sinphi2, info.ecc, info.one_ecc2)
            n = (m1 * m1 - m2 * m2) / (ml2 - ml1)
        c = m1 * m1 + ml1 * n
        rho0 = math.sqrt(c - n * qsfn(math.sin(phi0), info.ecc, info.one_ecc2))

    k = params.scale * info.major_axis / n
    e = info.ecc
    one_es = info.one_ecc2
    ec = info.ec  # q at the pole, q_p
    beta_to_phi = info.beta_to_phi
    spherical = params.spherical

    def forward(lon, lat):
        lam = as_float(lon) * DEG_TO_RAD - lam0
        phi = as_float(lat) * DEG_TO_RAD
        if spherical:
            rho = np.sqrt(c - 2.0 * n * np.sin(phi))
        else:
            rho = np.sqrt(c - n * qsfn(np.sin(phi), e, one_es))
        sinl, cosl = np.sin(lam * n), np.cos(lam * n)
        return x0 + k * rho * sinl, y0 + k * (rho0 - rho * cosl)

    def inverse(x, y):
        xx = (as_float(x) - x0) / k
        yy = rho0 - (as_float(y) - y0) / k
        if spherical:
            phi = np.arcsin(np.clip(0.5 * (c - (xx * xx + yy * yy)) / n, -1.0, 1.0))
        else:
            q = (c - (xx * xx + yy * yy)) / n
            phi = np.where(
                np.abs(ec - np.abs(q)) > 1e-10,
                aux_to_geodetic(np.arcsin(np.clip(q / ec, -1.0, 1.0)), beta_to_phi),
                np.copysign(math.pi / 2, q),
            )
        lam = np.arctan2(xx, yy) / n
        return mod_pi(lam + lam0) * RAD_TO_DEG, phi * RAD_TO_DEG

    return PreparedProjection("albers_equal_area", params, forward, inverse)
