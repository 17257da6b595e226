"""Lambert Conformal Conic (sphere + ellipsoid).

Semantics per `kernel/pl_project_lambert_conformal_conic.opencl` and host prep
`src/projcl_run.c:444-500`.  The symmetric-parallels pathological case is
rewritten to Mercator in :func:`projcl_ray.proj.base.prepare` (mirroring
`src/projcl_project.c:99-109`), so this module never sees it.
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
    register,
    tsfn,
)


@register("lambert_conformal_conic")
def prepare_lcc(params: ProjParams) -> PreparedProjection:
    info = params.info
    phi0 = params.lat0 * DEG_TO_RAD
    phi1 = params.rlat1 * DEG_TO_RAD
    phi2_ = params.rlat2 * DEG_TO_RAD
    lam0 = params.lon0 * DEG_TO_RAD
    x0, y0 = params.x0, params.y0

    sinphi1, cosphi1 = math.sin(phi1), math.cos(phi1)
    secant = abs(phi1 - phi2_) >= 1e-7
    n = sinphi1

    if params.spherical:
        if secant:
            n = math.log(cosphi1 / math.cos(phi2_)) / (
                math.asinh(math.tan(phi2_)) - math.asinh(math.tan(phi1))
            )
        c = cosphi1 * math.pow(math.tan(math.pi / 4 + 0.5 * phi1), n) / n
        rho0 = c * math.pow(math.tan(math.pi / 4 + 0.5 * phi0), -n)
    else:
        m1 = msfn(sinphi1, cosphi1, info.ecc2)
        ml1 = tsfn(phi1, sinphi1, info.ecc)
        if secant:
            sinphi2 = math.sin(phi2_)
            n = math.log(m1 / msfn(sinphi2, math.cos(phi2_), info.ecc2))
            n /= math.log(ml1 / tsfn(phi2_, sinphi2, info.ecc))
        c = m1 * math.pow(ml1, -n) / n
        rho0 = c * math.pow(tsfn(phi0, math.sin(phi0), info.ecc), n)

    k = params.scale * info.major_axis
    sign_n = math.copysign(1.0, n)
    e = info.ecc
    chi_to_phi = info.chi_to_phi
    spherical = params.spherical

    def forward(lon, lat):
        lam = as_float(lon) * DEG_TO_RAD - lam0
        phi = as_float(lat) * DEG_TO_RAD
        if spherical:
            rho = c * np.exp(-n * np.arcsinh(np.tan(phi)))
        else:
            rho = c * np.exp(-n * (np.arcsinh(np.tan(phi)) - e * np.arctanh(e * np.sin(phi))))
        sinl, cosl = np.sin(lam * n), np.cos(lam * n)
        return x0 + k * rho * sinl, y0 + k * (rho0 - rho * cosl)

    def inverse(x, y):
        xx = (as_float(x) - x0) / k
        yy = rho0 - (as_float(y) - y0) / k
        rho = np.copysign(np.hypot(xx, yy), n)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_rc = np.log(rho / c) / n
            phi = -np.arctan(np.sinh(log_rc))  # conformal latitude
            if not spherical:
                phi = aux_to_geodetic(phi, chi_to_phi)
            phi = np.where(rho != 0.0, phi, math.copysign(math.pi / 2, n))
        lam = np.arctan2(xx * sign_n, yy * sign_n) / n
        return mod_pi(lam + lam0) * RAD_TO_DEG, phi * RAD_TO_DEG

    return PreparedProjection("lambert_conformal_conic", params, forward, inverse)
