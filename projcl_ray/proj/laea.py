"""Lambert Azimuthal Equal-Area (sphere + ellipsoid via authalic latitude).

Semantics per `kernel/pl_project_lambert_azimuthal_equal_area.opencl` and host
prep `src/projcl_run.c:397-442`: ellipsoid maps through the authalic sphere
(qp, sinB1/cosB1, rq, dd, xmf/ymf precomputed), inverse recovers φ from the
authalic latitude with the shared β → φ series.
"""

from __future__ import annotations

import math

import numpy as np

from .base import as_float, aux_to_geodetic, DEG_TO_RAD, RAD_TO_DEG, PreparedProjection, ProjParams, mod_pi, qsfn, register


@register("lambert_azimuthal_equal_area")
def prepare_laea(params: ProjParams) -> PreparedProjection:
    info = params.info
    phi0 = params.lat0 * DEG_TO_RAD
    lam0 = params.lon0 * DEG_TO_RAD
    x0, y0 = params.x0, params.y0
    k = params.scale * info.major_axis

    if params.spherical:
        sin_phi0, cos_phi0 = math.sin(phi0), math.cos(phi0)

        def forward(lon, lat):
            lam = as_float(lon) * DEG_TO_RAD - lam0
            phi = as_float(lat) * DEG_TO_RAD
            sinl, cosl = np.sin(lam), np.cos(lam)
            sinp, cosp = np.sin(phi), np.cos(phi)
            b = np.sqrt(2.0 / (1.0 + sin_phi0 * sinp + cos_phi0 * cosp * cosl))
            x = b * cosp * sinl
            y = b * (cos_phi0 * sinp - sin_phi0 * cosp * cosl)
            return x0 + k * x, y0 + k * y

        def inverse(x, y):
            xx = (as_float(x) - x0) / k
            yy = (as_float(y) - y0) / k
            rho2 = xx * xx + yy * yy
            cos_c = 1.0 - 0.5 * rho2
            sin_c = np.sqrt(np.maximum(1.0 - 0.25 * rho2, 0.0))  # sin(c)/rho
            phi = np.arcsin(np.clip(cos_c * sin_phi0 + yy * sin_c * cos_phi0, -1.0, 1.0))
            lam = np.arctan2(xx * sin_c, cos_phi0 * cos_c - yy * sin_phi0 * sin_c)
            return mod_pi(lam + lam0) * RAD_TO_DEG, phi * RAD_TO_DEG

    else:
        e = info.ecc
        one_es = info.one_ecc2
        beta_to_phi = info.beta_to_phi
        qp = qsfn(1.0, e, one_es)
        sin_phi0 = math.sin(phi0)
        sinB1 = qsfn(sin_phi0, e, one_es) / qp
        cosB1 = math.sqrt(1.0 - sinB1 * sinB1)
        rq = math.sqrt(0.5 * qp)
        dd = math.cos(phi0) / (math.sqrt(1.0 - info.ecc2 * sin_phi0 * sin_phi0) * rq * cosB1)
        ymf = rq / dd
        xmf = rq * dd

        def forward(lon, lat):
            lam = as_float(lon) * DEG_TO_RAD - lam0
            phi = as_float(lat) * DEG_TO_RAD
            sinl, cosl = np.sin(lam), np.cos(lam)
            sinB = qsfn(np.sin(phi), e, one_es) / qp
            cosB = np.sqrt(np.maximum(1.0 - sinB * sinB, 0.0))
            b = np.sqrt(2.0 / (1.0 + sinB1 * sinB + cosB1 * cosB * cosl))
            x = xmf * b * cosB * sinl
            y = ymf * b * (cosB1 * sinB - sinB1 * cosB * cosl)
            return x0 + k * x, y0 + k * y

        def inverse(x, y):
            xx = (as_float(x) - x0) / k / dd
            yy = (as_float(y) - y0) / k * dd
            rho2 = (xx * xx + yy * yy) / (rq * rq)
            cos_ce = 1.0 - 0.5 * rho2
            sin_ce = np.sqrt(np.maximum(1.0 - 0.25 * rho2, 0.0)) / rq  # sin(Ce)/rho
            beta = np.arcsin(np.clip(cos_ce * sinB1 + yy * sin_ce * cosB1, -1.0, 1.0))
            lam = np.arctan2(xx * sin_ce, cosB1 * cos_ce - yy * sinB1 * sin_ce)
            phi = aux_to_geodetic(beta, beta_to_phi)
            return mod_pi(lam + lam0) * RAD_TO_DEG, phi * RAD_TO_DEG

    return PreparedProjection("lambert_azimuthal_equal_area", params, forward, inverse)
