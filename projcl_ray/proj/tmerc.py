"""Transverse Mercator — spherical closed form + Karney/Krüger ellipsoidal series.

Semantics per `kernel/pl_project_transverse_mercator.opencl:8-216` (Karney 2011,
J. Geodesy 85(8):475-485) and host prep `src/projcl_run.c:588-609`: the folded
scale for the ellipsoid is scale·a·krueger_A.  Both Krüger sums are evaluated
by one Clenshaw recurrence on the complex angle 2(ξ+iη).  The reference's single
Newton step on τ in the ellipsoidal inverse is replaced by the closed-form
conformal-latitude series (:func:`~projcl_ray.proj.base.aux_to_geodetic`): within
1.3e-14° of the exact inverse, at the same cost for every point.
"""

from __future__ import annotations

import numpy as np

from .base import (
    as_float,
    aux_to_geodetic,
    DEG_TO_RAD,
    RAD_TO_DEG,
    PreparedProjection,
    ProjParams,
    mod_pi,
    register,
)


def _krueger_sum(xi, eta, coeffs):
    """Σₖ cₖ·sin 2k(ξ+iη) as (real, imaginary) parts, by Clenshaw summation
    on the complex angle: one sin/cos pair and one exp per point."""
    s, c = np.sin(2 * xi), np.cos(2 * xi)
    ex = np.exp(2 * eta)
    sh, ch = 0.5 * (ex - 1 / ex), 0.5 * (ex + 1 / ex)
    two_cos = 2 * (c * ch) - 2j * (s * sh)  # 2·cos 2ζ
    b1, b2 = coeffs[-1], 0.0
    for a in reversed(coeffs[:-1]):
        b1, b2 = a + two_cos * b1 - b2, b1
    total = b1 * ((s * ch) + 1j * (c * sh))  # b1·sin 2ζ
    return total.real, total.imag


@register("transverse_mercator")
def prepare_tmerc(params: ProjParams) -> PreparedProjection:
    info = params.info
    x0, y0 = params.x0, params.y0
    lam0 = params.lon0 * DEG_TO_RAD

    if params.spherical:
        k = params.scale * info.major_axis * info.krueger_A

        def forward(lon, lat):
            lam = as_float(lon) * DEG_TO_RAD - lam0
            phi = as_float(lat) * DEG_TO_RAD
            tau = np.tan(phi)
            cosl, sinl = np.cos(lam), np.sin(lam)
            y = np.arctan2(tau, cosl)
            x = np.arcsinh(sinl / np.hypot(tau, cosl))
            return x0 + k * x, y0 + k * y

        def inverse(x, y):
            xx = (as_float(x) - x0) / k
            yy = (as_float(y) - y0) / k
            sinh_x = np.sinh(xx)
            siny, cosy = np.sin(yy), np.cos(yy)
            lam = np.arctan2(sinh_x, cosy)
            phi = np.arctan2(siny, np.hypot(sinh_x, cosy))
            return mod_pi(lam + lam0) * RAD_TO_DEG, phi * RAD_TO_DEG

    else:
        e = info.ecc
        k = params.scale * info.major_axis * info.krueger_A
        al = info.krueger_alpha
        be = info.krueger_beta
        chi_to_phi = info.chi_to_phi

        def forward(lon, lat):
            lam = as_float(lon) * DEG_TO_RAD - lam0
            phi = as_float(lat) * DEG_TO_RAD
            sinl, cosl = np.sin(lam), np.cos(lam)
            tau = np.tan(phi)
            root = np.sqrt(1.0 + tau * tau)
            sigma = np.sinh(e * np.arctanh(e * tau / root))
            tau1 = tau * np.sqrt(1.0 + sigma * sigma) - sigma * root
            xi = np.arctan2(tau1, cosl)
            eta = np.arcsinh(sinl / np.sqrt(tau1 * tau1 + cosl * cosl))
            dy, dx = _krueger_sum(xi, eta, al)
            return x0 + k * (eta + dx), y0 + k * (xi + dy)

        def inverse(x, y):
            xx = (as_float(x) - x0) / k
            yy = (as_float(y) - y0) / k
            dy, dx = _krueger_sum(yy, xx, be)
            xi, eta = yy - dy, xx - dx
            sinh_eta = np.sinh(eta)
            sin_xi, cos_xi = np.sin(xi), np.cos(xi)
            lam = np.arctan2(sinh_eta, cos_xi)
            chi = np.arctan2(sin_xi, np.sqrt(sinh_eta * sinh_eta + cos_xi * cos_xi))
            phi = aux_to_geodetic(chi, chi_to_phi)
            return mod_pi(lam + lam0) * RAD_TO_DEG, phi * RAD_TO_DEG

    return PreparedProjection("transverse_mercator", params, forward, inverse)
