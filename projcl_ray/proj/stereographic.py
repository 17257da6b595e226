"""Oblique Stereographic — ellipsoid-only double projection.

Semantics per `kernel/pl_project_oblique_stereographic.opencl:21-112` and host
prep `src/projcl_run.c:520-566`: ellipsoid → conformal sphere (c0, log_k0) →
stereographic plane.  The reference ships no spherical kernels (a spherical
request fails kernel lookup, SURVEY §2.3); we keep that contract and raise.
The inverse maps φ_sph to the ellipsoid's isometric latitude ψ in closed form and
recovers φ_ell from the conformal latitude atan(sinh ψ) by the shared series
instead of the kernel's phi_sph2ell fixed-point loop.
"""

from __future__ import annotations

import math

import numpy as np

from .base import as_float, aux_to_geodetic, DEG_TO_RAD, RAD_TO_DEG, PreparedProjection, ProjParams, mod_pi, register


@register("oblique_stereographic")
def prepare_stereographic(params: ProjParams) -> PreparedProjection:
    if params.spherical:
        raise ValueError(
            "oblique_stereographic is ellipsoid-only in the reference "
            "(no pl_project_oblique_stereographic_s kernel exists)"
        )
    info = params.info
    e = info.ecc
    es = info.ecc2
    one_es = info.one_ecc2
    phi0 = params.lat0 * DEG_TO_RAD
    lam0 = params.lon0 * DEG_TO_RAD
    x0, y0 = params.x0, params.y0

    sin_phi0, cos_phi0 = math.sin(phi0), math.cos(phi0)
    # scale_r2 = 2·scale·a·sqrt(1−e²)/(1−e²·sin²φ0)  (projcl_run.c:540)
    scale_r2 = 2.0 * params.scale * info.major_axis * math.sqrt(one_es) / (1.0 - es * sin_phi0 * sin_phi0)
    c0 = math.sqrt(1.0 + es * cos_phi0**4 / one_es)
    phiC0 = math.asin(sin_phi0 / c0)
    sinPhiC0, cosPhiC0 = math.sin(phiC0), math.cos(phiC0)
    k0 = math.tan(0.5 * phiC0 + math.pi / 4) / (
        math.tan(0.5 * phi0 + math.pi / 4) ** c0
        * ((1.0 - e * sin_phi0) / (1.0 + e * sin_phi0)) ** (0.5 * c0 * e)
    )
    log_k0 = math.log(k0)
    chi_to_phi = info.chi_to_phi

    def forward(lon, lat):
        lam_ell = as_float(lon) * DEG_TO_RAD - lam0
        phi_ell = as_float(lat) * DEG_TO_RAD
        # ellipsoid → conformal sphere
        lam = c0 * lam_ell
        phi = np.arctan(
            np.sinh(log_k0 + c0 * (np.arcsinh(np.tan(phi_ell)) - e * np.arctanh(e * np.sin(phi_ell))))
        )
        sinp, cosp = np.sin(phi), np.cos(phi)
        sinl, cosl = np.sin(lam), np.cos(lam)
        kf = scale_r2 / (1.0 + sinPhiC0 * sinp + cosPhiC0 * cosp * cosl)
        x = cosp * sinl
        y = cosPhiC0 * sinp - sinPhiC0 * cosp * cosl
        return x0 + kf * x, y0 + kf * y

    def inverse(x, y):
        xx = (as_float(x) - x0) / scale_r2
        yy = (as_float(y) - y0) / scale_r2
        rho = np.hypot(xx, yy)
        ang = 2.0 * np.arctan(rho)
        sinC, cosC = np.sin(ang), np.cos(ang)
        with np.errstate(divide="ignore", invalid="ignore"):
            sin_phi = cosC * sinPhiC0 + yy * sinC * cosPhiC0 / rho
        phi_sph = np.arcsin(np.clip(np.where(rho == 0.0, sinPhiC0, sin_phi), -1.0, 1.0))
        lam = np.arctan2(xx * sinC, rho * cosPhiC0 * cosC - yy * sinPhiC0 * sinC)
        lam = lam / c0
        # conformal sphere → ellipsoid (kernel phi_sph2ell, lines 4-19)
        psi = (np.arcsinh(np.tan(phi_sph)) - log_k0) / c0
        phi = aux_to_geodetic(np.arctan(np.sinh(psi)), chi_to_phi)
        return mod_pi(lam + lam0) * RAD_TO_DEG, phi * RAD_TO_DEG

    return PreparedProjection("oblique_stereographic", params, forward, inverse)
