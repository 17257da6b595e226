"""Geodesic solvers: spherical closed forms + Vincenty ellipsoidal direct/inverse.

Reference semantics:
- haversine many-to-many distance (`kernel/pl_geodesic.opencl:31-59`, runner
  `src/projcl_run.c:637-692` applies an optional output ``scale``);
- spherical direct, fixed distance × many azimuths and fixed azimuth × many
  distances (`kernel/pl_geodesic.opencl:61-122`);
- Vincenty direct for the ellipsoid, the one ellipsoidal direct solver: the
  reference ships the NGS Vincenty/Rainsford routine commented out
  (`kernel/pl_geodesic.opencl:139-209`, listed in its TODO); we implement the
  published algorithm (Vincenty 1975, Survey Review 23(176)) in float64, plus
  the inverse problem the reference lacks entirely (required by the
  north-star spec). Karney's inverse (Karney 2013) re-solves the pairs where
  Vincenty's λ iteration does not converge, and is the tests' oracle.

All angles degrees in/out, distances meters (radius defaults to the
reference's SPHERE radius 6370997.0, projcl_spheroid.c:20).
"""

from __future__ import annotations

import math

import numpy as np

from .spheroid import get_spheroid

SPHERE_RADIUS = 6370997.0
DEG = math.pi / 180.0


def haversine(lon1, lat1, lon2, lat2, radius: float = SPHERE_RADIUS):
    """Pairwise (element-wise, broadcasting) great-circle distance in meters.

    Same formula as pl_inverse_geodesic_s: 2R·asin√(sin²(Δφ/2)+cosφ1·cosφ2·sin²(Δλ/2)).
    """
    lam1 = np.asarray(lon1, np.float64) * DEG
    phi1 = np.asarray(lat1, np.float64) * DEG
    lam2 = np.asarray(lon2, np.float64) * DEG
    phi2 = np.asarray(lat2, np.float64) * DEG
    shp = np.sin(0.5 * (phi2 - phi1))
    shl = np.sin(0.5 * (lam2 - lam1))
    h = shp * shp + np.cos(phi1) * np.cos(phi2) * shl * shl
    return 2.0 * radius * np.arcsin(np.minimum(np.sqrt(h), 1.0))


def haversine_matrix(lon1, lat1, lon2, lat2, radius: float = SPHERE_RADIUS):
    """n1×n2 distance table (the reference's 2D NDRange cross product)."""
    return haversine(
        np.asarray(lon1, np.float64)[:, None],
        np.asarray(lat1, np.float64)[:, None],
        np.asarray(lon2, np.float64)[None, :],
        np.asarray(lat2, np.float64)[None, :],
        radius,
    )


def forward_sphere(lon, lat, azimuth_deg, distance_m, radius: float = SPHERE_RADIUS):
    """Spherical direct problem (closed form, pl_forward_geodesic_fixed_distance_s).

    Broadcasts over all inputs; distance in meters; returns (lon2, lat2) degrees.
    Longitude wrapped with the reference's single ±2π correction.
    """
    lam1 = np.asarray(lon, np.float64) * DEG
    phi1 = np.asarray(lat, np.float64) * DEG
    az = np.asarray(azimuth_deg, np.float64) * DEG
    d = np.asarray(distance_m, np.float64) / radius
    sin_d, cos_d = np.sin(d), np.cos(d)
    sin_p, cos_p = np.sin(phi1), np.cos(phi1)
    sin_az, cos_az = np.sin(az), np.cos(az)
    phi2 = np.arcsin(np.clip(sin_p * cos_d + cos_p * sin_d * cos_az, -1.0, 1.0))
    lam2 = lam1 + np.arctan2(sin_d * sin_az, cos_p * cos_d - sin_p * sin_d * cos_az)
    lam2 = np.where(np.abs(lam2) > math.pi, lam2 - np.copysign(2 * math.pi, lam2), lam2)
    return lam2 / DEG, phi2 / DEG


def vincenty_direct(lon, lat, azimuth_deg, distance_m, spheroid: str = "WGS_84"):
    """Ellipsoidal direct problem (Vincenty 1975, eqs. 1-11; the algorithm the
    reference's commented-out pl_forward_geodesic_e transcribes).

    Returns (lon2_deg, lat2_deg, back_azimuth_deg). Vectorized, broadcasting.
    """
    info = get_spheroid(spheroid)
    a, b = info.major_axis, info.minor_axis
    f = info.flattening

    lam1 = np.asarray(lon, np.float64) * DEG
    phi1 = np.asarray(lat, np.float64) * DEG
    alpha1 = np.asarray(azimuth_deg, np.float64) * DEG
    s = np.asarray(distance_m, np.float64)
    shape = np.broadcast_shapes(lam1.shape, phi1.shape, alpha1.shape, s.shape)
    lam1, phi1, alpha1, s = (np.broadcast_to(v, shape) for v in (lam1, phi1, alpha1, s))

    sin_a1, cos_a1 = np.sin(alpha1), np.cos(alpha1)
    tanU1 = (1.0 - f) * np.tan(phi1)
    cosU1 = 1.0 / np.sqrt(1.0 + tanU1 * tanU1)
    sinU1 = tanU1 * cosU1

    sigma1 = np.arctan2(tanU1, cos_a1)
    sin_alpha = cosU1 * sin_a1
    cos2_alpha = 1.0 - sin_alpha * sin_alpha
    u2 = cos2_alpha * (a * a - b * b) / (b * b)
    A = 1.0 + u2 / 16384.0 * (4096.0 + u2 * (-768.0 + u2 * (320.0 - 175.0 * u2)))
    B = u2 / 1024.0 * (256.0 + u2 * (-128.0 + u2 * (74.0 - 47.0 * u2)))

    sigma = (s / (b * A)).copy()
    for _ in range(200):
        two_sigma_m = 2.0 * sigma1 + sigma
        cos2sm = np.cos(two_sigma_m)
        sin_s, cos_s = np.sin(sigma), np.cos(sigma)
        dsigma = (
            B
            * sin_s
            * (
                cos2sm
                + 0.25
                * B
                * (
                    cos_s * (-1.0 + 2.0 * cos2sm * cos2sm)
                    - B / 6.0 * cos2sm * (-3.0 + 4.0 * sin_s * sin_s) * (-3.0 + 4.0 * cos2sm * cos2sm)
                )
            )
        )
        new_sigma = s / (b * A) + dsigma
        delta = np.abs(new_sigma - sigma)
        sigma = new_sigma
        if np.all(delta < 1e-15):
            break

    sin_s, cos_s = np.sin(sigma), np.cos(sigma)
    cos2sm = np.cos(2.0 * sigma1 + sigma)
    tmp = sinU1 * sin_s - cosU1 * cos_s * cos_a1
    phi2 = np.arctan2(
        sinU1 * cos_s + cosU1 * sin_s * cos_a1,
        (1.0 - f) * np.hypot(sin_alpha, tmp),
    )
    lam = np.arctan2(sin_s * sin_a1, cosU1 * cos_s - sinU1 * sin_s * cos_a1)
    C = f / 16.0 * cos2_alpha * (4.0 + f * (4.0 - 3.0 * cos2_alpha))
    L = lam - (1.0 - C) * f * sin_alpha * (
        sigma + C * sin_s * (cos2sm + C * cos_s * (-1.0 + 2.0 * cos2sm * cos2sm))
    )
    lam2 = lam1 + L
    lam2 = np.where(np.abs(lam2) > math.pi, lam2 - np.copysign(2 * math.pi, lam2), lam2)
    alpha2 = np.arctan2(sin_alpha, -tmp)
    return lam2 / DEG, phi2 / DEG, (alpha2 / DEG) % 360.0


# ---------------------------------------------------------------------------
# Karney-style inverse (Karney 2013, "Algorithms for geodesics", J. Geodesy
# 87:43-55): solve on the auxiliary sphere for the course angle α1, with the
# spherical-triangle relations of §2-4 and the paper's symmetries for the
# canonical arrangement. Instead of transcribing the 6th-order series
# expansions, the three geodesic integrals are evaluated by Gauss-Legendre
# quadrature (machine precision for these smooth integrands), and α1 is found
# by bisection on the monotone λ12(α1) — slower per point than Vincenty but
# convergent EVERYWHERE, including the antipodal region where Vincenty's λ
# iteration diverges. It has two roles: the rescue of vincenty_inverse for
# the pairs its λ iteration leaves unconverged, and the tests' independent
# oracle. The direct problem has one solver, vincenty_direct.
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_TINY = 1e-150


def _gl_integral(sigma: np.ndarray, fn) -> np.ndarray:
    """∫₀^σ fn(t) dt per element (signed), 32-node Gauss-Legendre."""
    half = 0.5 * sigma
    t = half[..., None] * (_GL_X + 1.0)  # nodes mapped to [0, σ]
    return (fn(t) * _GL_W).sum(axis=-1) * half


def _karney_eval(salp1, calp1, sbet1, cbet1, sbet2, cbet2, f, ep2, b):
    """λ12, s12 and α2 components for a trial α1 (canonical arrangement:
    β1 ≤ 0, |β1| ≥ |β2|, λ12 ∈ [0, π]) — Karney eqs. 5-25/44-45."""
    salp0 = salp1 * cbet1
    calp0 = np.hypot(calp1, salp1 * sbet1)
    ssig1, csig1 = sbet1, calp1 * cbet1
    # |β1| ≥ |β2| ⇒ cos²β2 − cos²β1 ≥ 0; positive branch is the shortest path
    calp2 = np.sqrt(np.maximum((calp1 * cbet1) ** 2 + (cbet2 - cbet1) * (cbet2 + cbet1), 0.0)) / cbet2
    ssig2, csig2 = sbet2, calp2 * cbet2
    sig1 = np.arctan2(ssig1, csig1)
    sig2 = np.arctan2(ssig2, csig2)
    k2 = ep2 * calp0 * calp0

    def i1(t):
        return np.sqrt(1.0 + k2[..., None] * np.sin(t) ** 2)

    def i3(t):
        return (2.0 - f) / (1.0 + (1.0 - f) * np.sqrt(1.0 + k2[..., None] * np.sin(t) ** 2))

    omg12 = np.arctan2(salp0 * ssig2, csig2) - np.arctan2(salp0 * ssig1, csig1)
    lam12 = omg12 - f * salp0 * (_gl_integral(sig2, i3) - _gl_integral(sig1, i3))
    s12 = b * (_gl_integral(sig2, i1) - _gl_integral(sig1, i1))
    return lam12, s12, salp0, calp2


def karney_inverse(lon1, lat1, lon2, lat2, spheroid: str = "WGS_84",
                   bisect_iters: int = 60):
    """Inverse geodesic by Karney's auxiliary-sphere method (see block comment
    above): returns (distance_m, azi1_deg, azi2_deg), both azimuths being the
    direction of travel at their point, in [0, 360). Convergent for every
    input pair including exact antipodes."""
    info = get_spheroid(spheroid)
    a, b = info.major_axis, info.minor_axis
    f = info.flattening
    ep2 = info.ecc2 / info.one_ecc2

    lam1 = np.asarray(lon1, np.float64) * DEG
    phi1 = np.asarray(lat1, np.float64) * DEG
    lam2 = np.asarray(lon2, np.float64) * DEG
    phi2 = np.asarray(lat2, np.float64) * DEG
    shape = np.broadcast_shapes(lam1.shape, phi1.shape, lam2.shape, phi2.shape)
    lam1, phi1, lam2, phi2 = (np.broadcast_to(v, shape).ravel().copy()
                              for v in (lam1, phi1, lam2, phi2))

    # reduced latitudes
    beta1 = np.arctan((1.0 - f) * np.tan(phi1))
    beta2 = np.arctan((1.0 - f) * np.tan(phi2))

    # canonicalization (the paper's symmetries): λ12 ∈ [0, π] via lonsign;
    # |β1| ≥ |β2| via point swap; β1 ≤ 0 via N-S mirror
    lam12 = lam2 - lam1
    lam12 = np.where(np.abs(lam12) > math.pi, lam12 - np.copysign(2 * math.pi, lam12), lam12)
    lonsign = np.where(lam12 >= 0.0, 1.0, -1.0)
    lam12c = np.abs(lam12)
    swap = np.abs(beta1) < np.abs(beta2)
    b1 = np.where(swap, beta2, beta1)
    b2 = np.where(swap, beta1, beta2)
    latsign = np.where(b1 <= 0.0, 1.0, -1.0)
    b1 = b1 * latsign
    b2 = b2 * latsign

    sbet1, cbet1 = np.sin(b1), np.maximum(np.cos(b1), _TINY)
    sbet2, cbet2 = np.sin(b2), np.maximum(np.cos(b2), _TINY)
    # degenerate equatorial pair beyond the equatorial-geodesic limit: nudge
    # β1 off the equator so the spherical triangle is non-degenerate
    equatorial = (sbet1 == 0.0) & (sbet2 == 0.0)
    eq_short = equatorial & (lam12c <= (1.0 - f) * math.pi)
    sbet1 = np.where(equatorial & ~eq_short, -1e-12, sbet1)

    # bisection on α1 ∈ (0, π): λ12(α1) increases monotonically 0 → π
    lo = np.full(sbet1.shape, 1e-12)
    hi = np.full(sbet1.shape, math.pi - 1e-12)
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        lam_mid, _, _, _ = _karney_eval(
            np.sin(mid), np.cos(mid), sbet1, cbet1, sbet2, cbet2, f, ep2, b
        )
        take_hi = lam_mid < lam12c
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    alp1 = 0.5 * (lo + hi)
    salp1, calp1 = np.sin(alp1), np.cos(alp1)
    _, s12, salp0, calp2 = _karney_eval(salp1, calp1, sbet1, cbet1, sbet2, cbet2, f, ep2, b)
    salp2 = salp0 / cbet2
    alp2 = np.arctan2(salp2, calp2)

    # equatorial fast path: the geodesic runs along the equator
    s12 = np.where(eq_short, a * lam12c, s12)
    alp1 = np.where(eq_short, math.pi / 2, alp1)
    alp2 = np.where(eq_short, math.pi / 2, alp2)

    # unwind the symmetries (reverse order of application)
    alp1u = np.where(np.broadcast_to(latsign < 0, alp1.shape), math.pi - alp1, alp1)
    alp2u = np.where(np.broadcast_to(latsign < 0, alp2.shape), math.pi - alp2, alp2)
    # swapped pairs solved the reversed path: unwind by swapping roles and
    # mirroring (reversal +π composed with the canonical E-W mirror ⇒ π − α)
    alp1f = np.where(swap, math.pi - alp2u, alp1u)
    alp2f = np.where(swap, math.pi - alp1u, alp2u)
    alp1f = alp1f * lonsign
    alp2f = alp2f * lonsign

    azi1 = (alp1f / DEG) % 360.0
    azi2 = (alp2f / DEG) % 360.0
    return s12.reshape(shape), azi1.reshape(shape), azi2.reshape(shape)


def vincenty_inverse(lon1, lat1, lon2, lat2, spheroid: str = "WGS_84", max_iter: int = 200):
    """Ellipsoidal inverse problem (Vincenty 1975): distance + fwd/back azimuths.

    The reference has no ellipsoidal inverse kernel (its `_e` lookup fails at
    runtime, src/projcl_geodesic.c:316); this fills that gap per the north-star.
    Near-antipodal pairs where classic Vincenty diverges are re-solved with
    :func:`karney_inverse` (see below), so the returned geodesic lands on
    the target everywhere, including exactly antipodal points.

    Returns (distance_m, azimuth12_deg, azimuth21_deg).
    """
    info = get_spheroid(spheroid)
    a, b = info.major_axis, info.minor_axis
    f = info.flattening

    lam1 = np.asarray(lon1, np.float64) * DEG
    phi1 = np.asarray(lat1, np.float64) * DEG
    lam2 = np.asarray(lon2, np.float64) * DEG
    phi2 = np.asarray(lat2, np.float64) * DEG
    shape = np.broadcast_shapes(lam1.shape, phi1.shape, lam2.shape, phi2.shape)
    lam1, phi1, lam2, phi2 = (np.broadcast_to(v, shape).copy() for v in (lam1, phi1, lam2, phi2))

    L = lam2 - lam1
    tanU1 = (1.0 - f) * np.tan(phi1)
    cosU1 = 1.0 / np.sqrt(1.0 + tanU1 * tanU1)
    sinU1 = tanU1 * cosU1
    tanU2 = (1.0 - f) * np.tan(phi2)
    cosU2 = 1.0 / np.sqrt(1.0 + tanU2 * tanU2)
    sinU2 = tanU2 * cosU2

    lam = L.copy()
    sin_sig = np.zeros(shape)
    cos_sig = np.ones(shape)
    sigma = np.zeros(shape)
    sin_alpha = np.zeros(shape)
    cos2_alpha = np.ones(shape)
    cos2sm = np.ones(shape)
    delta = np.zeros(shape)

    for _ in range(max_iter):
        sin_lam, cos_lam = np.sin(lam), np.cos(lam)
        sin_sig = np.hypot(cosU2 * sin_lam, cosU1 * sinU2 - sinU1 * cosU2 * cos_lam)
        cos_sig = sinU1 * sinU2 + cosU1 * cosU2 * cos_lam
        sigma = np.arctan2(sin_sig, cos_sig)
        with np.errstate(divide="ignore", invalid="ignore"):
            sin_alpha = np.where(sin_sig != 0.0, cosU1 * cosU2 * sin_lam / sin_sig, 0.0)
        cos2_alpha = 1.0 - sin_alpha * sin_alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            cos2sm = np.where(
                cos2_alpha != 0.0, cos_sig - 2.0 * sinU1 * sinU2 / cos2_alpha, 0.0
            )
        C = f / 16.0 * cos2_alpha * (4.0 + f * (4.0 - 3.0 * cos2_alpha))
        new_lam = L + (1.0 - C) * f * sin_alpha * (
            sigma + C * sin_sig * (cos2sm + C * cos_sig * (-1.0 + 2.0 * cos2sm * cos2sm))
        )
        delta = np.abs(new_lam - lam)
        lam = new_lam
        if np.all(delta < 1e-14):
            break

    u2 = cos2_alpha * (a * a - b * b) / (b * b)
    A = 1.0 + u2 / 16384.0 * (4096.0 + u2 * (-768.0 + u2 * (320.0 - 175.0 * u2)))
    B = u2 / 1024.0 * (256.0 + u2 * (-128.0 + u2 * (74.0 - 47.0 * u2)))
    dsigma = (
        B
        * sin_sig
        * (
            cos2sm
            + 0.25
            * B
            * (
                cos_sig * (-1.0 + 2.0 * cos2sm * cos2sm)
                - B / 6.0 * cos2sm * (-3.0 + 4.0 * sin_sig * sin_sig) * (-3.0 + 4.0 * cos2sm * cos2sm)
            )
        )
    )
    s = b * A * (sigma - dsigma)
    alpha1 = np.arctan2(cosU2 * np.sin(lam), cosU1 * sinU2 - sinU1 * cosU2 * np.cos(lam))
    alpha2 = np.arctan2(cosU1 * np.sin(lam), -sinU1 * cosU2 + cosU1 * sinU2 * np.cos(lam))

    # Near-antipodal pairs where classic Vincenty's λ iteration diverges:
    # re-solve the (rare) non-converged subset with the Karney-style solver,
    # which is convergent everywhere including exact antipodes (north_star
    # names Vincenty/Karney: Vincenty is the fast bulk path, Karney the
    # always-convergent rescue and independent oracle).
    bad = np.nonzero(np.ravel(delta) > 1e-12)[0]
    if len(bad):
        fl1 = np.ravel(lam1)[bad] / DEG
        fp1 = np.ravel(phi1)[bad] / DEG
        fl2 = np.ravel(lam2)[bad] / DEG
        fp2 = np.ravel(phi2)[bad] / DEG
        kd, ka1, ka2 = karney_inverse(fl1, fp1, fl2, fp2, spheroid)
        s_flat = np.ravel(s)
        a1_flat = np.ravel(alpha1)
        a2_flat = np.ravel(alpha2)
        s_flat[bad] = kd
        a1_flat[bad] = ka1 * DEG
        a2_flat[bad] = ka2 * DEG
        s = s_flat.reshape(shape)
        alpha1 = a1_flat.reshape(shape)
        alpha2 = a2_flat.reshape(shape)

    return s, (alpha1 / DEG) % 360.0, (alpha2 / DEG) % 360.0
