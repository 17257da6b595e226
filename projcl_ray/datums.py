"""Datum (Helmert 7-parameter) shifts with host-side matrix pre-concatenation.

Reference semantics (`src/projcl_run.c:113-950`, `kernel/pl_datum.opencl`):
1. geodetic (λ,φ)° → geocentric XYZ on the source spheroid;
2. one fused 4×4 affine: source-datum→WGS84 matrix multiplied by the INVERSE of
   the destination-datum→WGS84 matrix, concatenated once on the driver
   (the reference uses LAPACK dgetrf/dgetri + BLAS dgemm, projcl_run.c:867-885;
   we use numpy.linalg) so each point costs a single matmul;
3. geocentric XYZ → geodetic on the destination spheroid via the Toms 1996
   non-iterative Bowring method (region-1 constant AD_C = 1.0026).

Datum parameter table: 27 datums × (Dx,Dy,Dz,Ex,Ey,Ez,ppm) from the public
"WGS 84 Implementation Manual" (mirrored at projcl_run.c:124-181).
"""

from __future__ import annotations

import math

import numpy as np

from .spheroid import get_spheroid

SEC_TO_RAD = math.pi / (180.0 * 3600.0)
AD_C = 1.0026  # Toms region-1 constant (pl_datum.opencl:2)

# name -> (Dx, Dy, Dz, Ex_arcsec, Ey_arcsec, Ez_arcsec, ppm)
DATUM_PARAMS: dict[str, tuple[float, ...]] = {
    "WGS_84": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "WGS_72": (0.0, 0.0, 4.5, 0.0, 0.0, -0.554, 0.22),
    "ED_50": (-87.0, -98.0, -121.0, 0.0, 0.0, 0.0, 0.0),
    "ED_79": (-86.0, -98.0, -119.0, 0.0, 0.0, 0.0, 0.0),
    "ED_87": (-82.5, -91.7, -117.7, 0.1338, -0.0625, -0.047, 0.045),
    "AUSTRIA_NS": (595.6, 87.3, 473.3, 4.7994, 0.0671, 5.7850, 2.555),
    "BELGIUM_50": (-55.0, 49.0, -158.0, 0.0, 0.0, 0.0, 0.0),
    "BERNE_1873": (649.0, 9.0, 376.0, 0.0, 0.0, 0.0, 0.0),
    "CH_1903": (660.1, 13.1, 369.2, 0.8048, 0.5777, 0.9522, 5.66),
    "DANISH_GI_1934": (662.0, 18.0, 734.0, 0.0, 0.0, 0.0, 0.0),
    "NOUV_TRIG_DE_FRANCE_GREENWICH": (-168.0, -60.0, 320.0, 0.0, 0.0, 0.0, 0.0),
    "NOUV_TRIG_DE_FRANCE_PARIS": (-168.0, -60.0, 320.0, 0.0, 0.0, 8414.03, 0.0),
    "POTSDAM": (587.0, 16.0, 393.0, 0.0, 0.0, 0.0, 0.0),
    "GGRS_87": (199.6, -75.1, -246.3, 0.0202, 0.0034, 0.0135, -0.015),
    "HJORSEY_55": (-73.0, 46.0, -86.0, 0.0, 0.0, 0.0, 0.0),
    "IRELAND_65": (506.0, -122.0, 611.0, 0.0, 0.0, 0.0, 0.0),
    "ITALY_1940": (-133.0, -50.0, 97.0, 0.0, 0.0, 44828.40, 0.0),
    "NOUV_TRIG_DE_LUX": (-262.0, 75.0, 25.0, 0.0, 0.0, 0.0, 0.0),
    "NETHERLANDS_1921": (719.0, 47.0, 640.0, 0.0, 0.0, 0.0, 0.0),
    "OSGB_36": (375.0, -111.0, 431.0, 0.0, 0.0, 0.0, 0.0),
    "PORTUGAL_DLX": (504.1, -220.9, 563.0, 0.0, 0.0, -0.554, 0.22),
    "PORTUGAL_1973": (227.0, 97.5, 35.4, 0.0, 0.0, -0.554, 0.22),
    "RNB_72": (-104.0, 80.0, -75.0, 0.0, 0.0, 0.0, 0.0),
    "RT_90": (424.3, -80.5, 613.1, 4.3965, -1.9866, 5.1846, 0.0),
    "NAD_27": (-8.0, 160.0, 176.0, 0.0, 0.0, 0.0, 0.0),
    "NAD_83": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "ETRS_89": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}

# Default spheroid per datum for the end-to-end shift (the reference's API takes
# spheroids explicitly; these are the conventional associations).
DATUM_SPHEROID: dict[str, str] = {
    "WGS_84": "WGS_84",
    "WGS_72": "WGS_84",
    "NAD_27": "CLARKE_1866",
    "NAD_83": "GRS_80",
    "ETRS_89": "GRS_80",
    "ED_50": "INTERNATIONAL_1924",
    "ED_79": "INTERNATIONAL_1924",
    "ED_87": "INTERNATIONAL_1924",
    "CH_1903": "BESSEL_1841",
    "OSGB_36": "AIRY_1830",
    "POTSDAM": "BESSEL_1841",
}


def helmert_matrix(datum: str) -> np.ndarray:
    """4×4 datum→WGS84 affine (row-vector-on-right convention), matching
    pl_affine_transform_make (projcl_run.c:181-199): position-vector rotation
    with scale M = 1 + ppm·1e-6."""
    dx, dy, dz, ex, ey, ez, ppm = DATUM_PARAMS[datum]
    M = 1.0 + ppm * 1e-6
    rx, ry, rz = ex * SEC_TO_RAD, ey * SEC_TO_RAD, ez * SEC_TO_RAD
    return np.array(
        [
            [M, -M * rz, M * ry, dx],
            [M * rz, M, -M * rx, dy],
            [-M * ry, M * rx, M, dz],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=np.float64,
    )


def concat_shift_matrix(src_datum: str, dst_datum: str) -> np.ndarray:
    """inv(dst→WGS84) @ (src→WGS84): the reference's key optimization — one
    matmul per point instead of two (projcl_run.c:823-885)."""
    m_src = helmert_matrix(src_datum)
    m_dst = helmert_matrix(dst_datum)
    return np.linalg.inv(m_dst) @ m_src


def geodetic_to_cartesian(lon, lat, spheroid: str):
    """(λ,φ)° on the spheroid surface → geocentric XYZ (pl_geodesic_to_cartesian)."""
    info = get_spheroid(spheroid)
    lam = np.asarray(lon, np.float64) * (math.pi / 180.0)
    phi = np.asarray(lat, np.float64) * (math.pi / 180.0)
    sinp, cosp = np.sin(phi), np.cos(phi)
    sinl, cosl = np.sin(lam), np.cos(lam)
    r = info.major_axis / np.sqrt(1.0 - info.ecc2 * sinp * sinp)
    return r * cosp * cosl, r * cosp * sinl, r * info.one_ecc2 * sinp


def cartesian_to_geodetic(x, y, z, spheroid: str):
    """Geocentric XYZ → (λ,φ)° via Toms 1996 Bowring (pl_cartesian_to_geodesic).

    Non-iterative; surface points only (the reference discards height too).
    """
    info = get_spheroid(spheroid)
    X = np.asarray(x, np.float64)
    Y = np.asarray(y, np.float64)
    Z = np.asarray(z, np.float64)
    lam = np.where(X != 0.0, np.arctan2(Y, X), np.where(Y <= 0.0, -math.pi / 2, math.pi / 2))
    W2 = X * X + Y * Y  # Earth-scale metres: the squares cannot overflow
    W = np.sqrt(W2)
    T0 = Z * AD_C
    S0 = np.sqrt(T0 * T0 + W2)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinB0 = T0 / S0
        cosB0 = W / S0
    T1 = Z + info.minor_axis * info.ecc2 / info.one_ecc2 * (sinB0 * sinB0 * sinB0)
    Ssum = W - info.major_axis * info.ecc2 * (cosB0 * cosB0 * cosB0)
    phi = np.arctan2(T1, Ssum)
    return lam * (180.0 / math.pi), phi * (180.0 / math.pi)


def shift_datum(lon, lat, src_datum: str, dst_datum: str,
                src_spheroid: str | None = None, dst_spheroid: str | None = None):
    """Full 3-stage datum shift of loose points (pl_shift_datum semantics,
    src/projcl_datum.c:114-132): fused into one vectorized call."""
    src_sph = src_spheroid or DATUM_SPHEROID.get(src_datum, "WGS_84")
    dst_sph = dst_spheroid or DATUM_SPHEROID.get(dst_datum, "WGS_84")
    m = concat_shift_matrix(src_datum, dst_datum)
    X, Y, Z = geodetic_to_cartesian(lon, lat, src_sph)
    X2 = m[0, 0] * X + m[0, 1] * Y + m[0, 2] * Z + m[0, 3]
    Y2 = m[1, 0] * X + m[1, 1] * Y + m[1, 2] * Z + m[1, 3]
    Z2 = m[2, 0] * X + m[2, 1] * Y + m[2, 2] * Z + m[2, 3]
    return cartesian_to_geodetic(X2, Y2, Z2, dst_sph)
