"""Reference ellipsoids and derived constants.

Semantics follow ProjCL's spheroid model (`/root/reference/src/projcl_spheroid.c:19-108`,
`/root/reference/include/projcl/projcl_types.h:44-57,96-110`): a named axes table plus
host-side precomputed series — meridional-arc coefficients ``en`` (Snyder/proj) and the
Karney/Krüger transverse-Mercator series ``A``/``alpha``/``beta`` (Karney 2011,
"Transverse Mercator with an accuracy of a few nanometers") — plus two series the
reference does not carry: conformal χ → φ (Engsager & Poder 2007 / Karney 2011, PROJ's
``cgb``) and authalic β → φ (Karney 2023, "On auxiliary latitudes"), both 6th order in
the third flattening n.  They replace the reference's iterative inverses and its
3-term authalic ``apa`` sum, which is off by 1.4e-8° (~1.6 mm) on WGS_84.

Everything here is float64 (the reference computes these in double then narrows to
float32 for its kernels; we keep double end to end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

# Named spheroids → (major_axis, minor_axis) in meters.
# Axes values per the reference's table (projcl_spheroid.c:19-32); these are
# public geodetic constants (Snyder, NGA, EPSG).
SPHEROID_AXES: dict[str, tuple[float, float]] = {
    "SPHERE": (6370997.0, 6370997.0),
    "WGS_84": (6378137.0, 6356752.31424),
    "GRS_80": (6378137.0, 6356752.31414),
    "AIRY_1830": (6377563.396, 6356256.910),
    "AIRY_1848": (6377563.0, 6356256.161),
    "MODIFIED_AIRY": (6377340.189, 6356034.448),
    "BESSEL_1841": (6377397.155, 6356078.963),
    "CLARKE_1866": (6378206.4, 6356583.8),
    "CLARKE_1880_RGS": (6378249.145, 6356514.870),
    "GRS_1967_TRUNCATED": (6378160.0, 6356774.7192),
    "WGS_84_MAJOR_AUXILIARY_SPHERE": (6378137.0, 6378137.0),
    "INTERNATIONAL_1924": (6378388.0, 6356911.9),
}

# Spheroids treated as spherical by the dispatcher (projcl_spheroid.c:35-37).
_SPHERICAL = {"SPHERE", "WGS_84_MAJOR_AUXILIARY_SPHERE"}


def is_spherical(name: str) -> bool:
    return name in _SPHERICAL


@dataclass(frozen=True)
class SpheroidInfo:
    name: str
    major_axis: float
    minor_axis: float
    ecc: float
    ecc2: float
    one_ecc2: float
    ec: float
    inverse_flattening: float
    en: tuple[float, ...]
    chi_to_phi: tuple[float, ...]
    beta_to_phi: tuple[float, ...]
    krueger_A: float
    krueger_alpha: tuple[float, ...]
    krueger_beta: tuple[float, ...]

    @property
    def spherical(self) -> bool:
        return is_spherical(self.name)

    @property
    def flattening(self) -> float:
        return 1.0 - self.minor_axis / self.major_axis


# Meridional-arc series coefficients (classic proj/Snyder constants,
# mirrored at projcl_spheroid.c:6-17).
_C00, _C02, _C04, _C06, _C08 = 1.0, 0.25, 0.046875, 0.01953125, 0.01068115234375
_C22, _C44 = 0.75, 0.46875
_C46, _C48 = 0.01302083333333333333, 0.00712076822916666666
_C66, _C68 = 0.36458333333333333333, 0.00569661458333333333
_C88 = 0.3076171875


@lru_cache(maxsize=None)
def get_spheroid(name: str) -> SpheroidInfo:
    """Build the full derived-constant record for a named spheroid.

    Mirrors `_pl_get_spheroid_info` (projcl_spheroid.c:39-108) in float64.
    """
    a, b = SPHEROID_AXES[name]
    one_ecc2 = (b * b) / (a * a)
    ecc2 = 1.0 - one_ecc2
    ecc = math.sqrt(ecc2)
    inv_f = 1.0 / (1.0 - b / a) if a > b else math.inf
    if ecc > 0:
        ec = 1.0 - 0.5 * one_ecc2 * (math.log1p(-ecc) - math.log1p(ecc)) / ecc
    else:
        ec = 2.0  # limit of the expression as ecc -> 0 (1 + one_ecc2*atanh(e)/e -> 2)

    es = ecc2
    en = (
        _C00 - es * (_C02 + es * (_C04 + es * (_C06 + es * _C08))),
        es * (_C22 - es * (_C04 + es * (_C06 + es * _C08))),
        (es * es) * (_C44 - es * (_C46 + es * _C48)),
        (es * es * es) * (_C66 - es * _C68),
        (es * es * es * es) * _C88,
    )

    n = (a - b) / (a + b)
    n2 = n * n
    n3 = n2 * n
    krueger_A = (1.0 + (0.25 + 1.0 / 64.0 * n2) * n2) / (1.0 + n)

    # Karney 2011 series, order n^4 (the reference truncates the same way,
    # projcl_spheroid.c:80-100 — the commented n^5 terms are dropped there too).
    alpha = (
        (0.5 + (-2.0 / 3.0 + (0.3125 + (41.0 / 180.0) * n) * n) * n) * n,
        (13.0 / 48.0 + (-0.6 + (557.0 / 1440.0) * n) * n) * n * n,
        (61.0 / 240.0 - (103.0 / 140.0) * n) * n * n * n,
        (49561.0 / 161280.0) * n * n * n * n,
    )
    beta = (
        (0.5 + (-2.0 / 3.0 + (37.0 / 96.0 + (-1.0 / 360.0) * n) * n) * n) * n,
        (1.0 / 48.0 + (1.0 / 15.0 + (-437.0 / 1440.0) * n) * n) * n * n,
        (17.0 / 480.0 + (-37.0 / 840.0) * n) * n * n * n,
        (4397.0 / 161280.0) * n * n * n * n,
    )

    # φ = x + Σₖ cₖ·sin 2kx with x the conformal (χ) or authalic (β) latitude;
    # both miss a 40-digit evaluation by ≤ 1.3e-14° over |φ| ≤ 89.9°.
    chi_to_phi = (
        n * (2 + n * (-2 / 3 + n * (-2 + n * (116 / 45 + n * (26 / 45 + n * (-2854 / 675)))))),
        n2 * (7 / 3 + n * (-8 / 5 + n * (-227 / 45 + n * (2704 / 315 + n * (2323 / 945))))),
        n3 * (56 / 15 + n * (-136 / 35 + n * (-1262 / 105 + n * (73814 / 2835)))),
        n2 * n2 * (4279 / 630 + n * (-332 / 35 + n * (-399572 / 14175))),
        n3 * n2 * (4174 / 315 + n * (-144838 / 6237)),
        n3 * n3 * (601676 / 22275),
    )
    beta_to_phi = (
        n * (4 / 3 + n * (4 / 45 + n * (-16 / 35 + n * (-2582 / 14175 + n * (
            60136 / 467775 + n * (28112932 / 212837625)))))),
        n2 * (46 / 45 + n * (152 / 945 + n * (-11966 / 14175 + n * (
            -21016 / 51975 + n * (251310128 / 638512875))))),
        n3 * (3044 / 2835 + n * (3802 / 14175 + n * (-94388 / 66825 + n * (-8797648 / 10945935)))),
        n2 * n2 * (6059 / 4725 + n * (41072 / 93555 + n * (-1472637812 / 638512875))),
        n3 * n2 * (768272 / 467775 + n * (455935736 / 638512875)),
        n3 * n3 * (4210684958 / 1915538625),
    )

    return SpheroidInfo(
        name=name,
        major_axis=a,
        minor_axis=b,
        ecc=ecc,
        ecc2=ecc2,
        one_ecc2=one_ecc2,
        ec=ec,
        inverse_flattening=inv_f,
        en=en,
        chi_to_phi=chi_to_phi,
        beta_to_phi=beta_to_phi,
        krueger_A=krueger_A,
        krueger_alpha=alpha,
        krueger_beta=beta,
    )
