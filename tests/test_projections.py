"""Projection correctness: the reference's own test strategy (SURVEY §5) —
the 200k grid+circle corpus, per-projection parameter sweeps, round-trip
within tolerance, plus the reference's edge-semantics cases.

Tolerances: the reference guarantees 1 arc-second round-trip in float32
(test/projcl_test.c:28); in float64 we require 1e-7° (≈ 3500× tighter) for
analytic projections and 1e-4° for the table-driven Robinson.
"""

import math

import numpy as np
import pytest

from projcl_ray.proj import ProjParams, prepare, projection_names

ARCSEC = 1.0 / 3600.0


def corpus(n=200_000, width=500):
    """The reference's deterministic corpus (test/projcl_test.c:460-467):
    half a width-wide grid over [−60,60]×[−40,80], half a 40° circle."""
    half = n // 2
    rows = half // width
    gl = np.linspace(-60, 60, width)
    gp = np.linspace(-40, 80, rows)
    lon_g, lat_g = np.meshgrid(gl, gp)
    k = np.arange(half)
    lon_c = -40 * np.cos(2 * np.pi * k / (half - 1))
    lat_c = -40 * np.sin(2 * np.pi * k / (half - 1))
    return (
        np.concatenate([lon_g.ravel(), lon_c]),
        np.concatenate([lat_g.ravel(), lat_c]),
    )


LON, LAT = corpus(20_000, 100)

# Per-projection sweeps mirroring _test_groups[] (test/projcl_test.c:54-336).
SWEEPS = {
    "albers_equal_area": [
        dict(spheroid="SPHERE", rlat1=30, rlat2=60),
        dict(spheroid="SPHERE", rlat1=-30, rlat2=-60),
        dict(spheroid="SPHERE", rlat1=30, rlat2=60, lon0=10, lat0=10),
        dict(spheroid="WGS_84", rlat1=30, rlat2=60),
        dict(spheroid="WGS_84", rlat1=-30, rlat2=-60),
        dict(spheroid="WGS_84", rlat1=30, rlat2=60, lon0=10, lat0=10),
    ],
    "american_polyconic": [
        dict(spheroid="SPHERE"),
        dict(spheroid="SPHERE", lon0=10, lat0=10),
        dict(spheroid="WGS_84"),
        dict(spheroid="WGS_84", lon0=10, lat0=10),
    ],
    "lambert_conformal_conic": [
        dict(spheroid="SPHERE", rlat1=30, rlat2=60),
        dict(spheroid="SPHERE", rlat1=-30, rlat2=-60),
        dict(spheroid="WGS_84", rlat1=30, rlat2=60),
        dict(spheroid="WGS_84", rlat1=-30, rlat2=-60),
        dict(spheroid="WGS_84", rlat1=30, rlat2=60, lon0=10, lat0=10),
        # pathological symmetric parallels → Mercator rewrite
        dict(spheroid="SPHERE", rlat1=-30, rlat2=30),
        dict(spheroid="WGS_84", rlat1=-30, rlat2=30, lon0=10, lat0=10),
    ],
    "lambert_azimuthal_equal_area": [
        dict(spheroid="SPHERE"),
        dict(spheroid="SPHERE", lon0=10, lat0=10),
        dict(spheroid="WGS_84"),
        dict(spheroid="WGS_84", lon0=10, lat0=10),
    ],
    "mercator": [
        dict(spheroid="SPHERE"),
        dict(spheroid="WGS_84"),
        dict(spheroid="SPHERE", scale=2.0, x0=1e5, y0=-2e5),
    ],
    "oblique_stereographic": [
        dict(spheroid="WGS_84"),
        dict(spheroid="WGS_84", lon0=10, lat0=10),
        dict(spheroid="WGS_84", lon0=5.38763888888889, lat0=52.15616055555555),  # RD Amersfoort
    ],
    "robinson": [dict(spheroid="SPHERE")],
    "transverse_mercator": [
        dict(spheroid="SPHERE"),
        dict(spheroid="WGS_84"),
        dict(spheroid="WGS_84", lon0=10),
    ],
    "winkel_tripel": [
        dict(spheroid="SPHERE"),
        dict(spheroid="SPHERE", rlat1=40),
        dict(spheroid="SPHERE", rlat1=50.467),
    ],
}

CASES = [(name, kw) for name, kws in SWEEPS.items() for kw in kws]


@pytest.mark.parametrize("name,kw", CASES, ids=lambda v: str(v))
def test_roundtrip(name, kw):
    p = prepare(name, **kw)
    with np.errstate(all="ignore"):
        x, y = p.forward(LON, LAT)
        lon2, lat2 = p.inverse(x, y)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    mask = np.ones_like(LON, bool)
    err = np.max(np.hypot((lon2 - LON)[mask], (lat2 - LAT)[mask]))
    tol = 1e-7
    if name == "robinson":
        tol = 1e-4  # table-driven splines bound the attainable accuracy
    elif name == "transverse_mercator" and kw.get("lon0"):
        # Krüger order-n⁴ series degrade at Δλ≈70° from the central meridian
        # (the reference shares this; its float32 error there is far larger)
        tol = 1e-5
    assert err < tol, f"{name} {kw}: round-trip error {err}"
    assert err < ARCSEC  # the reference's own guarantee


def test_all_projections_registered():
    assert set(SWEEPS) == set(projection_names())


def test_mercator_ignores_lon0():
    """The reference Mercator kernel takes no λ0 (pl_project_mercator.opencl)."""
    a = prepare("mercator", spheroid="SPHERE", lon0=0.0)
    b = prepare("mercator", spheroid="SPHERE", lon0=42.0)
    xa, ya = a.forward(LON, LAT)
    xb, yb = b.forward(LON, LAT)
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)


def test_lcc_pathological_rewrites_to_mercator():
    """Symmetric parallels → shifted Mercator (src/projcl_project.c:99-109)."""
    lcc = prepare("lambert_conformal_conic", spheroid="WGS_84", rlat1=-30, rlat2=30, lon0=10, lat0=10)
    info = lcc.params.info
    cosphi1 = math.cos(math.radians(-30))
    merc = prepare(
        "mercator",
        spheroid="WGS_84",
        scale=cosphi1,
        x0=-info.major_axis * cosphi1 * math.radians(10),
        y0=-info.major_axis * cosphi1 * math.asinh(math.tan(math.radians(10))),
    )
    np.testing.assert_allclose(lcc.forward(LON, LAT), merc.forward(LON, LAT), rtol=0, atol=1e-9)


def test_sphere_only_and_ellipsoid_only_contracts():
    with pytest.raises(ValueError):
        prepare("oblique_stereographic", spheroid="SPHERE")
    with pytest.raises(ValueError):
        prepare("robinson", spheroid="WGS_84")
    with pytest.raises(ValueError):
        prepare("winkel_tripel", spheroid="WGS_84")
    with pytest.raises(KeyError):
        prepare("no_such_projection")


def test_wgs84_major_auxiliary_is_spherical():
    p = ProjParams(spheroid="WGS_84_MAJOR_AUXILIARY_SPHERE")
    assert p.spherical
    prep = prepare("mercator", p)  # should use spherical kernel, radius = a
    x, y = prep.forward(np.array([10.0]), np.array([0.0]))
    assert abs(x[0] - math.radians(10) * 6378137.0) < 1e-6


def test_scale_offsets_applied_after_projection():
    p0 = prepare("transverse_mercator", spheroid="WGS_84")
    p1 = prepare("transverse_mercator", spheroid="WGS_84", scale=0.9996, x0=500000.0, y0=1000.0)
    x0, y0 = p0.forward(LON, LAT)
    x1, y1 = p1.forward(LON, LAT)
    np.testing.assert_allclose(x1, 500000.0 + 0.9996 * x0, rtol=1e-12)
    np.testing.assert_allclose(y1, 1000.0 + 0.9996 * y0, rtol=1e-12)


def test_winkel_default_cosphi1():
    """NaN rlat1 → cosφ1 = 2/π (src/projcl_run.c:620)."""
    default = prepare("winkel_tripel", spheroid="SPHERE")
    explicit = prepare("winkel_tripel", spheroid="SPHERE", rlat1=math.degrees(math.acos(2 / math.pi)))
    np.testing.assert_allclose(default.forward(LON, LAT), explicit.forward(LON, LAT), atol=1e-9)


def test_known_values_vs_published():
    """Spot-check against published/independently-computed values."""
    # Web-Mercator-style check: sphere mercator of (20°, 40°)
    p = prepare("mercator", spheroid="SPHERE")
    x, y = p.forward(np.array([20.0]), np.array([40.0]))
    R = 6370997.0
    assert abs(x[0] - math.radians(20) * R) < 1e-6
    assert abs(y[0] - R * math.asinh(math.tan(math.radians(40)))) < 1e-6
    # UTM zone 32N (lon0=9, k0=0.9996, x0=500km): Karney's test point
    utm = prepare("transverse_mercator", spheroid="WGS_84", lon0=9.0, scale=0.9996, x0=500000.0)
    x, y = utm.forward(np.array([10.0]), np.array([50.0]))
    # pyproj/PROJ reference: easting 571666.45, northing 5539109.82 (±0.01 m)
    assert abs(x[0] - 571666.4475) < 0.01
    assert abs(y[0] - 5539109.8153) < 0.01


def test_albers_snyder_worked_example():
    """Snyder, 'Map Projections: A Working Manual' (USGS PP 1395), Albers
    spherical numerical example: R=1, φ1=29.5°, φ2=45.5°, φ0=23°, λ0=−96°,
    point (35°N, 75°W) → x=0.2952720, y=0.2416774."""
    p = prepare("albers_equal_area", spheroid="SPHERE",
                rlat1=29.5, rlat2=45.5, lat0=23.0, lon0=-96.0)
    x, y = p.forward(np.array([-75.0]), np.array([35.0]))
    R = 6370997.0
    assert abs(x[0] / R - 0.2952720) < 5e-7
    assert abs(y[0] / R - 0.2416774) < 5e-7


def test_longitude_wrap_mod_pi():
    """pl_mod_pi edge semantics: inverse outputs wrap once into (−180,180]
    when λ0 pushes λ past ±180 (peel.opencl:55-57)."""
    p = prepare("transverse_mercator", spheroid="SPHERE", lon0=170.0)
    x, y = p.forward(np.array([175.0, -175.0]), np.array([10.0, 10.0]))
    lon2, lat2 = p.inverse(x, y)
    np.testing.assert_allclose(lon2, [175.0, -175.0], atol=1e-9)
    assert np.all(lon2 > -180.0) and np.all(lon2 <= 180.0)
    # LAEA centered at the antimeridian
    p2 = prepare("lambert_azimuthal_equal_area", spheroid="SPHERE", lon0=180.0)
    x, y = p2.forward(np.array([179.0, -179.0]), np.array([0.0, 0.0]))
    lon2, _ = p2.inverse(x, y)
    np.testing.assert_allclose(lon2, [179.0, -179.0], atol=1e-9)


def test_pole_clamp_albers_ellipsoidal():
    """Albers ellipsoidal inverse pole clamp: |ec − |q|| ≤ tol → φ = ±π/2
    (kernel select, pl_project_albers_equal_area.opencl:157)."""
    p = prepare("albers_equal_area", spheroid="WGS_84", rlat1=30, rlat2=60)
    x, y = p.forward(np.array([0.0, 20.0]), np.array([90.0, -90.0]))
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    lon2, lat2 = p.inverse(x, y)
    np.testing.assert_allclose(lat2, [90.0, -90.0], atol=1e-6)
    # LAEA at the exact antipode of the center is mathematically undefined
    # (the point maps to the entire boundary circle); like the reference
    # kernel, the forward yields non-finite output there — and only there
    q = prepare("lambert_azimuthal_equal_area", spheroid="SPHERE", lat0=0.0, lon0=0.0)
    x, y = q.forward(np.array([180.0, 179.999]), np.array([0.0, 0.0]))
    assert not np.isfinite(x[0])          # exact antipode: undefined
    assert np.isfinite(x[1]) and np.isfinite(y[1])  # anything else: fine


@pytest.mark.parametrize("spheroid", ["WGS_84", "CLARKE_1880_RGS"])
def test_auxiliary_latitude_series_accuracy(spheroid):
    """The conformal (χ → φ) and authalic (β → φ) series behind every
    ellipsoidal latitude inverse, against χ and β evaluated at 40 digits from
    their closed forms, for |φ| ≤ 89.9° (CLARKE_1880_RGS has the largest
    third flattening in the table)."""
    import mpmath as mp

    from projcl_ray.proj.base import aux_to_geodetic
    from projcl_ray.spheroid import SPHEROID_AXES, get_spheroid

    info = get_spheroid(spheroid)
    a, b = (mp.mpf(v) for v in SPHEROID_AXES[spheroid])
    with mp.workdps(40):
        e2 = 1 - b * b / (a * a)
        e = mp.sqrt(e2)

        def q(s):
            return (1 - e2) * (s / (1 - e2 * s * s) + mp.atanh(e * s) / e)

        q_p = q(mp.mpf(1))
        phis, chis, betas = [], [], []
        for k in range(-1798, 1799):  # 0.05° steps
            phi = mp.mpf(k) / 20 * mp.pi / 180
            s = mp.sin(phi)
            psi = mp.asinh(mp.tan(phi)) - e * mp.atanh(e * s)
            phis.append(float(phi))
            chis.append(float(mp.atan(mp.sinh(psi))))
            betas.append(float(mp.asin(q(s) / q_p)))
    phis = np.array(phis)
    for name, x, coeffs in (("conformal", chis, info.chi_to_phi), ("authalic", betas, info.beta_to_phi)):
        err = np.max(np.abs(aux_to_geodetic(np.array(x), coeffs) - phis)) * 180.0 / math.pi
        assert err <= 1e-12, f"{spheroid} {name}: {err:.3g}°"


BAD_ROWS = [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (0.0, np.nan),
            (0.0, np.inf), (0.0, -np.inf), (np.nan, np.nan), (np.inf, -np.inf)]


def _with_bad_rows(a, b):
    """Insert the BAD_ROWS NaN and ±inf rows into a clean two-column batch;
    returns the dirty columns and the mask that selects the original rows."""
    at = np.linspace(0, len(a), len(BAD_ROWS)).astype(int)
    clean = np.insert(np.ones(len(a), bool), at, False)
    return (np.insert(a, at, [p[0] for p in BAD_ROWS]),
            np.insert(b, at, [p[1] for p in BAD_ROWS]), clean)


# Uniform points: rows converge after different numbers of Newton passes, so
# a batch-wide stop rule shows up as changed bits in the finite rows.
_RNG = np.random.default_rng(7)
ULON, ULAT = _RNG.uniform(-60, 60, 2000), _RNG.uniform(-70, 70, 2000)


@pytest.mark.parametrize("name,kw", CASES, ids=lambda v: str(v))
def test_dtype_and_row_independence(name, kw):
    """float32 in gives float32 out (the warp pixel path's contract), and each
    output row depends on its own input row only: NaN/±inf rows leave every
    other row of the batch bit-identical, forward and inverse."""
    p = prepare(name, **kw)
    with np.errstate(all="ignore"):
        fx, fy = p.forward(LON.astype(np.float32), LAT.astype(np.float32))
        ilon, ilat = p.inverse(fx, fy)
        assert [v.dtype for v in (fx, fy, ilon, ilat)] == [np.dtype(np.float32)] * 4

    for lon, lat in ((LON, LAT), (ULON, ULAT)):
        with np.errstate(all="ignore"):
            x, y = p.forward(lon, lat)
            lon2, lat2 = p.inverse(x, y)
            dlon, dlat, clean = _with_bad_rows(lon, lat)
            dx, dy = p.forward(dlon, dlat)
            dx_, dy_, _ = _with_bad_rows(x, y)
            dlon2, dlat2 = p.inverse(dx_, dy_)
        for got, want in ((dx, x), (dy, y), (dlon2, lon2), (dlat2, lat2)):
            np.testing.assert_array_equal(got[clean], want)


@pytest.mark.parametrize("name,kw", CASES, ids=lambda v: str(v))
def test_forward_nonfinite_rows_stay_nonfinite(name, kw):
    """A NaN or ±inf longitude or latitude never projects to a finite point,
    in float64 or float32: a bad input row must not land on the map as a
    plausible coordinate (Robinson's table lookup once clamped or crashed)."""
    p = prepare(name, **kw)
    for dt in (np.float64, np.float32):
        lon = np.array([r[0] for r in BAD_ROWS], dt)
        lat = np.array([r[1] for r in BAD_ROWS], dt)
        with np.errstate(all="ignore"):
            x, y = p.forward(lon, lat)
        assert x.dtype == y.dtype == np.dtype(dt)
        finite = np.isfinite(x) & np.isfinite(y)
        assert not finite.any(), [BAD_ROWS[i] for i in np.flatnonzero(finite)]
