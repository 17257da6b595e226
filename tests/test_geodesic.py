"""Geodesic correctness: haversine vs the reference formula, spherical direct
round-trips, Vincenty direct↔inverse self-consistency (sub-mm), adversarial
cases (FIXTURES.md §4), and known published values."""

import numpy as np
import pytest

from projcl_ray.geodesic import (
    SPHERE_RADIUS,
    forward_sphere,
    haversine,
    haversine_matrix,
    vincenty_direct,
    vincenty_inverse,
)

rng = np.random.default_rng(42)
N = 5000
LON1 = rng.uniform(-60, 60, N)
LAT1 = rng.uniform(-40, 80, N)
AZ = rng.uniform(0, 360, N)
DIST = np.exp(rng.uniform(0, np.log(5e6), N))  # 1 m .. 5000 km


def test_haversine_matrix_matches_pairwise():
    m = haversine_matrix(LON1[:50], LAT1[:50], LON1[50:80], LAT1[50:80])
    assert m.shape == (50, 30)
    d = haversine(LON1[0], LAT1[0], LON1[50], LAT1[50])
    assert abs(m[0, 0] - d) < 1e-9


def test_haversine_known_value():
    # quarter meridian on the reference sphere: equator to pole
    d = haversine(0.0, 0.0, 0.0, 90.0)
    assert abs(d - SPHERE_RADIUS * np.pi / 2) < 1e-6
    # same point → 0
    assert haversine(10.0, 10.0, 10.0, 10.0) == 0.0


def test_sphere_direct_consistent_with_haversine():
    lon2, lat2 = forward_sphere(LON1, LAT1, AZ, DIST)
    d = haversine(LON1, LAT1, lon2, lat2)
    assert np.max(np.abs(d - DIST)) < 1e-6


def test_sphere_direct_cardinal_directions():
    # due north 1 degree of arc
    arc = SPHERE_RADIUS * np.pi / 180.0
    lon2, lat2 = forward_sphere(0.0, 0.0, 0.0, arc)
    assert abs(lat2 - 1.0) < 1e-12 and abs(lon2) < 1e-12
    # due east along the equator
    lon2, lat2 = forward_sphere(0.0, 0.0, 90.0, arc)
    assert abs(lon2 - 1.0) < 1e-12 and abs(lat2) < 1e-12


def test_vincenty_direct_inverse_roundtrip_submm():
    lon2, lat2, _ = vincenty_direct(LON1, LAT1, AZ, DIST)
    d, a12, _ = vincenty_inverse(LON1, LAT1, lon2, lat2)
    assert np.max(np.abs(d - DIST)) < 1e-3  # sub-millimeter (north-star target)
    daz = np.abs(((a12 - AZ + 180) % 360) - 180)
    assert np.max(daz * DIST) < 1e-2  # azimuth error scaled by distance < 1 cm


def test_vincenty_known_geodesics():
    # Flinders Peak → Buninyong: THE published Vincenty test case
    # (Geoscience Australia; s = 54972.271 m)
    lat1 = -(37 + 57 / 60 + 3.72030 / 3600)
    lon1 = 144 + 25 / 60 + 29.52440 / 3600
    lat2 = -(37 + 39 / 60 + 10.15610 / 3600)
    lon2 = 143 + 55 / 60 + 35.38390 / 3600
    d, a12, a21 = vincenty_inverse(lon1, lat1, lon2, lat2, "GRS_80")
    assert abs(d - 54972.271) < 0.002
    # forward azimuth 306°52'05.37"
    assert abs(a12 - (306 + 52 / 60 + 5.37 / 3600)) < 1e-4


def test_vincenty_adversarial():
    # same point
    d, _, _ = vincenty_inverse(10.0, 10.0, 10.0, 10.0)
    assert d == 0.0
    # equatorial
    d, a12, _ = vincenty_inverse(0.0, 0.0, 10.0, 0.0)
    a = 6378137.0
    assert abs(d - np.radians(10) * a) < 1e-3
    assert abs(a12 - 90.0) < 1e-9
    # meridional
    d, a12, _ = vincenty_inverse(0.0, 0.0, 0.0, 10.0)
    assert abs(a12 - 0.0) < 1e-9
    # near-pole
    d, _, _ = vincenty_inverse(0.0, 89.9, 90.0, 89.9)
    assert 0 < d < 30000
    # near-antipodal: refined via the direct problem — must land on target
    d, a12, _ = vincenty_inverse(0.0, 0.0, 179.6, 0.4)
    assert np.isfinite(d) and d > 1.9e7
    lo, la, _ = vincenty_direct(0.0, 0.0, a12, d)
    assert abs(((lo - 179.6 + 180) % 360) - 180) < 1e-9 and abs(la - 0.4) < 1e-9
    # a meridian geodesic crosses the pole onto the opposite longitude
    lo, _, back = vincenty_direct(10.0, 80.0, 0.0, 2_500_000.0)
    assert abs(lo - (-170.0)) < 1e-9 and abs(back - 180.0) < 1e-9


def test_vincenty_antipodal_refinement():
    """True antipodal band: classic Vincenty diverges; the Newton-on-direct
    refinement must return a geodesic that lands on the target (the defining
    property of the inverse problem) at ~half-circumference length."""
    rng = np.random.default_rng(0)
    n = 60
    lon1 = rng.uniform(-180, 180, n)
    lat1 = rng.uniform(-80, 80, n)
    lon2 = ((lon1 + 180 + rng.uniform(-0.05, 0.05, n)) + 180) % 360 - 180
    lat2 = np.clip(-lat1 + rng.uniform(-0.05, 0.05, n), -89.9, 89.9)
    d, a12, _ = vincenty_inverse(lon1, lat1, lon2, lat2)
    lo, la, _ = vincenty_direct(lon1, lat1, a12, d)
    err = np.hypot((lo - lon2 + 180) % 360 - 180, la - lat2)
    assert err.max() < 1e-9
    assert np.all(d > 1.98e7) and np.all(d < 2.01e7)  # ~half circumference
    # exactly antipodal
    d0, a0, _ = vincenty_inverse(np.array([10.0]), np.array([30.0]),
                                 np.array([-170.0]), np.array([-30.0]))
    lo, la, _ = vincenty_direct(10.0, 30.0, a0, d0)
    assert abs(lo[0] + 170.0) < 1e-9 and abs(la[0] + 30.0) < 1e-9


def test_vincenty_direct_matches_sphere_when_f_zero():
    # On the auxiliary sphere (f=0) Vincenty reduces to the great-circle form
    lon2v, lat2v, _ = vincenty_direct(LON1[:500], LAT1[:500], AZ[:500], DIST[:500],
                                      spheroid="WGS_84_MAJOR_AUXILIARY_SPHERE")
    lon2s, lat2s = forward_sphere(LON1[:500], LAT1[:500], AZ[:500], DIST[:500],
                                  radius=6378137.0)
    np.testing.assert_allclose(lon2v, lon2s, atol=1e-9)
    np.testing.assert_allclose(lat2v, lat2s, atol=1e-9)


def test_karney_matches_vincenty_general():
    """Quadrature-based Karney solver vs Vincenty on general pairs: distances
    within 0.1 mm, azimuths within 1e-6 deg (Vincenty itself is the ~0.5 mm
    reference; the quadrature integrals are machine-precision)."""
    from projcl_ray.geodesic import karney_inverse, vincenty_inverse

    rng = np.random.default_rng(13)
    n = 200
    lon1, lat1 = rng.uniform(-180, 180, n), rng.uniform(-89.9, 89.9, n)
    lon2, lat2 = rng.uniform(-180, 180, n), rng.uniform(-89.9, 89.9, n)
    dv, a1v, a2v = vincenty_inverse(lon1, lat1, lon2, lat2)
    dk, a1k, a2k = karney_inverse(lon1, lat1, lon2, lat2)
    assert np.abs(dk - dv).max() < 1e-4
    assert np.abs((a1k - a1v + 180) % 360 - 180).max() < 1e-6
    assert np.abs((a2k - a2v + 180) % 360 - 180).max() < 1e-6


def test_karney_antipodal_lands_on_target_submm():
    """Antipodal region (where Vincenty's λ iteration diverges): the returned
    (s, α1) must land on the target via the independent direct solver to
    ≤ 1 mm — including EXACT antipodes and both poles."""
    from projcl_ray.geodesic import karney_inverse, vincenty_direct

    rng = np.random.default_rng(7)
    lat1 = rng.uniform(-60, 60, 80)
    lon1 = rng.uniform(-180, 180, 80)
    lat2 = -lat1 + rng.uniform(-0.05, 0.05, 80)
    lon2 = lon1 + 180 + rng.uniform(-0.05, 0.05, 80)
    # exact antipodes appended
    lon1 = np.concatenate([lon1, [20.0, 0.0]])
    lat1 = np.concatenate([lat1, [35.0, 0.0]])
    lon2 = np.concatenate([lon2, [-160.0, 180.0]])
    lat2 = np.concatenate([lat2, [-35.0, 0.0]])
    d, a1, a2 = karney_inverse(lon1, lat1, lon2, lat2)
    lo, la, _ = vincenty_direct(lon1, lat1, a1, d)
    err_deg = np.maximum(np.abs((lo - lon2 + 180) % 360 - 180), np.abs(la - lat2))
    assert err_deg.max() * 111194.9 < 1e-3  # ≤ 1 mm

    # meridional antipodes: twice the quarter meridian (known WGS-84 value)
    d, _, _ = karney_inverse(np.array([0.0, 10.0]), np.array([0.0, 90.0]),
                             np.array([180.0, 30.0]), np.array([0.0, -90.0]))
    np.testing.assert_allclose(d, 2 * 10001965.7293, atol=0.01)


def test_vincenty_inverse_rescue_uses_karney():
    """vincenty_inverse must return sub-mm-landing geodesics on the antipodal
    subset (the Karney rescue path)."""
    from projcl_ray.geodesic import vincenty_direct, vincenty_inverse

    lon1 = np.array([0.0, 5.0, -40.0])
    lat1 = np.array([0.0, 30.0, -10.0])
    lon2 = np.array([179.6, -174.9, 140.1])
    lat2 = np.array([0.4, -29.95, 10.05])
    d, a1, a2 = vincenty_inverse(lon1, lat1, lon2, lat2)
    lo, la, _ = vincenty_direct(lon1, lat1, a1, d)
    err_deg = np.maximum(np.abs((lo - lon2 + 180) % 360 - 180), np.abs(la - lat2))
    assert err_deg.max() * 111194.9 < 1e-3


def test_karney_inverse_vincenty_direct_roundtrip_general():
    """The inverse's Karney solver and the one direct solver compose on
    general pairs: direct(karney_inverse(p1, p2)) lands back on p2 sub-mm,
    over random pairs with near and exact antipodes planted among them."""
    from projcl_ray.geodesic import karney_inverse

    rng = np.random.default_rng(11)
    lon1 = rng.uniform(-180, 180, 500)
    lat1 = rng.uniform(-89, 89, 500)
    lon2 = rng.uniform(-180, 180, 500)
    lat2 = rng.uniform(-89.9, 89.9, 500)
    lon2[:40] = ((lon1[:40] + 360.0) % 360.0) - 180.0
    lat2[:40] = -lat1[:40] + rng.uniform(-0.02, 0.02, 40)
    lon2[40:50] = ((lon1[40:50] + 360.0) % 360.0) - 180.0
    lat2[40:50] = -lat1[40:50]
    d, a1, _ = karney_inverse(lon1, lat1, lon2, lat2)
    gx, gy, _ = vincenty_direct(lon1, lat1, a1, d)
    lon_err_m = np.abs((gx - lon2 + 180) % 360 - 180) * 111194.9 * np.cos(np.radians(lat2))
    lat_err_m = np.abs(gy - lat2) * 111194.9
    assert max(lon_err_m.max(), lat_err_m.max()) < 1e-3  # sub-mm
