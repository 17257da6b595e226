"""Hypothesis property tests for the core math: projection round trips,
cell containment, geodesic symmetry and PIP (SURVEY §5(d))."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projcl_ray.index import cell_bounds, cell_id
from projcl_ray.geodesic import haversine, vincenty_inverse
from projcl_ray.proj import prepare
from projcl_ray.spatial import point_in_polygon


finite_lon = st.floats(min_value=-59.9, max_value=59.9, allow_nan=False)
finite_lat = st.floats(min_value=-39.9, max_value=79.9, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(lon=finite_lon, lat=finite_lat,
       proj=st.sampled_from(["mercator", "transverse_mercator", "lambert_azimuthal_equal_area"]),
       ell=st.sampled_from(["SPHERE", "WGS_84"]))
def test_property_roundtrip(lon, lat, proj, ell):
    p = prepare(proj, spheroid=ell)
    x, y = p.forward(np.array([lon]), np.array([lat]))
    lo, la = p.inverse(x, y)
    assert abs(lo[0] - lon) < 1e-7 and abs(la[0] - lat) < 1e-7


@settings(max_examples=50, deadline=None)
@given(lon=finite_lon, lat=finite_lat, res=st.sampled_from([1.0, 2.5, 5.0, 10.0]))
def test_property_cell_contains_point(lon, lat, res):
    cid = cell_id(np.array([lon]), np.array([lat]), res)
    x0, y0, x1, y1 = cell_bounds(cid, res)
    # epsilon: values within 1 ulp of a cell edge legitimately round across it
    # (e.g. -2e-309 + 90 == 90.0); assignment stays deterministic + SQL-equal
    eps = 1e-9
    assert x0[0] - eps <= lon < x1[0] + eps and y0[0] - eps <= lat < y1[0] + eps


@settings(max_examples=30, deadline=None)
@given(lon1=finite_lon, lat1=finite_lat, lon2=finite_lon, lat2=finite_lat)
def test_property_geodesic_symmetry_and_triangle(lon1, lat1, lon2, lat2):
    d_ab = haversine(lon1, lat1, lon2, lat2)
    d_ba = haversine(lon2, lat2, lon1, lat1)
    assert abs(d_ab - d_ba) < 1e-6
    dv, _, _ = vincenty_inverse(lon1, lat1, lon2, lat2)
    # sphere vs ellipsoid agree within the flattening (~0.5%)
    assert dv == pytest.approx(d_ab, rel=7e-3, abs=1.0)


@settings(max_examples=30, deadline=None)
@given(
    cx=st.floats(-50, 50), cy=st.floats(-30, 60),
    r=st.floats(0.5, 5.0), n=st.integers(5, 12), seed=st.integers(0, 1000),
)
def test_property_pip_centroid_inside_far_outside(cx, cy, r, n, seed):
    from projcl_ray.spatial import make_convex_polygon

    poly = make_convex_polygon(cx, cy, r, n, seed)
    centroid = poly.mean(axis=0)
    assert point_in_polygon(np.array([centroid[0]]), np.array([centroid[1]]), poly)[0]
    assert not point_in_polygon(np.array([cx + 20 * r]), np.array([cy]), poly)[0]
