"""Cell index, tiling, PIP, kNN unit tests (pure NumPy oracles)."""

import numpy as np

from projcl_ray.index import (
    cell_bounds,
    cell_id,
    cells_covering_bbox,
    cut_tiles,
    tile_index,
)
from projcl_ray.geodesic import haversine_matrix
from projcl_ray.spatial import knn_brute, make_convex_polygon, point_in_polygon


def test_cell_id_deterministic_and_sql_compatible():
    lon = np.array([-180.0, -179.9, 0.0, 179.9, 10.0])
    lat = np.array([-90.0, 0.0, 0.0, 89.9, 45.0])
    cid = cell_id(lon, lat, 5.0)
    nx = 72
    exp = np.floor((lat + 90) / 5).astype(int) * nx + np.floor((lon + 180) / 5).astype(int)
    exp = np.minimum(exp, (np.floor((lat + 90) / 5).astype(int)) * nx + nx - 1)  # lon clamp
    np.testing.assert_array_equal(cid, exp)


def test_cell_bounds_contain_points():
    rng = np.random.default_rng(3)
    lon = rng.uniform(-179, 179, 500)
    lat = rng.uniform(-89, 89, 500)
    cid = cell_id(lon, lat, 5.0)
    x0, y0, x1, y1 = cell_bounds(cid, 5.0)
    assert np.all((lon >= x0) & (lon < x1) & (lat >= y0) & (lat < y1))


def test_cells_covering_bbox():
    cells = cells_covering_bbox(-1.0, -1.0, 6.0, 6.0, 5.0)
    assert len(cells) == 9  # spans [−5,0),[0,5),[5,10) in both axes → 3×3
    assert cell_id(np.array([0.0]), np.array([0.0]), 5.0)[0] in cells


def test_tile_index_row_first():
    """tile id = col + row·tiles_across (pl_sample_nearest.opencl:37-39)."""
    assert tile_index(2, 3, 10) == 32
    np.testing.assert_array_equal(tile_index(np.array([0, 1]), np.array([1, 1]), 4), [4, 5])


def test_cut_tiles_pads_edges():
    img = np.arange(50 * 70 * 4, dtype=np.uint8).reshape(50, 70, 4)
    tiles = list(cut_tiles(img, 32))
    assert len(tiles) == 3 * 2  # ceil(70/32)=3 across, ceil(50/32)=2 down
    for tx, ty, tidx, tile in tiles:
        assert tile.shape == (32, 32, 4)
        assert tidx == tx + ty * 3
    # interior content preserved
    _, _, _, t0 = tiles[0]
    np.testing.assert_array_equal(t0, img[:32, :32])
    # padded region of the last tile is zero
    _, _, _, tlast = tiles[-1]
    assert np.all(tlast[18:, :] == 0) and np.all(tlast[:, 6:] == 0)


def test_point_in_polygon_square():
    square = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], float)
    px = np.array([5.0, -1.0, 10.5, 9.99, 0.01])
    py = np.array([5.0, 5.0, 5.0, 9.99, 0.01])
    np.testing.assert_array_equal(point_in_polygon(px, py, square), [True, False, False, True, True])


def test_point_in_polygon_concave():
    # L-shape: (0,0)-(4,0)-(4,4)-(3,4)-(3,1)-(0,1)
    poly = np.array([[0, 0], [4, 0], [4, 4], [3, 4], [3, 1], [0, 1]], float)
    inside = point_in_polygon(np.array([0.5, 3.5, 1.0, 2.0]), np.array([0.5, 2.0, 3.0, 0.5]), poly)
    np.testing.assert_array_equal(inside, [True, True, False, True])


def test_point_in_convex_polygon_vs_halfplane_oracle():
    poly = make_convex_polygon(10.0, 20.0, 3.0, 9, seed=5)
    rng = np.random.default_rng(8)
    px = rng.uniform(5, 15, 2000)
    py = rng.uniform(15, 25, 2000)
    got = point_in_polygon(px, py, poly)
    # half-plane oracle (polygon is convex, CCW by construction)
    n = len(poly)
    ok = np.ones(len(px), bool)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        ok &= cross > 0
    boundary = np.zeros(len(px), bool)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        boundary |= np.abs(cross) < 1e-9
    mask = ~boundary
    np.testing.assert_array_equal(got[mask], ok[mask])


def test_knn_brute_matches_full_sort():
    rng = np.random.default_rng(11)
    qlon, qlat = rng.uniform(-10, 10, 50), rng.uniform(-10, 10, 50)
    plon, plat = rng.uniform(-10, 10, 400), rng.uniform(-10, 10, 400)
    idx, dist = knn_brute(qlon, qlat, plon, plat, 5)
    full = haversine_matrix(qlon, qlat, plon, plat)
    exp = np.sort(full, axis=1)[:, :5]
    np.testing.assert_allclose(np.sort(dist, axis=1), exp, rtol=1e-12)
    assert np.all(np.diff(dist, axis=1) >= 0)  # sorted by distance


def test_polygon_area_centroid_known_shapes():
    from projcl_ray.spatial import polygon_area, polygon_centroid

    # unit square (closed ring), CCW and CW
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float)
    assert polygon_area(sq) == 1.0
    assert polygon_centroid(sq) == (0.5, 0.5)
    assert polygon_area(sq[::-1]) == 1.0  # orientation-independent (abs)
    # right triangle
    tri = np.array([[0, 0], [4, 0], [0, 3]], float)
    assert polygon_area(tri) == 6.0
    cx, cy = polygon_centroid(tri)
    assert abs(cx - 4 / 3) < 1e-12 and abs(cy - 1.0) < 1e-12
    # concave L-shape: area = 3 (2x2 square minus 1x1 notch)
    ell = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)
    assert abs(polygon_area(ell) - 3.0) < 1e-12


def test_ball_candidates_exclusion_property():
    """The pole-safe candidate generator's contract, tested by brute force:
    every point of every NON-candidate cell must be ≥ ring·res·LAT_DEG_M
    away (haversine) from every point of the query cell — the bound the kNN
    termination test and the geofence pruning rely on. Random cells/rings,
    random points sampled inside excluded cells, poles included."""
    import numpy as np

    from projcl_ray import index as I
    from projcl_ray.geodesic import haversine_matrix

    rng = np.random.default_rng(7)
    res = 5.0
    nx, ny = I.nx(res), I.ny(res)
    for _ in range(60):
        qcell = int(rng.integers(0, nx * ny))
        ring = int(rng.integers(1, 8))
        cand = set(I.ball_candidates(qcell, ring, res).tolist())
        bound = ring * res * I.LAT_DEG_M
        lo, la, hi, lb = I.cell_bounds(np.array([qcell]), res)
        qlon = rng.uniform(lo, hi, 6)
        qlat = rng.uniform(la, lb, 6)
        for _ in range(25):
            oc = int(rng.integers(0, nx * ny))
            if oc in cand:
                continue
            olo, ola, ohi, olb = I.cell_bounds(np.array([oc]), res)
            d = haversine_matrix(qlon, qlat,
                                 rng.uniform(olo, ohi, 6), rng.uniform(ola, olb, 6))
            assert d.min() >= bound - 1e-6, (qcell, ring, oc, d.min(), bound)

    # duplicate-free and complete at max ring
    c = I.ball_candidates(int(I.cell_id(np.array([0.0]), np.array([89.9]), res)[0]), 3, res)
    assert len(c) == len(np.unique(c))
    allc = I.ball_candidates(5, int(180.0 / res) + 1, res)
    assert len(np.unique(allc)) == nx * ny
