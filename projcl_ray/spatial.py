"""Point-in-polygon and geodesic kNN primitives (the north-rule additions —
no reference analogue; SURVEY §2.7).

All are vectorized NumPy kernels intended to run inside ``map_batches`` with
the small side (polygon layer / query points) broadcast via ``ray.put``.
"""

from __future__ import annotations

import numpy as np

from .geodesic import haversine_matrix


def point_in_polygon(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Ray-crossing test of many points against ONE simple polygon.

    poly: (n, 2) array of vertices (closed or open ring). Boundary points
    follow the even-odd rule's half-open convention (consistent with most
    DB engines for strict containment).
    """
    px = np.asarray(px, np.float64)
    py = np.asarray(py, np.float64)
    vx, vy = np.asarray(poly[:, 0]), np.asarray(poly[:, 1])
    if vx[0] == vx[-1] and vy[0] == vy[-1]:
        vx, vy = vx[:-1], vy[:-1]
    n = len(vx)
    inside = np.zeros(px.shape, dtype=bool)
    j = n - 1
    for i in range(n):  # loop over EDGES (small), vectorized over points
        crosses = (vy[i] > py) != (vy[j] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (vx[j] - vx[i]) * (py - vy[i]) / (vy[j] - vy[i]) + vx[i]
        inside ^= crosses & (px < xint)
        j = i
    return inside


def polygon_area(poly: np.ndarray) -> float:
    """Planar shoelace area of a simple polygon (absolute value; closed or
    open ring). Units = coordinate units squared (deg² here — reproject first
    for metric areas)."""
    vx, vy = np.asarray(poly[:, 0], np.float64), np.asarray(poly[:, 1], np.float64)
    if vx[0] == vx[-1] and vy[0] == vy[-1]:
        vx, vy = vx[:-1], vy[:-1]
    return float(abs(np.dot(vx, np.roll(vy, -1)) - np.dot(vy, np.roll(vx, -1))) / 2.0)


def polygon_centroid(poly: np.ndarray) -> tuple[float, float]:
    """Planar centroid of a simple polygon (shoelace-weighted). Degenerate
    (zero-area: collinear or repeated vertices) polygons have no area-weighted
    centroid — fall back to the vertex mean instead of returning inf/nan."""
    vx, vy = np.asarray(poly[:, 0], np.float64), np.asarray(poly[:, 1], np.float64)
    if vx[0] == vx[-1] and vy[0] == vy[-1]:
        vx, vy = vx[:-1], vy[:-1]
    cross = vx * np.roll(vy, -1) - np.roll(vx, -1) * vy
    a = cross.sum() / 2.0
    if a == 0.0:
        return float(vx.mean()), float(vy.mean())
    cx = ((vx + np.roll(vx, -1)) * cross).sum() / (6.0 * a)
    cy = ((vy + np.roll(vy, -1)) * cross).sum() / (6.0 * a)
    return float(cx), float(cy)


def polygon_bbox(poly: np.ndarray) -> tuple[float, float, float, float]:
    return float(poly[:, 0].min()), float(poly[:, 1].min()), float(poly[:, 0].max()), float(poly[:, 1].max())


def make_convex_polygon(center_lon: float, center_lat: float, radius_deg: float,
                        n_vertices: int, seed: int) -> np.ndarray:
    """Deterministic random convex polygon (FIXTURES.md §3)."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0, 2 * np.pi, n_vertices))
    # points on an ellipse are always convex (CCW with sorted angles)
    ax = radius_deg * rng.uniform(0.6, 1.0)
    ay = radius_deg * rng.uniform(0.6, 1.0)
    return np.column_stack(
        [center_lon + ax * np.cos(angles), center_lat + ay * np.sin(angles)]
    )


def knn_brute(qlon, qlat, plon, plat, k: int, radius: float | None = None,
              order_key: np.ndarray | None = None):
    """Brute-force k nearest candidate points per query by haversine distance.

    Returns (indices (nq, k), distances (nq, k)). Used per-cell after the
    ring-of-cells candidate join; also the oracle for the distributed path.

    Ties in distance break by ``order_key`` (one key per target point — pass
    the target IDS to match SQL's ``ORDER BY dist, id``); defaults to target
    position. Duplicate target locations therefore rank deterministically at
    any scale factor.
    """
    d = haversine_matrix(qlon, qlat, plon, plat) if radius is None else haversine_matrix(
        qlon, qlat, plon, plat, radius
    )
    key = np.arange(d.shape[1]) if order_key is None else np.asarray(order_key)
    k = min(k, d.shape[1])
    idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    dd = np.take_along_axis(d, idx, axis=1)
    order = np.lexsort((key[idx], dd), axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    dd = np.take_along_axis(dd, order, axis=1)
    # ties AT the k boundary: argpartition picks an arbitrary member of the
    # tie group, so when more than k candidates are <= the k-th distance,
    # re-select those (rare) rows with the full (distance, key) order
    tied = np.nonzero((d <= dd[:, -1:]).sum(axis=1) > k)[0]
    for r in tied:
        full = np.lexsort((key, d[r]))[:k]
        idx[r] = full
        dd[r] = d[r, full]
    return idx, dd
