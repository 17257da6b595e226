"""Spatial cell index + tiling conventions.

The engine's shuffle key is a deterministic equal-angle cell grid (an
S2/H3-style discrete global grid simplified to lat/lon bins so that cell
assignment is pure arithmetic — exactly reproducible in SQL for the
correctness oracle, and computable vectorized with zero state).

Cell id layout (int64): ``iy * nx + ix`` with
``ix = floor((lon+180)/res)``, ``iy = floor((lat+90)/res)`` — row-major,
mirroring the reference's row-first tile indexing convention
(`kernel/pl_sample_nearest.opencl:37-39`: index = col + row·tiles_across).

Partitioning assumption documented for all downstream joins: two features
interact only if they share a cell (or a cell within `ring` neighbors);
callers must choose ``res_deg`` ≥ the interaction radius.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RES_DEG = 5.0


def nx(res_deg: float) -> int:
    return int(round(360.0 / res_deg))


def ny(res_deg: float) -> int:
    return int(round(180.0 / res_deg))


def cell_id(lon, lat, res_deg: float = DEFAULT_RES_DEG) -> np.ndarray:
    """Vectorized cell assignment. Clamps to the valid grid (poles/antimeridian
    guard) so every finite point gets a cell."""
    lon = np.asarray(lon, np.float64)
    lat = np.asarray(lat, np.float64)
    _nx, _ny = nx(res_deg), ny(res_deg)
    ix = np.clip(np.floor((lon + 180.0) / res_deg).astype(np.int64), 0, _nx - 1)
    iy = np.clip(np.floor((lat + 90.0) / res_deg).astype(np.int64), 0, _ny - 1)
    return iy * _nx + ix


def cell_bounds(cid: np.ndarray, res_deg: float = DEFAULT_RES_DEG):
    """(lon_min, lat_min, lon_max, lat_max) of cells."""
    cid = np.asarray(cid, np.int64)
    _nx = nx(res_deg)
    ix = cid % _nx
    iy = cid // _nx
    lon_min = ix * res_deg - 180.0
    lat_min = iy * res_deg - 90.0
    return lon_min, lat_min, lon_min + res_deg, lat_min + res_deg


LAT_DEG_M = 111194.9  # meters per degree of latitude (π/180 · 6 371 000, floored)


def ball_candidates_many(cid, ring: int, res_deg: float = DEFAULT_RES_DEG):
    """Vectorized pole-safe candidate generation: for each query cell, every
    cell that can possibly contain a point within
    ``ring * res_deg * LAT_DEG_M`` meters (haversine) of any point in the
    query cell. Returns flat ``(src_idx, cell_id)`` pairs (ragged fan-out),
    duplicate-free.

    Geometry (a square ring of cells would silently drop far-longitude
    matches near the poles): latitude rows
    within ±ring of the query row; each row's longitude half-width is widened
    to ``ceil(ring·(π/2) / cos φ_max)`` where φ_max is the larger \\|lat\\| edge
    of the query cell and that row — rows whose widened window spans the grid
    include EVERY longitude (near the poles cos φ → 0, so polar rows are
    always fully included).

    Exclusion guarantee (what makes ring-expansion termination provable):
    - lat-excluded rows differ from any query-cell point by ≥ ring·res
      degrees of latitude ⇒ distance ≥ ring·res·LAT_DEG_M (meridian bound);
    - lon-excluded cells differ by Δλ ≥ w·res with w ≥ ring·(π/2)/cos φ_max,
      and for two points at \\|lat\\| ≤ φ_max the exact identity
      cos(d/R) = cos Δφ − 2 sin²(Δλ/2) cos φ1 cos φ2 gives
      d ≥ 2R·asin(cos φ_max · sin(Δλ/2)) ≥ (2/π)·R·Δλ·cos φ_max
      (valid for ALL Δλ ≤ π — it already accounts for over-the-pole paths)
      ⇒ distance ≥ ring·res·LAT_DEG_M.
    So every point of every non-candidate cell is ≥ ring·res·LAT_DEG_M away.
    """
    cid = np.asarray(cid, np.int64).ravel()
    _nx, _ny = nx(res_deg), ny(res_deg)
    ix = cid % _nx
    iy = cid // _nx
    n = len(cid)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    q_abs = np.maximum(np.abs(iy * res_deg - 90.0), np.abs((iy + 1) * res_deg - 90.0))

    rows_lo = np.maximum(iy - ring, 0)
    rows_hi = np.minimum(iy + ring, _ny - 1)
    n_rows = rows_hi - rows_lo + 1
    src1 = np.repeat(np.arange(n), n_rows)
    start = np.concatenate([[0], np.cumsum(n_rows)[:-1]])
    row = np.arange(int(n_rows.sum())) - np.repeat(start, n_rows) + np.repeat(rows_lo, n_rows)

    r_abs = np.maximum(np.abs(row * res_deg - 90.0), np.abs((row + 1) * res_deg - 90.0))
    phi = np.minimum(np.maximum(q_abs[src1], r_abs), 90.0)
    c = np.cos(np.radians(phi))
    w = np.where(
        c > 1e-9,
        np.ceil(ring * (np.pi / 2.0) / np.maximum(c, 1e-12)),
        float(_nx),
    ).astype(np.int64)
    n_cols = np.minimum(2 * w + 1, _nx)

    tot = int(n_cols.sum())
    start2 = np.concatenate([[0], np.cumsum(n_cols)[:-1]])
    off = np.arange(tot) - np.repeat(start2, n_cols)
    col = (np.repeat(ix[src1] - w, n_cols) + off) % _nx
    return np.repeat(src1, n_cols), np.repeat(row, n_cols) * _nx + col


def ball_candidates(cell: int, ring: int, res_deg: float = DEFAULT_RES_DEG) -> np.ndarray:
    """Single-cell :func:`ball_candidates_many`: all cells that can contain a
    point within ``ring * res_deg * LAT_DEG_M`` meters of any point in
    ``cell`` (pole-safe superset, duplicate-free)."""
    _, cells = ball_candidates_many(np.array([cell], np.int64), ring, res_deg)
    return cells


def cells_covering_bbox(lon_min, lat_min, lon_max, lat_max,
                        res_deg: float = DEFAULT_RES_DEG) -> np.ndarray:
    """All cell ids intersecting a bounding box (small, driver-side helper for
    broadcasting polygon cell sets). No antimeridian split (inputs here live in
    the reference's validity window)."""
    _nx, _ny = nx(res_deg), ny(res_deg)
    ix0 = int(np.clip(np.floor((lon_min + 180.0) / res_deg), 0, _nx - 1))
    ix1 = int(np.clip(np.floor((lon_max + 180.0) / res_deg), 0, _nx - 1))
    iy0 = int(np.clip(np.floor((lat_min + 90.0) / res_deg), 0, _ny - 1))
    iy1 = int(np.clip(np.floor((lat_max + 90.0) / res_deg), 0, _ny - 1))
    xs = np.arange(ix0, ix1 + 1)
    ys = np.arange(iy0, iy1 + 1)
    gx, gy = np.meshgrid(xs, ys)
    return (gy * _nx + gx).ravel()


# ---------------------------------------------------------------------------
# Tile cutting (the logical descendant of PLImageArrayBuffer, projcl_warp.h:22-28)
# ---------------------------------------------------------------------------


def tile_index(tile_col: np.ndarray, tile_row: np.ndarray, tiles_across: int) -> np.ndarray:
    """Row-first tile id: col + row·tiles_across (pl_sample_nearest.opencl:37-39)."""
    return np.asarray(tile_col) + np.asarray(tile_row) * tiles_across


def cut_tiles(img: np.ndarray, tile_size: int):
    """Cut (H, W, C) into equal tiles of tile_size (edge tiles zero-padded to
    full size, as the reference's image arrays require equal-size tiles).

    Yields (tile_col, tile_row, tile_idx, tile_pixels).
    """
    h, w = img.shape[:2]
    tiles_across = (w + tile_size - 1) // tile_size
    tiles_down = (h + tile_size - 1) // tile_size
    for ty in range(tiles_down):
        for tx in range(tiles_across):
            tile = img[ty * tile_size : (ty + 1) * tile_size, tx * tile_size : (tx + 1) * tile_size]
            if tile.shape[0] != tile_size or tile.shape[1] != tile_size:
                pad = np.zeros((tile_size, tile_size) + img.shape[2:], dtype=img.dtype)
                pad[: tile.shape[0], : tile.shape[1]] = tile
                tile = pad
            yield tx, ty, int(tile_index(tx, ty, tiles_across)), tile
