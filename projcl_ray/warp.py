"""Inverse-mapped image warping: dest pixel grid → geographic → source pixels →
sample with one of four filters.

Reference semantics (`include/projcl/projcl_warp.h:30-82`, `src/projcl_warp.c`,
`kernel/pl_sample_*.opencl`):
- dest grid generated from origin+extent with INCLUSIVE endpoints:
  ``coord = origin + size * index/(count-1)`` (kernel pl_load_grid,
  pl_warp.opencl:4-17);
- 2D affine on grids: ``x' = sx·x + tx`` (pl_cartesian_apply_affine_transform_2d);
- sampling conventions preserved exactly:
  * nearest:   texel at floor(coord+0.5) — round-half-up; outside → border 0
    (CLK_ADDRESS_CLAMP), pl_sample_nearest.opencl:2-45
  * bilinear:  4-tap lerp between floor(x) and floor(x)+1; outside → border 0,
    pl_sample_linear.opencl (the explicit array variant is the spec)
  * bicubic:   16-tap Catmull-Rom on floor−1..+2, indices clamped to edge
    (CLK_ADDRESS_CLAMP_TO_EDGE), result clamped [0,255],
    pl_sample_bicubic.opencl:2-118
  * quasi_bicubic: 12-tap hybrid — linear on outer rows, cubic on inner,
    pl_sample_quasi_bicubic.opencl:1-50
- dest write is out[i, j] = sample(grid[i, j]) (grid row-major = image rows).

Everything is vectorized NumPy over the whole dest grid (the bilinear sampler
also has a bit-identical C twin, fastcodec.py); these functions are the
per-image kernel bodies used inside ``map_batches`` actor stages (ops.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from functools import lru_cache

from .proj import PreparedProjection, ProjParams, prepare
from . import datums, fastcodec


@lru_cache(maxsize=256)
def _prepare_cached(name: str, params: ProjParams) -> PreparedProjection:
    return prepare(name, params)


def dest_grid(origin_x: float, origin_y: float, size_x: float, size_y: float,
              width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Dest-pixel coordinate grid, inclusive endpoints (pl_load_grid)."""
    xs = origin_x + size_x * np.arange(width, dtype=np.float64) / (width - 1)
    ys = origin_y + size_y * np.arange(height, dtype=np.float64) / (height - 1)
    return np.meshgrid(xs, ys)


# ---------------------------------------------------------------------------
# Samplers. img is (H, W, C) float64/float32; px/py are arrays of source pixel
# coordinates (x = column, y = row). Returns sampled array (*px.shape, C).
# ---------------------------------------------------------------------------


def _gather(img: np.ndarray, ix: np.ndarray, iy: np.ndarray, border_zero: bool):
    """Integer-index gather with CLAMP (border=0) or CLAMP_TO_EDGE semantics.

    Integer-typed sources (uint8) are gathered as-is and cast AFTER the random
    access — the hot randomly-accessed array stays 4× smaller than float32,
    which is what keeps 32 concurrent workers cache-resident instead of
    DRAM-bound."""
    h, w = img.shape[:2]
    out = img[np.clip(iy, 0, h - 1), np.clip(ix, 0, w - 1)]
    if out.dtype == np.uint8:
        out = out.astype(np.float32)
    if border_zero:
        inside = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        out = np.where(inside[..., None], out, 0.0)
    return out


def sample_nearest(img: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    ix = np.floor(px + 0.5).astype(np.int64)
    iy = np.floor(py + 0.5).astype(np.int64)
    return _gather(img, ix, iy, border_zero=True)


def sample_bilinear(img: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    if (img.dtype == np.uint8 and img.ndim == 3 and px.dtype == np.float32
            and py.dtype == np.float32 and px.shape == py.shape):
        out = fastcodec.warp_bilinear_u8(img, px, py)  # bit-identical C twin
        if out is not None:
            return out
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    # fractional weights in the image dtype: float32 pixels must not be
    # upcast to float64 by the weights (doubles memory traffic in the gathers)
    wdt = np.float64 if img.dtype == np.dtype(np.float64) else np.float32
    fx = (px - x0)[..., None].astype(wdt)
    fy = (py - y0)[..., None].astype(wdt)
    p00 = _gather(img, x0, y0, True)
    p01 = _gather(img, x0 + 1, y0, True)
    p10 = _gather(img, x0, y0 + 1, True)
    p11 = _gather(img, x0 + 1, y0 + 1, True)
    top = p00 + (p01 - p00) * fx
    bot = p10 + (p11 - p10) * fx
    return top + (bot - top) * fy


def _cubic4(X, A, B, C, D):
    """Catmull-Rom (pl_interpolate_cubic4, peel.opencl:59-61)."""
    return B + 0.5 * X * (C - A + X * (2.0 * A - 5.0 * B + 4.0 * C - D + X * (3.0 * (B - C) + D - A)))


def sample_bicubic(img: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    xB = np.floor(px).astype(np.int64)
    yB = np.floor(py).astype(np.int64)
    wdt = np.float64 if img.dtype == np.dtype(np.float64) else np.float32
    fx = (px - xB)[..., None].astype(wdt)
    fy = (py - yB)[..., None].astype(wdt)
    rows = []
    for dy in (-1, 0, 1, 2):
        taps = [_gather(img, xB + dx, yB + dy, False) for dx in (-1, 0, 1, 2)]
        rows.append(_cubic4(fx, *taps))
    out = _cubic4(fy, *rows)
    return np.clip(out, 0.0, 255.0)


def sample_quasi_bicubic(img: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    xB = np.floor(px).astype(np.int64)
    yB = np.floor(py).astype(np.int64)
    wdt = np.float64 if img.dtype == np.dtype(np.float64) else np.float32
    fx = (px - xB)[..., None].astype(wdt)
    fy = (py - yB)[..., None].astype(wdt)
    # outer rows A/D: linear mix of the two center columns
    rowA = (1 - fx) * _gather(img, xB, yB - 1, False) + fx * _gather(img, xB + 1, yB - 1, False)
    rowD = (1 - fx) * _gather(img, xB, yB + 2, False) + fx * _gather(img, xB + 1, yB + 2, False)
    rowB = _cubic4(fx, *[_gather(img, xB + dx, yB, False) for dx in (-1, 0, 1, 2)])
    rowC = _cubic4(fx, *[_gather(img, xB + dx, yB + 1, False) for dx in (-1, 0, 1, 2)])
    out = _cubic4(fy, rowA, rowB, rowC, rowD)
    return np.clip(out, 0.0, 255.0)


SAMPLERS = {
    "nearest": sample_nearest,
    "bilinear": sample_bilinear,
    "bicubic": sample_bicubic,
    "quasi_bicubic": sample_quasi_bicubic,
}


# ---------------------------------------------------------------------------
# Georeferencing + the fused warp
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeoRef:
    """North-up affine georeference of a raster in geographic coordinates:
    pixel (col,row) center ↦ (lon0 + px_deg·col, lat0 − px_deg·row)."""

    lon0: float
    lat0: float
    px_deg: float

    def to_pixels(self, lon: np.ndarray, lat: np.ndarray):
        return (lon - self.lon0) / self.px_deg, (self.lat0 - lat) / self.px_deg

    def extent(self, w: int, h: int) -> tuple[float, float, float, float]:
        """(lon_min, lon_max, lat_min, lat_max) of pixel centers."""
        return (
            self.lon0,
            self.lon0 + self.px_deg * (w - 1),
            self.lat0 - self.px_deg * (h - 1),
            self.lat0,
        )


@dataclass(frozen=True)
class ProjectedGeoRef:
    """Georeference of a raster stored IN a projection: pixel (col,row) center
    ↦ projected coords (x0p + px_m·col, y0p − px_m·row). This is the
    reference's full 8-step source case (projcl_warp.h:30-82): dest grid →
    inverse-project → geographic → FORWARD-project into the source projection
    → affine to source pixels (pl_project_grid_forward + pl_transform_grid)."""

    proj_name: str
    params: ProjParams
    x0p: float  # projected coords of pixel (0,0) center
    y0p: float
    px_m: float  # projected units per pixel

    def prepared(self) -> PreparedProjection:
        return _prepare_cached(self.proj_name, self.params)

    def to_pixels(self, lon: np.ndarray, lat: np.ndarray, prepped=None):
        if prepped is None:
            prepped = self.prepared()
        with np.errstate(all="ignore"):
            sx, sy = prepped.forward(lon, lat)
        return (sx - self.x0p) / self.px_m, (self.y0p - sy) / self.px_m


@dataclass(frozen=True)
class WarpSpec:
    """Destination of a warp: projection + projected-coords window + size."""

    proj_name: str
    params: ProjParams
    origin_x: float
    origin_y: float
    size_x: float
    size_y: float
    width: int
    height: int
    filter: str = "bilinear"
    src_datum: str | None = None  # optional datum shift between inverse & fwd
    dst_datum: str | None = None

    def prepared(self) -> PreparedProjection:
        return prepare(self.proj_name, self.params)


# The approximate transformer (GDALCreateApproxTransformer; gdalwarp's
# ``-et 0.125`` default): the dest → source-pixel map is evaluated exactly
# on a lattice of every LATTICE_STEP-th row and column (plus the last) and
# interpolated bilinearly in between; an image whose map misses the exact
# one by more than LATTICE_TOL_PX at any lattice-cell centre is warped
# exactly instead.
LATTICE_STEP = 8
LATTICE_TOL_PX = 0.125


@lru_cache(maxsize=64)
def _lattice_axis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice node indices along an n-px axis (every LATTICE_STEP-th and the
    last), and for every pixel its lattice cell j and position t ∈ [0, 1]
    between nodes j and j+1."""
    nodes = np.unique(np.r_[np.arange(0, n, LATTICE_STEP), n - 1])
    idx = np.arange(n)
    j = np.minimum(idx // LATTICE_STEP, len(nodes) - 2)
    t = (idx - nodes[j]) / (nodes[j + 1] - nodes[j])
    for a in (nodes, j, t):
        a.setflags(write=False)
    return nodes, j, t


def _source_pixels(gx, gy, georef, spec: WarpSpec, prepped: PreparedProjection):
    """The exact dest → source-pixel map: inverse-project → geographic →
    [datum shift] → source pixel coords (affine)."""
    lon, lat = prepped.inverse(gx, gy)
    if spec.dst_datum and spec.src_datum and spec.dst_datum != spec.src_datum:
        # the dest grid lives in dst_datum; bring it to the source's datum
        lon, lat = datums.shift_datum(lon, lat, spec.dst_datum, spec.src_datum)
    return georef.to_pixels(lon, lat)


def _lattice_pixels(georef, spec: WarpSpec, prepped: PreparedProjection):
    """Float32 source-pixel coordinates of every dest pixel, interpolated from
    the exact float64 map on the lattice; None when the lattice misses the
    exact map by more than LATTICE_TOL_PX (or is non-finite) at any cell
    centre, or the grid is too small to have cells."""
    w, h = spec.width, spec.height
    if w < 2 or h < 2:
        return None
    xn, xj, xt = _lattice_axis(w)
    yn, yj, yt = _lattice_axis(h)
    xc = (xn[:-1] + xn[1:]) / 2  # cell centres, in pixel index space
    yc = (yn[:-1] + yn[1:]) / 2
    # dest coords by dest_grid's formula (identical values at the nodes);
    # nodes and centres go through the exact map in one call
    gx = [spec.origin_x + spec.size_x * i / (w - 1) for i in (xn, xc)]
    gy = [spec.origin_y + spec.size_y * i / (h - 1) for i in (yn, yc)]
    nodes = np.meshgrid(gx[0], gy[0])
    cents = np.meshgrid(gx[1], gy[1])
    px, py = _source_pixels(np.concatenate([nodes[0].ravel(), cents[0].ravel()]),
                            np.concatenate([nodes[1].ravel(), cents[1].ravel()]),
                            georef, spec, prepped)
    k = len(xn) * len(yn)
    out = []
    for v in (px, py):
        node = v[:k].reshape(len(yn), len(xn))
        mid = 0.25 * (node[:-1, :-1] + node[:-1, 1:] + node[1:, :-1] + node[1:, 1:])
        if not (np.abs(mid - v[k:].reshape(mid.shape)) <= LATTICE_TOL_PX).all():
            return None
        # separable bilinear fill; a·(1−t) + b·t is exact at both nodes
        rows = node[:, xj] * (1.0 - xt) + node[:, xj + 1] * xt
        full = rows[yj] * (1.0 - yt)[:, None] + rows[yj + 1] * yt[:, None]
        out.append(full.astype(np.float32))
    return out


def warp_image(img: np.ndarray, georef: GeoRef, spec: WarpSpec,
               prepped: PreparedProjection | None = None) -> np.ndarray:
    """The reference's 8-step warp recipe (projcl_warp.h:30-82) fused:

    dest grid (projected) → inverse-project → geographic → [datum shift] →
    source pixel coords (affine) → sample.  Returns float array (Hd, Wd, C).

    The source-pixel map comes from the lattice approximation when it holds
    to LATTICE_TOL_PX, else from the exact map at every pixel.
    """
    if prepped is None:
        prepped = spec.prepared()
    # keep uint8 sources uint8 (gathers cast per tap — see _gather); float
    # inputs are taken as float32 (exact for uint8-derived data, half the
    # traffic of float64; the reference is float32 too)
    img32 = img if img.dtype == np.uint8 else np.asarray(img, np.float32)
    sampler = SAMPLERS[spec.filter]
    approx = _lattice_pixels(georef, spec, prepped)
    if approx is None:
        gx, gy = dest_grid(spec.origin_x, spec.origin_y, spec.size_x, spec.size_y,
                           spec.width, spec.height)
        # pixel-path precision: float32 grids halve the projection-chain
        # memory traffic (NumPy ufuncs stay in float32); coordinate error
        # ~1e-3 px is far below the half-pixel sampling granularity. Exact
        # float64 stays the rule for the point-projection API
        # (ops.project_points).
        gx = gx.astype(np.float32)
        gy = gy.astype(np.float32)

    # process the dest grid in horizontal bands so the per-band temporaries
    # (projection intermediates + 16 sampler gathers) stay cache-resident —
    # under many concurrent workers the unbanded version is DRAM-bound
    band_rows = max(1, 8192 // max(spec.width, 1))
    out = np.empty((spec.height, spec.width, img32.shape[2]), dtype=np.float32)
    for r0 in range(0, spec.height, band_rows):
        r1 = min(r0 + band_rows, spec.height)
        if approx is None:
            px, py = _source_pixels(gx[r0:r1], gy[r0:r1], georef, spec, prepped)
        else:
            px, py = approx[0][r0:r1], approx[1][r0:r1]
        out[r0:r1] = sampler(img32, px, py)
    return out


def default_warp_window(prepped: PreparedProjection, georef: GeoRef, w: int, h: int,
                        pad: float = 0.0) -> tuple[float, float, float, float]:
    """Projected bounding window covering the source image's extent: forward-
    project the source border and take min/max (what a user of the reference
    computes by hand before pl_load_grid).

    Orientation note: the returned window has origin at MIN projected y with
    positive size, so warped output row 0 is the southernmost row (south-up).
    Pass a negated size_y/origin at max-y for north-up output — grid
    orientation is the caller's choice, exactly as in the reference."""
    lon_min, lon_max, lat_min, lat_max = georef.extent(w, h)
    edge_lon = np.concatenate(
        [
            np.linspace(lon_min, lon_max, 33),
            np.linspace(lon_min, lon_max, 33),
            np.full(33, lon_min),
            np.full(33, lon_max),
        ]
    )
    edge_lat = np.concatenate(
        [
            np.full(33, lat_min),
            np.full(33, lat_max),
            np.linspace(lat_min, lat_max, 33),
            np.linspace(lat_min, lat_max, 33),
        ]
    )
    ex, ey = prepped.forward(edge_lon, edge_lat)
    x0, x1 = float(ex.min()), float(ex.max())
    y0, y1 = float(ey.min()), float(ey.max())
    dx, dy = (x1 - x0) * pad, (y1 - y0) * pad
    return x0 - dx, y0 - dy, (x1 - x0) + 2 * dx, (y1 - y0) + 2 * dy


# ---------------------------------------------------------------------------
# Grid ops (standalone parity with the reference's grid API)
# ---------------------------------------------------------------------------


def transform_grid(gx: np.ndarray, gy: np.ndarray, sx: float, shear_xy: float, tx: float,
                   shear_yx: float, sy: float, ty: float):
    """2D affine on a coordinate grid: x' = sx·x + shear_xy·y + tx (and
    symmetrically for y) — pl_transform_grid / kernel
    pl_cartesian_apply_affine_transform_2d (pl_warp.opencl:19-31)."""
    return sx * gx + shear_xy * gy + tx, shear_yx * gx + sy * gy + ty


def project_grid(prepped: PreparedProjection, gx: np.ndarray, gy: np.ndarray,
                 inverse: bool = False):
    """Run a projection over a grid buffer (pl_project_grid_forward/reverse,
    src/projcl_warp.c:278-313) — same kernels, grid-shaped input."""
    fn = prepped.inverse if inverse else prepped.forward
    with np.errstate(all="ignore"):
        return fn(gx, gy)


# ---------------------------------------------------------------------------
# Tiled mosaic sampling (PLImageArrayBuffer parity: pl_sample_image_array_*)
# ---------------------------------------------------------------------------


class TiledMosaic:
    """A mosaic stored as equal-size tiles, row-first indexed
    (tile = col + row·tiles_across, pl_sample_nearest.opencl:37-39) — the
    logical descendant of PLImageArrayBuffer (projcl_warp.h:22-28,49-53).

    ``tiles`` is a (tiles_down, tiles_across, th, tw, C) array (or a dict
    {(col,row): tile} assembled via :meth:`from_tiles`).
    """

    def __init__(self, tiles: np.ndarray):
        self.tiles = tiles
        self.tiles_down, self.tiles_across, self.th, self.tw = tiles.shape[:4]

    @classmethod
    def from_tiles(cls, tile_map: dict, tile_size: int, channels: int = 4,
                   dtype=np.float32) -> "TiledMosaic":
        cols = max(c for c, r in tile_map) + 1
        rows = max(r for c, r in tile_map) + 1
        arr = np.zeros((rows, cols, tile_size, tile_size, channels), dtype=dtype)
        for (c, r), tile in tile_map.items():
            arr[r, c] = tile
        return cls(arr)

    def gather(self, ix: np.ndarray, iy: np.ndarray, border_zero: bool) -> np.ndarray:
        """Per-pixel tile-index arithmetic exactly as the array kernels do:
        tile = (coord // tile_dim), local = coord − tile·tile_dim."""
        W = self.tw * self.tiles_across
        H = self.th * self.tiles_down
        ixc = np.clip(ix, 0, W - 1)
        iyc = np.clip(iy, 0, H - 1)
        tc, lx = ixc // self.tw, ixc % self.tw
        tr, ly = iyc // self.th, iyc % self.th
        out = self.tiles[tr, tc, ly, lx]
        if border_zero:
            inside = (ix >= 0) & (ix < W) & (iy >= 0) & (iy < H)
            out = np.where(inside[..., None], out, 0.0)
        return out


def _mosaic_sampler(filter_name: str):
    def sample(mosaic: TiledMosaic, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        g_zero = lambda ix, iy: mosaic.gather(ix, iy, True)
        g_edge = lambda ix, iy: mosaic.gather(ix, iy, False)
        if filter_name == "nearest":
            return g_zero(np.floor(px + 0.5).astype(np.int64), np.floor(py + 0.5).astype(np.int64))
        x0 = np.floor(px).astype(np.int64)
        y0 = np.floor(py).astype(np.int64)
        fx = (px - x0)[..., None].astype(mosaic.tiles.dtype)
        fy = (py - y0)[..., None].astype(mosaic.tiles.dtype)
        if filter_name == "bilinear":
            p00, p01 = g_zero(x0, y0), g_zero(x0 + 1, y0)
            p10, p11 = g_zero(x0, y0 + 1), g_zero(x0 + 1, y0 + 1)
            top = p00 + (p01 - p00) * fx
            bot = p10 + (p11 - p10) * fx
            return top + (bot - top) * fy
        if filter_name == "bicubic":
            rows = [
                _cubic4(fx, *[g_edge(x0 + dx, y0 + dy) for dx in (-1, 0, 1, 2)])
                for dy in (-1, 0, 1, 2)
            ]
            return np.clip(_cubic4(fy, *rows), 0.0, 255.0)
        if filter_name == "quasi_bicubic":
            rowA = (1 - fx) * g_edge(x0, y0 - 1) + fx * g_edge(x0 + 1, y0 - 1)
            rowD = (1 - fx) * g_edge(x0, y0 + 2) + fx * g_edge(x0 + 1, y0 + 2)
            rowB = _cubic4(fx, *[g_edge(x0 + dx, y0) for dx in (-1, 0, 1, 2)])
            rowC = _cubic4(fx, *[g_edge(x0 + dx, y0 + 1) for dx in (-1, 0, 1, 2)])
            return np.clip(_cubic4(fy, rowA, rowB, rowC, rowD), 0.0, 255.0)
        raise KeyError(filter_name)

    return sample


MOSAIC_SAMPLERS = {name: _mosaic_sampler(name) for name in SAMPLERS}
