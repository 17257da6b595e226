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

Everything is vectorized NumPy over the whole dest grid; the bilinear sampler
also has a bit-identical C twin fused with the lattice fill (fastcodec.py;
it lerps 4-channel interior pixels in SSE2), which warps uint8 images whose
map passes the lattice check; the NumPy sampler is its reference and warps
the rest.
``warp_image`` warps one image. The warp+tile stage (ops.WarpTileActor)
warps a batch: ``warp_windows`` runs one forward projection for every
image's window and ``warp_images_u8`` one inverse projection for every
image's lattice, the way the reference runs one kernel over one flat
coordinate buffer; both give the numbers of the per-image calls. Given a
tile size, ``warp_images_u8`` writes each image into a zeroed array padded
to whole tiles (the C sampler at that array's row stride), from which the
stage cuts its tiles with one reshape.
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


@lru_cache(maxsize=64)
def _lattice_index(w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-index coordinates (x, y) of the lattice nodes, row-major,
    followed by the lattice-cell centres."""
    xn, yn = _lattice_axis(w)[0], _lattice_axis(h)[0]
    xc = (xn[:-1] + xn[1:]) / 2
    yc = (yn[:-1] + yn[1:]) / 2
    nodes = np.meshgrid(xn.astype(np.float64), yn.astype(np.float64))
    cents = np.meshgrid(xc, yc)
    out = tuple(np.concatenate([n.ravel(), c.ravel()]) for n, c in zip(nodes, cents))
    for a in out:
        a.setflags(write=False)
    return out


def _lattice_points(spec: WarpSpec):
    """Float64 dest coordinates of the lattice nodes (row-major) followed by
    the lattice-cell centres: the points the exact map is evaluated at for
    the lattice check. None when the grid is too small to have cells."""
    w, h = spec.width, spec.height
    if w < 2 or h < 2:
        return None
    ix, iy = _lattice_index(w, h)
    # dest_grid's formula (identical values at the nodes)
    return (spec.origin_x + spec.size_x * ix / (w - 1),
            spec.origin_y + spec.size_y * iy / (h - 1))


def _lattice_check(px, py, w: int, h: int):
    """Split the exact map at :func:`_lattice_points` into its float64
    (ny, nx) node grids; None when their bilinear interpolation misses the
    exact map by more than LATTICE_TOL_PX (or is non-finite) at any cell
    centre."""
    nx, ny = len(_lattice_axis(w)[0]), len(_lattice_axis(h)[0])
    k = nx * ny
    nodes = []
    for v in (px, py):
        node = v[:k].reshape(ny, nx)
        mid = 0.25 * (node[:-1, :-1] + node[:-1, 1:] + node[1:, :-1] + node[1:, 1:])
        if not (np.abs(mid - v[k:].reshape(mid.shape)) <= LATTICE_TOL_PX).all():
            return None
        nodes.append(node)
    return nodes


def _lattice_fill(node: np.ndarray, w: int, h: int) -> np.ndarray:
    """Float32 map at every dest pixel from its float64 node grid, by the
    separable bilinear fill; a·(1−t) + b·t is exact at both nodes. The fused
    C sampler (fastcodec.warp_lattice_bilinear_u8) computes the same
    numbers inline."""
    _, xj, xt = _lattice_axis(w)
    _, yj, yt = _lattice_axis(h)
    rows = node[:, xj] * (1.0 - xt) + node[:, xj + 1] * xt
    full = rows[yj] * (1.0 - yt)[:, None] + rows[yj + 1] * yt[:, None]
    return full.astype(np.float32)


def _lattice_nodes(georef, spec: WarpSpec, prepped: PreparedProjection):
    """The checked lattice node grids of one image (:func:`_lattice_check`),
    or None."""
    pts = _lattice_points(spec)
    if pts is None:
        return None
    px, py = _source_pixels(*pts, georef, spec, prepped)
    return _lattice_check(px, py, spec.width, spec.height)


def _sample(img: np.ndarray, georef, spec: WarpSpec, prepped: PreparedProjection,
            nodes, u8: bool, tile: int | None = None) -> np.ndarray:
    """Sample ``img`` at the warp's source-pixel map: the lattice fill of
    ``nodes`` (see :func:`_lattice_check`) when given, else the exact map at
    every pixel. Returns float32 (Hd, Wd, C), or with ``u8`` the samples
    clipped to [0, 255] and truncated to uint8. With ``tile`` the samples
    sit in the top-left corner of a zeroed array whose height and width
    are rounded up to whole tiles. Bilinear warps of uint8 images on the
    lattice run the fill and the sampler fused in C, straight into that
    array."""
    w, h = spec.width, spec.height
    dst = None
    if tile:
        dst = np.zeros((-(-h // tile) * tile, -(-w // tile) * tile, img.shape[2]),
                       np.uint8 if u8 else np.float32)
    if nodes is not None and spec.filter == "bilinear" and img.dtype == np.uint8:
        out = fastcodec.warp_lattice_bilinear_u8(img, *nodes, w, h, u8, out=dst)
        if out is not None:
            return out
    # keep uint8 sources uint8 (gathers cast per tap — see _gather); float
    # inputs are taken as float32 (exact for uint8-derived data, half the
    # traffic of float64; the reference is float32 too)
    img32 = img if img.dtype == np.uint8 else np.asarray(img, np.float32)
    sampler = SAMPLERS[spec.filter]
    if nodes is None:
        gx, gy = dest_grid(spec.origin_x, spec.origin_y, spec.size_x, spec.size_y, w, h)
        # pixel-path precision: float32 grids halve the projection-chain
        # memory traffic (NumPy ufuncs stay in float32); coordinate error
        # ~1e-3 px is far below the half-pixel sampling granularity. Exact
        # float64 stays the rule for the point-projection API
        # (ops.project_points).
        gx = gx.astype(np.float32)
        gy = gy.astype(np.float32)
    else:
        approx = [_lattice_fill(v, w, h) for v in nodes]

    # process the dest grid in horizontal bands so the per-band temporaries
    # (projection intermediates + 16 sampler gathers) stay cache-resident —
    # under many concurrent workers the unbanded version is DRAM-bound
    band_rows = max(1, 8192 // max(w, 1))
    out = np.empty((h, w, img32.shape[2]), dtype=np.float32)
    for r0 in range(0, h, band_rows):
        r1 = min(r0 + band_rows, h)
        if nodes is None:
            px, py = _source_pixels(gx[r0:r1], gy[r0:r1], georef, spec, prepped)
        else:
            px, py = approx[0][r0:r1], approx[1][r0:r1]
        out[r0:r1] = sampler(img32, px, py)
    if u8:
        out = np.clip(out, 0, 255).astype(np.uint8)
    if dst is None:
        return out
    dst[:h, :w] = out
    return dst


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
    return _sample(img, georef, spec, prepped, _lattice_nodes(georef, spec, prepped), u8=False)


def warp_images_u8(imgs, georefs, specs, prepped: PreparedProjection,
                   tile_size: int | None = None) -> list[np.ndarray]:
    """:func:`warp_image` over a batch of images with north-up
    :class:`GeoRef` georeferences that share one destination projection,
    filter and ``dst_datum``, each clipped and truncated to
    uint8 — the numbers of warping them one by one, with one inverse
    projection over every image's lattice nodes and cell centres, one datum
    shift per distinct source datum and one affine to source pixels. The
    lattice check, and the exact path for an image that fails it, stay per
    image. With ``tile_size`` each warped image comes in the top-left
    corner of a zeroed array padded to whole tiles, the layout
    ``index.cut_tiles`` pads its edge tiles to."""
    pts = [_lattice_points(spec) for spec in specs]
    counts = np.array([0 if p is None else len(p[0]) for p in pts], np.int64)
    offs = np.concatenate([[0], np.cumsum(counts)])
    out = []
    with np.errstate(all="ignore"):
        if offs[-1]:
            lon, lat = prepped.inverse(np.concatenate([p[0] for p in pts if p is not None]),
                                       np.concatenate([p[1] for p in pts if p is not None]))
            dst = specs[0].dst_datum
            if dst:
                # the dest grids live in dst_datum; bring each to its source's
                src = np.repeat([s.src_datum or dst for s in specs], counts)
                for datum in np.unique(src):
                    if datum != dst:
                        m = src == datum
                        lon[m], lat[m] = datums.shift_datum(lon[m], lat[m], dst, datum)
            # GeoRef.to_pixels, point by point
            lon0, lat0, px_deg = (np.repeat([getattr(g, f) for g in georefs], counts)
                                  for f in ("lon0", "lat0", "px_deg"))
            px, py = (lon - lon0) / px_deg, (lat0 - lat) / px_deg
        for i, (img, georef, spec) in enumerate(zip(imgs, georefs, specs)):
            part = slice(offs[i], offs[i + 1])
            nodes = None if pts[i] is None else _lattice_check(px[part], py[part], spec.width, spec.height)
            # a NaN sample (a 1-px-wide image's 0/0 grid) casts to 0
            out.append(_sample(img, georef, spec, prepped, nodes, u8=True, tile=tile_size))
    return out


def warp_windows(prepped: PreparedProjection, lon0, lat0, px_deg, w, h,
                 pad: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`default_warp_window` for a batch of north-up georeferences
    (arrays of lon0, lat0, px_deg and image sizes): one forward projection
    over every image's 132 border points. Returns the (origin_x, origin_y,
    size_x, size_y) arrays."""
    lon0, lat0, px_deg = (np.asarray(v, np.float64).reshape(-1, 1) for v in (lon0, lat0, px_deg))
    w, h = (np.asarray(v, np.int64).reshape(-1, 1) for v in (w, h))
    # extent of the pixel centres
    lon_min, lon_max = lon0, lon0 + px_deg * (w - 1)
    lat_min, lat_max = lat0 - px_deg * (h - 1), lat0

    def linspace33(a, b):  # np.linspace(a, b, 33) row by row, bit for bit
        step = (b - a) / 32
        y = np.arange(33.0)
        y = np.where(step == 0, y / 32 * (b - a), y * step) + a
        y[:, -1:] = b
        return y

    def full33(a):
        return np.broadcast_to(a, (len(a), 33))

    edge_lon = np.concatenate([linspace33(lon_min, lon_max), linspace33(lon_min, lon_max),
                               full33(lon_min), full33(lon_max)], axis=1)
    edge_lat = np.concatenate([full33(lat_min), full33(lat_max),
                               linspace33(lat_min, lat_max), linspace33(lat_min, lat_max)], axis=1)
    ex, ey = prepped.forward(edge_lon.ravel(), edge_lat.ravel())
    ex, ey = ex.reshape(edge_lon.shape), ey.reshape(edge_lat.shape)
    x0, x1 = ex.min(axis=1), ex.max(axis=1)
    y0, y1 = ey.min(axis=1), ey.max(axis=1)
    dx, dy = (x1 - x0) * pad, (y1 - y0) * pad
    return x0 - dx, y0 - dy, (x1 - x0) + 2 * dx, (y1 - y0) + 2 * dy


def default_warp_window(prepped: PreparedProjection, georef: GeoRef, w: int, h: int,
                        pad: float = 0.0) -> tuple[float, float, float, float]:
    """Projected bounding window covering the source image's extent: forward-
    project the source border and take min/max (what a user of the reference
    computes by hand before pl_load_grid).

    Orientation note: the returned window has origin at MIN projected y with
    positive size, so warped output row 0 is the southernmost row (south-up).
    Pass a negated size_y/origin at max-y for north-up output — grid
    orientation is the caller's choice, exactly as in the reference."""
    win = warp_windows(prepped, georef.lon0, georef.lat0, georef.px_deg, w, h, pad)
    return tuple(float(v[0]) for v in win)


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
# Tiled mosaics (PLImageArrayBuffer parity: pl_load_image_array)
# ---------------------------------------------------------------------------


def mosaic_from_tiles(tiles, tile_size: int) -> np.ndarray:
    """One uint8 (H, W, C) image from ``(col, row, pixels)`` tiles of
    a row-first tile grid (pl_sample_nearest.opencl:37-39): it covers the
    tiles' full extent, not cropped to the source image's size, and a
    missing tile reads 0. The ordinary :data:`SAMPLERS` then read it exactly
    as the reference's array kernels read a PLImageArrayBuffer
    (projcl_warp.h:22-28, 49-53), whose per-tile gather exists only because
    a GPU caps one image's size."""
    tiles = list(tiles)
    cols = max(c for c, _, _ in tiles) + 1
    rows = max(r for _, r, _ in tiles) + 1
    out = np.zeros((rows * tile_size, cols * tile_size) + tiles[0][2].shape[2:], np.uint8)
    for c, r, px in tiles:
        out[r * tile_size:(r + 1) * tile_size, c * tile_size:(c + 1) * tile_size] = px
    return out
