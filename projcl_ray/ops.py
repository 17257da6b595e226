"""Ray Data stage builders: every ProjCL capability (and the north-rule
spatial-join/tiling additions) expressed as a transform over a
``ray.data.Dataset``.

Design rules (SURVEY §1.3/§7):
- per-record math = stateless ``map_columns``: the UDF reads the columns it
  needs as NumPy (zero-copy for primitive columns) and returns only the
  columns it adds or replaces; every other column stays the Arrow array it
  was. A ``batch_format="numpy"`` stage returns a dict that Ray converts back
  to Arrow, inferring each column's type with ``pa.infer_type``, which walks
  an int64 column element by element. Params are frozen in closures (the
  host-precompute step of the reference, done once at build time);
- fan-out stages return an Arrow table too (``take`` of the input rows plus
  the new columns), never a NumPy dict;
- image/join stages default to stateless tasks with a per-worker-process
  state cache (see _cached below); explicit actor pools via ``use_actors=True``
  when per-worker setup is genuinely expensive;
- small lookup sides (polygon layers, query matrices) broadcast once via
  ``ray.put`` and fetched zero-copy per worker — never re-shipped per batch;
- wide ops keyed on ``cell_id`` with optional salting for hot cells.

No function here calls ``ray.init()``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa

import ray
import ray.data

from . import datums as datums_mod
from . import index as index_mod
from . import spatial as spatial_mod
from .geodesic import (
    SPHERE_RADIUS,
    forward_sphere,
    haversine,
    karney_inverse,
    vincenty_direct,
    vincenty_inverse,
)
from .images import decode_image, encode_image, phash64
from .proj import ProjParams, prepare
from .warp import GeoRef, WarpSpec, warp_image

# ---------------------------------------------------------------------------
# Worker-process state cache.
#
# Two execution modes for stateful stages:
# - stateless TASKS + this per-process cache (default): state is built (or
#   ray.get-fetched, zero-copy from the local object store) once per worker
#   process and reused across all tasks/stages. Ray's shared worker pool warms
#   once per session, so repeated pipelines pay no pool-spawn cost.
# - ACTOR pools (use_actors=True): a dedicated pool per stage execution. Worth
#   it when per-actor setup is genuinely expensive (real image codecs, model
#   weights) or needs isolation; costs ~seconds of pool spawn per execution.
# ---------------------------------------------------------------------------

_STATE_CACHE: dict = {}


def _cached(key, builder):
    got = _STATE_CACHE.get(key)
    if got is None:
        got = _STATE_CACHE[key] = builder()
    return got


def part_on_key(col: str, n_parts: int, out: str = "part"):
    """map_batches fn appending a hash-partition column over ``col`` — the
    ONE partitioner shared by every co-partition shuffle (Knuth
    multiplicative spread of ``hash_key_u64`` so consecutive integer ids
    don't land in consecutive parts). Keep it single-sourced: stages that
    must co-partition (e.g. the components label join) silently stop
    aligning if two copies ever diverge."""
    def _p(batch: pa.Table) -> pa.Table:
        p = (hash_key_u64(np.asarray(batch[col])) * np.uint64(2654435761)) \
            % np.uint64(n_parts)
        return batch.append_column(out, pa.array(p.astype(np.int64)))

    return _p


def hash_key_u64(arr) -> np.ndarray:
    """Dtype-agnostic, process-stable 64-bit key hash for partitioning and
    sampling. Integer keys pass through UNCHANGED (so integer-key behavior is
    reproducible in SQL); strings/UUIDs/other dtypes hash via
    ``pandas.util.hash_array`` (fixed-key siphash, deterministic across
    processes and runs)."""
    a = np.asarray(arr)
    if np.issubdtype(a.dtype, np.integer):
        return a.astype(np.uint64)
    import pandas as pd

    if not isinstance(a, np.ndarray) or a.dtype.kind not in "OUSV":
        a = np.asarray(a, dtype=object)
    return pd.util.hash_array(a, categorize=False).astype(np.uint64)


def _adaptive_parts(n_rows: int, rows_per_part: int = 200_000,
                    minimum: int = 64, maximum: int = 1 << 16) -> int:
    """Bounded-group shuffle sizing: one part ≈ ``rows_per_part`` rows, so
    per-part worker memory stays constant as the corpus grows (the fixed
    n_parts=256 pattern grew per-part memory linearly with corpus size)."""
    return int(min(maximum, max(minimum, -(-int(n_rows) // rows_per_part))))


class _NumpyColumns(dict):
    """Batch columns as NumPy arrays, each converted on first use."""

    def __init__(self, table: pa.Table):
        super().__init__()
        self._table = table

    def __missing__(self, name: str) -> np.ndarray:
        got = self[name] = self._table.column(name).to_numpy(zero_copy_only=False)
        return got


def map_columns(ds: ray.data.Dataset, fn, *, batch_size: int | None) -> ray.data.Dataset:
    """Row-preserving per-record stage over Arrow batches.

    ``fn(cols)`` reads input columns from ``cols[name]`` as NumPy arrays and
    returns a dict of only the columns it adds or replaces. A replaced column
    keeps its position, a new one is appended in ``fn``'s order, and every
    other column passes through as the Arrow array it already was, so Ray
    never infers a type for it. The stage carries ``fn``'s name, so
    ``ds.stats()`` reads ``MapBatches(<fn>)``."""

    def stage(batch: pa.Table) -> pa.Table:
        for name, values in fn(_NumpyColumns(batch)).items():
            arr = pa.array(values)
            i = batch.schema.get_field_index(name)
            batch = batch.set_column(i, name, arr) if i >= 0 else batch.append_column(name, arr)
        return batch

    stage.__name__ = stage.__qualname__ = fn.__name__
    return ds.map_batches(stage, batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------
# Projections & datum shifts (stateless vectorized stages)
# ---------------------------------------------------------------------------


def project_points(
    ds: ray.data.Dataset,
    proj_name: str,
    params: ProjParams | None = None,
    *,
    lon_col: str = "lon",
    lat_col: str = "lat",
    x_col: str = "x",
    y_col: str = "y",
    inverse: bool = False,
    batch_size: int | None = 128 * 1024,
    **param_kw,
) -> ray.data.Dataset:
    """Forward (or inverse) map projection as a stateless vectorized stage —
    the Ray shape of pl_project_points_forward/reverse (SURVEY §3.1)."""
    prepped = prepare(proj_name, params, **param_kw)  # build-time precompute
    fn = prepped.inverse if inverse else prepped.forward
    in_a, in_b = (x_col, y_col) if inverse else (lon_col, lat_col)
    out_a, out_b = (lon_col, lat_col) if inverse else (x_col, y_col)

    def _project(cols: dict) -> dict:
        with np.errstate(all="ignore"):
            a, b = fn(cols[in_a], cols[in_b])
        return {out_a: a, out_b: b}

    return map_columns(ds, _project, batch_size=batch_size)


def shift_datum(
    ds: ray.data.Dataset,
    src_datum: str,
    dst_datum: str,
    *,
    lon_col: str = "lon",
    lat_col: str = "lat",
    out_lon: str | None = None,
    out_lat: str | None = None,
    batch_size: int | None = 128 * 1024,
) -> ray.data.Dataset:
    """Fused 3-stage Helmert shift (matrix pre-concatenated at build time —
    the reference's 1-matmul-per-point trick, projcl_run.c:823-885)."""
    out_lon = out_lon or lon_col
    out_lat = out_lat or lat_col

    def _shift(cols: dict) -> dict:
        lo, la = datums_mod.shift_datum(cols[lon_col], cols[lat_col], src_datum, dst_datum)
        return {out_lon: lo, out_lat: la}

    return map_columns(ds, _shift, batch_size=batch_size)


# ---------------------------------------------------------------------------
# Geodesic stages
# ---------------------------------------------------------------------------


def geodesic_distance(
    ds: ray.data.Dataset,
    *,
    lon1="lon1",
    lat1="lat1",
    lon2="lon2",
    lat2="lat2",
    out="distance_m",
    method: str = "haversine",
    spheroid: str = "WGS_84",
    radius: float = SPHERE_RADIUS,
    batch_size: int | None = 128 * 1024,
) -> ray.data.Dataset:
    """Row-wise inverse geodesic (pl_inverse_geodesic_s semantics for
    'haversine'; ellipsoidal 'vincenty' (Karney rescue on the antipodal
    subset) or pure 'karney' otherwise, incl. azimuth columns)."""

    def _hav(cols: dict) -> dict:
        return {out: haversine(cols[lon1], cols[lat1], cols[lon2], cols[lat2], radius)}

    def _ell(cols: dict) -> dict:
        solver = karney_inverse if method == "karney" else vincenty_inverse
        d, a12, a21 = solver(cols[lon1], cols[lat1], cols[lon2], cols[lat2], spheroid)
        return {out: d, "azi1_deg": a12, "azi2_deg": a21}

    fn = _hav if method == "haversine" else _ell
    return map_columns(ds, fn, batch_size=batch_size)


def forward_geodesic(
    ds: ray.data.Dataset,
    azimuths_deg: Iterable[float],
    distance_m: float,
    *,
    lon_col="lon",
    lat_col="lat",
    method: str = "sphere",
    spheroid: str = "WGS_84",
    radius: float = SPHERE_RADIUS,
    batch_size: int | None = 32 * 1024,
) -> ray.data.Dataset:
    """“Blast radius” fan-out: each input point × each azimuth → destination
    point rows (the reference's fixed-distance cross product,
    src/projcl_run.c:694-745, as a controlled flat-map)."""
    az = np.asarray(list(azimuths_deg), np.float64)

    def _fan(batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch[lon_col], np.float64)
        lat = np.asarray(batch[lat_col], np.float64)
        n, m = len(lon), len(az)
        if method == "sphere":
            lon2, lat2 = forward_sphere(lon[:, None], lat[:, None], az[None, :], distance_m, radius)
        elif method == "karney":
            from .geodesic import karney_direct

            lon2, lat2, _ = karney_direct(lon[:, None], lat[:, None], az[None, :], distance_m, spheroid)
        else:
            lon2, lat2, _ = vincenty_direct(lon[:, None], lat[:, None], az[None, :], distance_m, spheroid)
        out = batch.take(pa.array(np.repeat(np.arange(n), m)))
        out = out.append_column("azimuth_deg", pa.array(np.tile(az, n)))
        out = out.append_column("lon2", pa.array(lon2.ravel()))
        return out.append_column("lat2", pa.array(lat2.ravel()))

    return ds.map_batches(_fan, batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------
# Cell assignment, salting
# ---------------------------------------------------------------------------


def assign_cells(
    ds: ray.data.Dataset,
    *,
    lon_col="lon",
    lat_col="lat",
    out="cell_id",
    res_deg: float = index_mod.DEFAULT_RES_DEG,
    batch_size: int | None = 128 * 1024,
) -> ray.data.Dataset:
    def _cells(cols: dict) -> dict:
        return {out: index_mod.cell_id(cols[lon_col], cols[lat_col], res_deg)}

    return map_columns(ds, _cells, batch_size=batch_size)


def salt_hot_keys(
    ds: ray.data.Dataset,
    key_col: str,
    hot_keys: dict[int, int],
    *,
    hash_col: str,
    out: str = "salted_key",
    batch_size: int | None = 128 * 1024,
) -> ray.data.Dataset:
    """Skew mitigation: append ``key*K + (hash % fanout)`` for keys listed in
    ``hot_keys`` (key → fanout), identity salt otherwise. ``hot_keys`` comes
    from a cheap count pre-pass; it is tiny and closure-captured."""
    max_fanout = max(hot_keys.values(), default=1)

    def _salt(cols: dict) -> dict:
        keys = np.asarray(cols[key_col], np.int64)
        hashes = cols[hash_col]
        fanouts = np.ones(len(keys), np.int64)
        for k, f in hot_keys.items():
            fanouts[keys == k] = f
        return {out: keys * max_fanout + (hashes % fanouts)}

    return map_columns(ds, _salt, batch_size=batch_size)


# ---------------------------------------------------------------------------
# Image warp + tile actor stage
# ---------------------------------------------------------------------------


class WarpTileActor:
    """Actor-pool stage: decode → warp to the target projection → cut tiles →
    emit one row per tile.

    State built once per actor (__init__ = pl_context_init + pl_compile_code +
    param precompute): the prepared projection and the warp policy. Batches
    should be small (images are wide rows).

    Output schema: image_id, caption, cell_id, tile_col, tile_row, tile_idx,
    tile_size, bytes (raw RGBA), w, h, fmt, center_lon, center_lat.
    """

    def __init__(self, proj_name: str, params: ProjParams, *, tile_size: int = 64,
                 dst_px: float | None = None, filter: str = "bilinear",
                 dst_datum: str | None = None,
                 res_deg: float = index_mod.DEFAULT_RES_DEG):
        self.prepped = prepare(proj_name, params)
        self.proj_name = proj_name
        self.params = params
        self.tile_size = tile_size
        self.filter = filter
        self.dst_datum = dst_datum
        self.res_deg = res_deg

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .warp import default_warp_window

        cols = {name: batch[name].to_pylist() for name in
                ("bytes", "w", "h", "fmt", "lon0", "lat0", "px_deg", "src_datum")}
        # per image: tile (col, row, idx) triples, cells, centres, encoded tiles
        n_tiles, grid, cids, clons, clats, blobs = [], [], [], [], [], []
        for i in range(batch.num_rows):
            img = decode_image(cols["bytes"][i], cols["w"][i], cols["h"][i], cols["fmt"][i])
            georef = GeoRef(cols["lon0"][i], cols["lat0"][i], cols["px_deg"][i])
            ox, oy, sx, sy = default_warp_window(self.prepped, georef, cols["w"][i], cols["h"][i])
            spec = WarpSpec(
                self.proj_name, self.params, ox, oy, sx, sy,
                cols["w"][i], cols["h"][i], filter=self.filter,
                src_datum=cols["src_datum"][i], dst_datum=self.dst_datum,
            )
            with np.errstate(all="ignore"):
                warped = warp_image(img, georef, spec, self.prepped)
            warped8 = np.clip(warped, 0, 255).astype(np.uint8)
            tiles = list(index_mod.cut_tiles(warped8, self.tile_size))
            tcr = np.array([t[:3] for t in tiles], np.int32).reshape(-1, 3)
            # geographic center of every tile in ONE inverse call per image
            cx = ox + sx * np.minimum((tcr[:, 0] + 0.5) * self.tile_size / max(spec.width - 1, 1), 1.0)
            cy = oy + sy * np.minimum((tcr[:, 1] + 0.5) * self.tile_size / max(spec.height - 1, 1), 1.0)
            with np.errstate(all="ignore"):
                clon, clat = self.prepped.inverse(cx, cy)
            n_tiles.append(len(tiles))
            grid.append(tcr)
            cids.append(index_mod.cell_id(clon, clat, self.res_deg))
            clons.append(clon)
            clats.append(clat)
            blobs += [encode_image(t[3]) for t in tiles]
        src_row = np.repeat(np.arange(batch.num_rows), n_tiles)
        grid = np.concatenate(grid) if grid else np.empty((0, 3), np.int32)
        n = len(src_row)
        return pa.table(
            {
                "image_id": batch["image_id"].take(src_row).cast(pa.string()),
                "caption": batch["caption"].take(src_row).cast(pa.string()),
                "cell_id": pa.array(np.concatenate(cids) if cids else [], pa.int64()),
                "tile_col": pa.array(grid[:, 0], pa.int32()),
                "tile_row": pa.array(grid[:, 1], pa.int32()),
                "tile_idx": pa.array(grid[:, 2], pa.int32()),
                "tile_size": pa.array(np.full(n, self.tile_size, np.int32), pa.int32()),
                "bytes": pa.array(blobs, pa.binary()),
                # cut_tiles zero-pads edge tiles to the full tile size
                "w": pa.array(np.full(n, self.tile_size, np.int32), pa.int32()),
                "h": pa.array(np.full(n, self.tile_size, np.int32), pa.int32()),
                "fmt": pa.array(["raw"] * n, pa.string()),
                "center_lon": pa.array(np.concatenate(clons) if clons else [], pa.float64()),
                "center_lat": pa.array(np.concatenate(clats) if clats else [], pa.float64()),
            }
        )


def resize_images(
    ds: ray.data.Dataset,
    out_w: int,
    out_h: int,
    *,
    filter: str = "bilinear",
    bytes_col: str = "bytes",
    batch_size: int = 16,
) -> ray.data.Dataset:
    """Fixed-size image resize — the model-input normalization stage of a
    training-data pipeline: decode → center-aligned sampling with the
    reference's filters (nearest/bilinear/bicubic/quasi_bicubic) → encode.
    Stateless tasks over small batches (rows are wide); bytes/w/h columns are
    replaced in place, everything else passes through."""
    from .warp import SAMPLERS

    sampler = SAMPLERS[filter]

    def _resize(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        bufs, ws, hs, fmts = (batch[c].to_pylist() for c in (bytes_col, "w", "h", "fmt"))
        out_bufs = []
        # center-aligned mapping: output pixel center (i+0.5) → source
        # (i+0.5)·scale − 0.5 (the standard align-centers convention)
        gx = (np.arange(out_w, dtype=np.float64) + 0.5)[None, :]
        gy = (np.arange(out_h, dtype=np.float64) + 0.5)[:, None]
        for i in range(n):
            img = decode_image(bufs[i], ws[i], hs[i], fmts[i])
            px = np.broadcast_to(gx * (ws[i] / out_w) - 0.5, (out_h, out_w))
            py = np.broadcast_to(gy * (hs[i] / out_h) - 0.5, (out_h, out_w))
            with np.errstate(all="ignore"):
                res = sampler(img, px, py)
            out_bufs.append(encode_image(np.clip(res, 0, 255).astype(np.uint8)))
        cols = {}
        for name in batch.column_names:
            if name == bytes_col:
                cols[name] = pa.array(out_bufs, pa.binary())
            elif name == "w":
                cols[name] = pa.array(np.full(n, out_w, np.int32), pa.int32())
            elif name == "h":
                cols[name] = pa.array(np.full(n, out_h, np.int32), pa.int32())
            elif name == "fmt":
                cols[name] = pa.array(["raw"] * n, pa.string())
            else:
                cols[name] = batch[name]
        return pa.table(cols)

    return ds.map_batches(_resize, batch_format="pyarrow", batch_size=batch_size)


def warp_and_tile(
    ds: ray.data.Dataset,
    proj_name: str,
    params: ProjParams | None = None,
    *,
    tile_size: int = 64,
    filter: str = "bilinear",
    dst_datum: str | None = None,
    res_deg: float = index_mod.DEFAULT_RES_DEG,
    batch_size: int = 16,
    use_actors: bool = False,
    concurrency: int | tuple[int, int] = (2, 8),
    **param_kw,
) -> ray.data.Dataset:
    """The flagship image stage: warp+tile (SURVEY §3.2 Ray shape).

    Default = stateless tasks with per-worker-process cached state (the
    prepared projection is cheap; Ray's warm shared worker pool beats spawning
    an actor pool per execution). Pass ``use_actors=True`` for an explicit
    actor pool when per-worker setup is expensive (real codecs, models).
    """
    params = params or ProjParams(**param_kw)
    if use_actors:
        return ds.map_batches(
            WarpTileActor,
            fn_constructor_args=(proj_name, params),
            fn_constructor_kwargs=dict(
                tile_size=tile_size, filter=filter, dst_datum=dst_datum, res_deg=res_deg
            ),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )

    key = ("warp_tile", proj_name, params, tile_size, filter, dst_datum, res_deg)

    def _warp(batch: pa.Table) -> pa.Table:
        worker = _cached(
            key,
            lambda: WarpTileActor(
                proj_name, params, tile_size=tile_size, filter=filter,
                dst_datum=dst_datum, res_deg=res_deg,
            ),
        )
        return worker(batch)

    return ds.map_batches(_warp, batch_format="pyarrow", batch_size=batch_size)


def ingest_geotiff(ds: ray.data.Dataset, *, src_datum: str = "WGS_84",
                   batch_size: int | None = 16) -> ray.data.Dataset:
    """Real-world raster ingest: rows of bare GeoTIFF blobs
    ``(image_id: string, bytes: binary[, caption])`` → the standard images
    schema consumed by :func:`warp_and_tile`. Pixels decode to raw RGBA and
    the north-up georeference (lon0/lat0/px_deg) is recovered from the
    embedded GeoTIFF ModelPixelScale/ModelTiepoint tags (tiff.py) — no
    sidecar georeference columns, exactly how georeferenced rasters arrive
    from the wild. Runs as a stateless vectorized map_batches stage; media
    rows are wide, so batch_size stays small (same rule as warp)."""

    def _ingest(batch: pa.Table) -> pa.Table:
        from .tiff import decode_tiff_geo, georef_from_tags

        ids = batch["image_id"].to_pylist()
        caps = (batch["caption"].to_pylist() if "caption" in batch.column_names
                else [""] * len(ids))
        bufs, ws, hs, lon0s, lat0s, pxds = [], [], [], [], [], []
        for iid, blob in zip(ids, batch["bytes"].to_pylist()):
            rgba, geo = decode_tiff_geo(blob)
            if geo is None:
                raise ValueError(f"{iid}: GeoTIFF georeference tags missing")
            gr = georef_from_tags(geo)
            bufs.append(rgba.tobytes())
            hs.append(rgba.shape[0])
            ws.append(rgba.shape[1])
            lon0s.append(gr.lon0)
            lat0s.append(gr.lat0)
            pxds.append(gr.px_deg)
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(bufs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(["raw"] * len(ids), pa.string()),
            "caption": pa.array(caps, pa.string()),
            "lon0": pa.array(lon0s, pa.float64()),
            "lat0": pa.array(lat0s, pa.float64()),
            "px_deg": pa.array(pxds, pa.float64()),
            "src_datum": pa.array([src_datum] * len(ids), pa.string()),
        })

    return ds.map_batches(_ingest, batch_format="pyarrow", batch_size=batch_size)


def zonal_stats(ds: ray.data.Dataset, polygons: list,
                *, batch_size: int | None = 8) -> ray.data.Dataset:
    """Zonal statistics over native-typed GeoTIFF rasters: per polygon zone,
    (n, mean, min, max) of band-0 sample values across every pixel whose
    CENTER (GeoRef convention: lon0 + px_deg·col, lat0 − px_deg·row) falls
    inside the zone. The classic DEM/band × vector-zones geospatial op.

    Scale shape (SCALE.md combiner rule): pixels NEVER shuffle — each batch
    of rasters reduces to at most one partial row per zone (count, sum,
    min, max over a bbox-prefiltered exact ray-crossing test, all
    vectorized), and a native groupby-aggregate merges the partials; a
    100 TB raster corpus ships n_zones-sized rows per batch. ``polygons``
    is the broadcast small side ([(zone_id, (k,2) lon/lat vertices)],
    one ray.put). Raster rows are ``(raster_id, bytes)`` GeoTIFF blobs
    with embedded georeference; sample values come from
    tiff.decode_tiff_native, so uint16/int16/float32 DEMs aggregate at
    full precision (float64 accumulators)."""
    from .spatial import point_in_polygon, polygon_bbox

    ref = ray.put(polygons)

    def _partial(batch: pa.Table) -> pa.Table:
        from .tiff import decode_tiff_native, georef_from_tags

        polys = _cached(("zonal_polys", ref.hex()), lambda: ray.get(ref))
        nz = len(polys)
        cnt = np.zeros(nz, np.int64)
        vsum = np.zeros(nz, np.float64)
        vmin = np.full(nz, np.inf)
        vmax = np.full(nz, -np.inf)
        for blob in batch["bytes"].to_pylist():
            arr, geo = decode_tiff_native(blob)
            if geo is None:
                raise ValueError("zonal_stats: GeoTIFF georeference missing")
            gr = georef_from_tags(geo)
            h, w = arr.shape[:2]
            band = arr[..., 0].astype(np.float64, copy=False)
            lon = gr.lon0 + gr.px_deg * np.arange(w)
            lat = gr.lat0 - gr.px_deg * np.arange(h)
            for zi, (_zid, poly) in enumerate(polys):
                x0, y0, x1, y1 = polygon_bbox(poly)
                ci = np.flatnonzero((lon >= x0) & (lon <= x1))
                ri = np.flatnonzero((lat >= y0) & (lat <= y1))
                if not len(ci) or not len(ri):
                    continue
                sub = band[np.ix_(ri, ci)]
                plon = np.broadcast_to(lon[ci], sub.shape).ravel()
                plat = np.broadcast_to(lat[ri][:, None], sub.shape).ravel()
                inside = point_in_polygon(plon, plat, poly)
                if not inside.any():
                    continue
                v = sub.ravel()[inside]
                cnt[zi] += v.size
                vsum[zi] += v.sum()
                vmin[zi] = min(vmin[zi], v.min())
                vmax[zi] = max(vmax[zi], v.max())
        keep = np.flatnonzero(cnt)
        return pa.table({
            "zone_id": pa.array([polys[i][0] for i in keep], pa.string()),
            "n": pa.array(cnt[keep], pa.int64()),
            "vsum": pa.array(vsum[keep], pa.float64()),
            "vmin": pa.array(vmin[keep], pa.float64()),
            "vmax": pa.array(vmax[keep], pa.float64()),
        })

    from ray.data.aggregate import Max, Min, Sum

    merged = (
        ds.map_batches(_partial, batch_format="pyarrow", batch_size=batch_size)
        .groupby("zone_id")
        .aggregate(Sum("n", alias_name="n"), Sum("vsum", alias_name="vsum"),
                   Min("vmin", alias_name="vmin"), Max("vmax", alias_name="vmax"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = batch["vsum"].to_numpy(zero_copy_only=False)
        return pa.table({
            "zone_id": batch["zone_id"],
            "n": batch["n"],
            "vmean": pa.array(s / n, pa.float64()),
            "vmin": batch["vmin"],
            "vmax": batch["vmax"],
        })

    return merged.map_batches(finish, batch_format="pyarrow")


def _horn_terrain(z: np.ndarray, lat: np.ndarray, px_deg: float,
                  z_factor: float = 1.0):
    """Horn's 3×3 slope/aspect/hillshade (the standard gdaldem/ESRI method)
    over one north-up geographic DEM. ``z`` is (h, w) float64 meters;
    ``lat`` the per-row pixel-center latitudes. Cell size converts to
    meters per row (lon spacing shrinks by cos φ). Returns (slope_rad,
    aspect_rad, hillshade 0..255 float64), edges via edge-replicated pad."""
    zp = np.pad(z, 1, mode="edge")
    a, b, c = zp[:-2, :-2], zp[:-2, 1:-1], zp[:-2, 2:]
    d, f = zp[1:-1, :-2], zp[1:-1, 2:]
    g, hh, i = zp[2:, :-2], zp[2:, 1:-1], zp[2:, 2:]
    m_per_deg = 111320.0
    dx = (px_deg * m_per_deg * np.cos(np.radians(lat)))[:, None]
    dy = px_deg * m_per_deg
    dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) / (8.0 * dx)
    dzdy = ((g + 2 * hh + i) - (a + 2 * b + c)) / (8.0 * dy)
    slope = np.arctan(z_factor * np.hypot(dzdx, dzdy))
    aspect = np.arctan2(dzdy, -dzdx)
    az, alt = np.radians(315.0), np.radians(45.0)
    zen = np.pi / 2 - alt
    shade = (np.cos(zen) * np.cos(slope)
             + np.sin(zen) * np.sin(slope) * np.cos(az - np.pi / 2 - aspect))
    return slope, aspect, np.clip(shade, 0, 1) * 255.0


def dem_terrain_features(ds: ray.data.Dataset, *, z_factor: float = 1.0,
                         batch_size: int | None = 8) -> ray.data.Dataset:
    """Terrain analysis over a GeoTIFF DEM corpus: per raster, Horn-method
    slope/aspect/hillshade (metric cell size, per-row cos φ longitude
    scaling) reduced to slim feature rows — mean/max slope (deg), circular
    mean aspect (deg), mean hillshade (0-255), elevation roughness (std).
    Zero-movement map over native-typed samples (tiff.decode_tiff_native);
    pixels never leave the task."""

    def _feat(batch: pa.Table) -> pa.Table:
        from .tiff import decode_tiff_native, georef_from_tags

        ids, msl, xsl, asp, shd, rgh = [], [], [], [], [], []
        for rid, blob in zip(batch["raster_id"].to_pylist(),
                             batch["bytes"].to_pylist()):
            arr, geo = decode_tiff_native(blob)
            if geo is None:
                raise ValueError(f"{rid}: GeoTIFF georeference missing")
            gr = georef_from_tags(geo)
            z = arr[..., 0].astype(np.float64, copy=False)
            lat = gr.lat0 - gr.px_deg * np.arange(z.shape[0])
            slope, aspect, shade = _horn_terrain(z, lat, gr.px_deg, z_factor)
            ids.append(rid)
            msl.append(float(np.degrees(slope.mean())))
            xsl.append(float(np.degrees(slope.max())))
            asp.append(float(np.degrees(np.arctan2(
                np.sin(aspect).mean(), np.cos(aspect).mean())) % 360.0))
            shd.append(float(shade.mean()))
            rgh.append(float(z.std()))
        return pa.table({
            "raster_id": pa.array(ids, pa.string()),
            "mean_slope_deg": pa.array(msl, pa.float64()),
            "max_slope_deg": pa.array(xsl, pa.float64()),
            "mean_aspect_deg": pa.array(asp, pa.float64()),
            "mean_hillshade": pa.array(shd, pa.float64()),
            "elev_roughness": pa.array(rgh, pa.float64()),
        })

    return ds.map_batches(_feat, batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------
# PIP join & kNN (broadcast small side; shuffle path keyed on cell_id)
# ---------------------------------------------------------------------------


class PIPJoinActor:
    """Broadcast PIP join: polygon layer fetched once per actor from the object
    store; per batch, candidate-filter by bbox then exact ray-crossing test.
    Emits one output row per (point, containing polygon) pair."""

    def __init__(self, polys_ref, lon_col: str, lat_col: str):
        polys = ray.get(polys_ref) if isinstance(polys_ref, ray.ObjectRef) else polys_ref
        self.names = pa.array([str(p[0]) for p in polys], pa.string())
        self.polys: list[np.ndarray] = [np.asarray(p[1], np.float64) for p in polys]
        self.bboxes = np.array([spatial_mod.polygon_bbox(p) for p in self.polys])
        self.lon_col, self.lat_col = lon_col, lat_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        row_idx: list[np.ndarray] = []
        poly_idx: list[np.ndarray] = []
        for pi, (poly, (x0, y0, x1, y1)) in enumerate(zip(self.polys, self.bboxes)):
            cand = (lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1)
            if not cand.any():
                continue
            ci = np.nonzero(cand)[0]
            hit = spatial_mod.point_in_polygon(lon[ci], lat[ci], poly)
            hits = ci[hit]
            if len(hits):
                row_idx.append(hits)
                poly_idx.append(np.full(len(hits), pi, np.int32))
        if not row_idx:
            t = batch.slice(0, 0)
            return t.append_column("poly_id", pa.array([], pa.string()))
        rows = np.concatenate(row_idx)
        order = np.argsort(rows, kind="stable")
        taken = batch.take(pa.array(rows[order]))
        return taken.append_column("poly_id", self.names.take(np.concatenate(poly_idx)[order]))


def pip_join(
    ds: ray.data.Dataset,
    polygons: list[tuple[str, np.ndarray]],
    *,
    lon_col="lon",
    lat_col="lat",
    batch_size: int | None = 64 * 1024,
    use_actors: bool = False,
    concurrency: int | tuple[int, int] = (2, 8),
) -> ray.data.Dataset:
    """Point-in-polygon join against a small polygon layer: broadcast via
    ray.put once, fetched zero-copy per worker process (cached), no shuffle."""
    ref = ray.put(polygons)
    if use_actors:
        return ds.map_batches(
            PIPJoinActor,
            fn_constructor_args=(ref, lon_col, lat_col),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )

    def _pip(batch: pa.Table) -> pa.Table:
        worker = _cached(("pip", ref.hex(), lon_col, lat_col),
                         lambda: PIPJoinActor(ref, lon_col, lat_col))
        return worker(batch)

    return ds.map_batches(_pip, batch_format="pyarrow", batch_size=batch_size)


class KnnActor:
    """Geodesic kNN against a broadcast point set.

    Exact mode (prune_res_deg=None): brute-force haversine per batch.

    Scale mode (prune_res_deg set): targets pre-bucketed by cell once per
    worker; each query scores only targets in its ring-of-cells neighborhood,
    expanding the ring until ≥k candidates exist. Partitioning assumption
    (documented per SURVEY §7): the true k nearest lie within the final ring —
    guaranteed here because rings expand until the k-th candidate distance is
    closed, cell by cell, but pathological target distributions cost extra
    ring expansions rather than wrong answers only while candidates-in-ring
    remain a superset of true top-k within (ring−1) cell widths."""

    def __init__(self, targets_ref, k: int, lon_col: str, lat_col: str,
                 prune_res_deg: float | None = None):
        tgt = ray.get(targets_ref) if isinstance(targets_ref, ray.ObjectRef) else targets_ref
        self.tgt_ids = np.asarray(tgt[0])
        self.tgt_lon = np.asarray(tgt[1], np.float64)
        self.tgt_lat = np.asarray(tgt[2], np.float64)
        self.k = k
        self.lon_col, self.lat_col = lon_col, lat_col
        self.res = prune_res_deg
        if self.res is not None:
            cells = index_mod.cell_id(self.tgt_lon, self.tgt_lat, self.res)
            order = np.argsort(cells, kind="stable")
            self._sorted_cells = cells[order]
            self._order = order

    def _candidates(self, cell: int, ring: int) -> np.ndarray:
        # pole-safe geodesic ball (duplicate-free): per-row longitude widths
        # widen by (π/2)/cos φ and polar rows include every longitude, so the
        # exclusion guarantee ring·res·LAT_DEG_M holds across the pole too
        # (the old square ring dropped far-longitude candidates near poles)
        nbrs = index_mod.ball_candidates(int(cell), ring, self.res)
        lo = np.searchsorted(self._sorted_cells, nbrs, side="left")
        hi = np.searchsorted(self._sorted_cells, nbrs, side="right")
        return np.concatenate([self._order[a:b] for a, b in zip(lo, hi) if b > a]) \
            if np.any(hi > lo) else np.empty(0, np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False)
        if self.res is None:
            idx, dist = spatial_mod.knn_brute(lon, lat, self.tgt_lon, self.tgt_lat, self.k,
                                              order_key=self.tgt_ids)
        else:
            n = len(lon)
            idx = np.empty((n, min(self.k, len(self.tgt_ids))), np.int64)
            dist = np.empty_like(idx, dtype=np.float64)
            cells = index_mod.cell_id(lon, lat, self.res)
            # group queries by cell so each cell's candidate set is built once
            order = np.argsort(cells, kind="stable")
            kk = min(self.k, len(self.tgt_ids))
            max_ring = int(180.0 / self.res) + 1
            warm_ring = 1  # adjacent cells need similar rings — warm start
            for cell in np.unique(cells):
                qi = order[np.searchsorted(cells[order], cell, "left"):
                           np.searchsorted(cells[order], cell, "right")]
                ring = max(1, warm_ring - 1)
                while True:
                    cand = self._candidates(int(cell), ring)
                    if len(cand) < kk and ring < max_ring:
                        ring = min(max(ring + 1, int(ring * 1.7)), max_ring)
                        continue
                    ci, cd = spatial_mod.knn_brute(
                        lon[qi], lat[qi], self.tgt_lon[cand], self.tgt_lat[cand], kk,
                        order_key=self.tgt_ids[cand],
                    )
                    if ring >= max_ring:
                        break
                    # termination bound: ball_candidates guarantees every
                    # point of every non-candidate cell is ≥ ring·res·LAT_DEG_M
                    # away (pole-safe — see index.ball_candidates_many); use
                    # ring−1 for strictness so excluded points can't tie the
                    # k-th candidate either
                    bound_m = (ring - 1) * self.res * index_mod.LAT_DEG_M
                    if float(cd[:, -1].max()) <= bound_m:
                        break
                    ring = min(max(ring + 1, int(ring * 1.4)), max_ring)
                warm_ring = ring
                idx[qi] = cand[ci]
                dist[qi] = cd
        n, k = idx.shape
        rep = np.repeat(np.arange(n), k)
        out = batch.take(pa.array(rep))
        out = out.append_column("neighbor_id", pa.array(self.tgt_ids[idx.ravel()]))
        out = out.append_column("neighbor_rank", pa.array(np.tile(np.arange(k), n), pa.int32()))
        out = out.append_column("distance_m", pa.array(dist.ravel(), pa.float64()))
        return out


def knn_join(
    ds: ray.data.Dataset,
    target_ids,
    target_lon,
    target_lat,
    k: int,
    *,
    lon_col="lon",
    lat_col="lat",
    batch_size: int | None = 32 * 1024,
    prune_res_deg: float | None = None,
    use_actors: bool = False,
    concurrency: int | tuple[int, int] = (2, 8),
) -> ray.data.Dataset:
    """Geodesic kNN join. ``prune_res_deg`` switches on the ring-of-cells
    candidate pruning (the 100 TB path: per-query cost scales with local
    target density, not total target count)."""
    ref = ray.put((np.asarray(target_ids), np.asarray(target_lon), np.asarray(target_lat)))
    if use_actors:
        return ds.map_batches(
            KnnActor,
            fn_constructor_args=(ref, k, lon_col, lat_col, prune_res_deg),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )

    def _knn(batch: pa.Table) -> pa.Table:
        worker = _cached(("knn", ref.hex(), k, lon_col, lat_col, prune_res_deg),
                         lambda: KnnActor(ref, k, lon_col, lat_col, prune_res_deg))
        return worker(batch)

    return ds.map_batches(_knn, batch_format="pyarrow", batch_size=batch_size)


def stratified_sample(
    ds: ray.data.Dataset,
    key_col: str,
    strata_col: str,
    fractions: dict,
    *,
    default: float = 0.0,
    seed: int = 1,
    batch_size: int | None = None,
) -> ray.data.Dataset:
    """Per-stratum deterministic sampling: each stratum (language, source,
    cell, priority ...) keeps its own fraction, rows selected by the SAME
    key-hash as :func:`deterministic_sample` — group-consistent, run-stable,
    and SQL-reproducible for integer keys. Strata absent from ``fractions``
    use ``default`` (0 = drop). The fractions map is tiny and closure-shipped."""
    thr = {k: np.uint64(int(f * 4294967296.0)) for k, f in fractions.items()}
    thr_default = np.uint64(int(default * 4294967296.0))

    def _sample(batch: pa.Table) -> pa.Table:
        keys = hash_key_u64(np.asarray(batch[key_col]))
        mixed = keys + np.uint64(seed) * np.uint64(2654435769)
        h = (mixed * np.uint64(2654435761)) % np.uint64(4294967296)
        # vectorized stratum→threshold: dictionary-encode the strata column
        # (one pass in Arrow C++), map only the few DISTINCT values through
        # the fractions dict, then gather — no per-row Python
        import pyarrow.compute as pc

        enc = pc.dictionary_encode(batch[strata_col].combine_chunks())
        # null strata take thr_default: append a sentinel LUT slot and route
        # null dictionary indices (which round-trip as float NaN otherwise)
        # to it before the gather
        lut = np.array([thr.get(s, thr_default) for s in enc.dictionary.to_pylist()]
                       + [thr_default], np.uint64)
        idx = pc.fill_null(enc.indices, len(lut) - 1).to_numpy(zero_copy_only=False)
        limit = lut[idx.astype(np.int64)]
        return batch.filter(pa.array(h < limit))

    return ds.map_batches(_sample, batch_format="pyarrow", batch_size=batch_size)


def group_quantiles(
    ds: ray.data.Dataset,
    key_col: str,
    col: str,
    qs: list[float],
) -> ray.data.Dataset:
    """Exact per-group quantiles (DuckDB quantile_disc semantics): one
    payload-free groupby shuffle of (key, value), then a vectorized sort +
    rank-select per group. The group is the unit of memory (bounded by
    per-key volume, like sessionize); for single groups larger than a worker
    use :func:`distributed_quantiles` on the filtered key instead.

    Output columns ``q<percent>`` (q25, q50, q99) for two-decimal quantiles;
    finer quantiles keep their full digits (0.995 → q995) so labels never
    collide — duplicate labels raise."""
    import pandas as pd

    def _label(q: float) -> str:
        pct = q * 100.0
        if pct == int(pct):
            return f"q{int(pct):02d}"
        return "q" + format(q, ".10g")[2:]  # 0.995 -> q995 (no truncation)

    labels = [_label(q) for q in qs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate quantile labels {labels} for qs={qs}")

    def per_group(group: "pd.DataFrame") -> "pd.DataFrame":
        v = np.sort(group[col].to_numpy(np.float64))
        n = len(v)
        row = {key_col: [group[key_col].iloc[0]]}
        for q, lab in zip(qs, labels):
            idx = min(max(int(np.ceil(q * n)) - 1, 0), n - 1)
            row[lab] = [float(v[idx])]
        return pd.DataFrame(row)

    return ds.select_columns([key_col, col]).groupby(key_col).map_groups(
        per_group, batch_format="pandas"
    )


def knn_join_large(
    queries: ray.data.Dataset,
    targets: ray.data.Dataset,
    k: int,
    *,
    query_id_col: str = "qid",
    target_id_col: str = "tid",
    lon_col: str = "lon",
    lat_col: str = "lat",
    res_deg: float = index_mod.DEFAULT_RES_DEG,
    init_ring: int = 2,
    max_rounds: int = 12,
) -> ray.data.Dataset:
    """Geodesic kNN when BOTH sides are large Datasets (nothing broadcasts) —
    the dataset×dataset mirror of :class:`KnnActor`, built like
    :func:`pip_join_large` around one ``groupby(cell_id)`` shuffle per round.

    Round r: every pending query probes its ring-r cell neighborhood (a
    controlled fan-out of (qid, lon, lat) rows — ids+coords only, never a
    payload); the shuffle co-locates probes with each cell's targets; a
    per-cell partial top-k then a small per-query merge follow. A query
    FINISHES when its k-th distance is closed by the ball's guaranteed
    coverage (index.ball_candidates_many exclusion bound — pole-safe, so
    results are provably exact); unfinished queries re-probe, ring doubled.
    Partitioning assumption: per-cell target count fits a worker (salt
    res_deg down for pathological hot cells).

    Returns a Dataset of (query columns' id, target id, neighbor_rank,
    distance_m). Targets are materialized once (object store, spillable) so
    multi-round runs don't re-read the target table.
    """
    import pandas as pd
    import pyarrow.compute as pc

    max_ring = int(180.0 / res_deg) + 1
    q_slim = queries.select_columns([query_id_col, lon_col, lat_col])
    t_cells = assign_cells(
        targets.select_columns([target_id_col, lon_col, lat_col]),
        lon_col=lon_col, lat_col=lat_col, res_deg=res_deg,
    )

    q_schema = q_slim.schema()
    qid_type = q_schema.base_schema.field(query_id_col).type
    t_schema = t_cells.schema()
    tid_type = t_schema.base_schema.field(target_id_col).type
    # typed filler for sentinel rows (dist=inf marks them): keeps the tid
    # column's dtype identical across blocks so unions/materialize stay clean
    if pa.types.is_integer(tid_type):
        tid_filler: object = 0
    elif pa.types.is_floating(tid_type):
        tid_filler = 0.0
    else:
        tid_filler = ""

    def _np_of(t):
        if pa.types.is_integer(t):
            return np.int64
        if pa.types.is_floating(t):
            return np.float64
        return object

    # normalize group-output dtypes: the union gives probe rows null tids (the
    # column arrives as float64/object in pandas groups), so every emitted
    # frame casts back to the declared id dtypes for block-schema stability
    qid_np, tid_np = _np_of(qid_type), _np_of(tid_type)

    def tag_targets(batch: pa.Table) -> pa.Table:
        batch = batch.append_column(query_id_col, pa.array([None] * batch.num_rows, qid_type))
        batch = batch.append_column("home", pa.array([False] * batch.num_rows, pa.bool_()))
        return batch.select(["cell_id", query_id_col, target_id_col, lon_col, lat_col, "home"])

    t_tagged = t_cells.map_batches(tag_targets, batch_format="pyarrow").materialize()

    def make_explode(ring_eff: int):
        def explode(batch: pa.Table) -> pa.Table:
            lon = np.asarray(batch[lon_col], np.float64)
            lat = np.asarray(batch[lat_col], np.float64)
            cells = index_mod.cell_id(lon, lat, res_deg)
            # pole-safe geodesic ball, ragged + duplicate-free (see
            # index.ball_candidates_many for the exclusion guarantee)
            rows, probe_cells = index_mod.ball_candidates_many(cells, ring_eff, res_deg)
            return pa.table(
                {
                    "cell_id": pa.array(probe_cells, pa.int64()),
                    query_id_col: pa.array(np.asarray(batch[query_id_col])[rows], qid_type),
                    target_id_col: pa.array([None] * len(rows), tid_type),
                    lon_col: pa.array(lon[rows], pa.float64()),
                    lat_col: pa.array(lat[rows], pa.float64()),
                    # home-cell marker: guarantees every pending query reaches
                    # the merge even when its whole ring holds zero targets
                    "home": pa.array(probe_cells == cells[rows], pa.bool_()),
                }
            )

        return explode

    def cell_topk(group: "pd.DataFrame") -> "pd.DataFrame":
        # output rows carry the QUERY's coordinates so the per-query merge
        # can emit re-probe markers with coords attached — the round loop
        # never has to rejoin pending ids against q_slim (or worse, collect
        # them on the driver)
        empty = pd.DataFrame(
            {
                query_id_col: pd.Series([], dtype=qid_np),
                target_id_col: pd.Series([], dtype=tid_np),
                "dist": pd.Series([], dtype=np.float64),
                lon_col: pd.Series([], dtype=np.float64),
                lat_col: pd.Series([], dtype=np.float64),
            }
        )
        tmask = group[target_id_col].notna()
        tg = group[tmask]
        qg = group[~tmask]
        if not len(qg):
            return empty
        if not len(tg):
            home = qg[qg["home"]]
            if not len(home):
                return empty
            # sentinel (dist=inf): keeps candidate-less queries visible to the merge
            return pd.DataFrame(
                {
                    query_id_col: home[query_id_col].to_numpy().astype(qid_np),
                    target_id_col: pd.Series([tid_filler] * len(home), dtype=tid_np),
                    "dist": np.full(len(home), np.inf),
                    lon_col: home[lon_col].to_numpy(np.float64),
                    lat_col: home[lat_col].to_numpy(np.float64),
                }
            )
        tids = tg[target_id_col].to_numpy().astype(tid_np)
        ci, cd = spatial_mod.knn_brute(
            qg[lon_col].to_numpy(np.float64), qg[lat_col].to_numpy(np.float64),
            tg[lon_col].to_numpy(np.float64), tg[lat_col].to_numpy(np.float64),
            k, order_key=tids,
        )
        kk = ci.shape[1]
        return pd.DataFrame(
            {
                query_id_col: np.repeat(qg[query_id_col].to_numpy().astype(qid_np), kk),
                target_id_col: tids[ci.ravel()],
                "dist": cd.ravel(),
                lon_col: np.repeat(qg[lon_col].to_numpy(np.float64), kk),
                lat_col: np.repeat(qg[lat_col].to_numpy(np.float64), kk),
            }
        )

    def make_merge(ring_eff: int):
        def merge_q(group: "pd.DataFrame") -> "pd.DataFrame":
            g = group[np.isfinite(group["dist"].to_numpy(np.float64))]
            g = g.sort_values(["dist", target_id_col], kind="stable").head(k)
            # ball_candidates exclusion guarantee: non-candidates are
            # ≥ ring·res·LAT_DEG_M away (pole-safe); ring−1 for strictness
            bound_m = (ring_eff - 1) * res_deg * index_mod.LAT_DEG_M
            done = ring_eff >= max_ring or (
                len(g) >= k and float(g["dist"].iloc[-1]) <= bound_m
            )
            if not done:
                # ONE re-probe marker row per unfinished query, coords
                # attached: the next round's probe set is a pure Dataset
                # filter over this output — no driver-side id collection,
                # no rejoin against q_slim, and no k-row partial payload
                # riding the shuffle just to signal "not done"
                return pd.DataFrame(
                    {
                        query_id_col: pd.Series([group[query_id_col].iloc[0]], dtype=qid_np),
                        target_id_col: pd.Series([tid_filler], dtype=tid_np),
                        "distance_m": [np.inf],
                        "neighbor_rank": np.array([-1], np.int32),
                        "knn_done": [False],
                        lon_col: [float(group[lon_col].iloc[0])],
                        lat_col: [float(group[lat_col].iloc[0])],
                    }
                )
            return pd.DataFrame(
                {
                    query_id_col: g[query_id_col].to_numpy().astype(qid_np),
                    target_id_col: g[target_id_col].to_numpy().astype(tid_np),
                    "distance_m": g["dist"].to_numpy(np.float64),
                    "neighbor_rank": np.arange(len(g), dtype=np.int32),
                    "knn_done": np.full(len(g), True),
                    lon_col: g[lon_col].to_numpy(np.float64),
                    lat_col: g[lat_col].to_numpy(np.float64),
                }
            )

        return merge_q

    pending = q_slim
    ring = init_ring
    results: list[ray.data.Dataset] = []
    for _ in range(max_rounds):
        ring_eff = min(ring, max_ring)
        probes = pending.map_batches(make_explode(ring_eff), batch_format="pyarrow")
        per_cell = probes.union(t_tagged).groupby("cell_id").map_groups(
            cell_topk, batch_format="pandas"
        )
        merged = per_cell.groupby(query_id_col).map_groups(
            make_merge(ring_eff), batch_format="pandas"
        ).materialize()
        results.append(
            merged.map_batches(
                lambda t: t.filter(pc.equal(t["knn_done"], True))
                .drop_columns(["knn_done", lon_col, lat_col]),
                batch_format="pyarrow",
            )
        )
        # pending stays a DATASET end-to-end (ids+coords only, one marker
        # row per unfinished query); the loop syncs on a scalar count
        pending = merged.map_batches(
            lambda t: t.filter(pc.equal(t["knn_done"], False))
            .select([query_id_col, lon_col, lat_col]),
            batch_format="pyarrow",
        )
        if pending.count() == 0:
            break  # every query finished
        ring = min(max(ring + 1, ring * 2), max_ring)

    out = results[0]
    for r in results[1:]:
        out = out.union(r)
    return out


def within_distance_join(
    ds: ray.data.Dataset,
    site_ids,
    site_lon,
    site_lat,
    radius_m: float,
    *,
    lon_col: str = "lon",
    lat_col: str = "lat",
    batch_size: int | None = 32 * 1024,
) -> ray.data.Dataset:
    """Geofence join: every (point, site) pair within ``radius_m`` meters
    (haversine) — the relational extension of the reference's fixed-distance
    "blast radius" op (src/projcl_run.c:694-745). Sites broadcast once,
    bucketed by cell like KnnActor; each point scores ONLY the sites in the
    geodesic ball of cells that can possibly be within range
    (index.ball_candidates — a provable superset INCLUDING across the pole,
    where per-row widening keeps far-longitude polar sites in play — exact).
    Emits input rows × matching sites with ``site_id``/``site_dist_m``."""
    res_deg = max(0.5, radius_m / 111194.9 * 2.0)  # ball stays small
    # coverage guarantee ring·res·LAT_DEG_M ≥ radius, +1 ring of slack
    ring = int(np.ceil(radius_m / (index_mod.LAT_DEG_M * res_deg))) + 1
    ref = ray.put((np.asarray(site_ids), np.asarray(site_lon, np.float64),
                   np.asarray(site_lat, np.float64)))

    def _builder():
        ids, slon, slat = ray.get(ref)
        cells = index_mod.cell_id(slon, slat, res_deg)
        order = np.argsort(cells, kind="stable")
        return ids, slon, slat, cells[order], order

    from .geodesic import haversine_matrix

    def _join(batch: pa.Table) -> pa.Table:
        ids, slon, slat, sorted_cells, order = _cached(
            ("geofence", ref.hex(), radius_m), _builder
        )
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        cells = index_mod.cell_id(lon, lat, res_deg)
        order_p = np.argsort(cells, kind="stable")
        sorted_p = cells[order_p]
        rows_out: list[np.ndarray] = []
        sites_out: list[np.ndarray] = []
        dists_out: list[np.ndarray] = []
        # per-CELL, not per-point: the candidate set builds once per cell and
        # the distance test is one vectorized matrix per cell group
        for cell in np.unique(cells):
            qi = order_p[np.searchsorted(sorted_p, cell, "left"):
                         np.searchsorted(sorted_p, cell, "right")]
            nb = index_mod.ball_candidates(int(cell), ring, res_deg)
            lo = np.searchsorted(sorted_cells, nb, side="left")
            hi = np.searchsorted(sorted_cells, nb, side="right")
            cand = np.concatenate([order[a:b] for a, b in zip(lo, hi) if b > a]) \
                if np.any(hi > lo) else np.empty(0, np.int64)
            if not len(cand):
                continue
            d = haversine_matrix(lon[qi], lat[qi], slon[cand], slat[cand])
            pi_idx, si_idx = np.nonzero(d <= radius_m)
            if len(pi_idx):
                rows_out.append(qi[pi_idx])
                sites_out.append(cand[si_idx])
                dists_out.append(d[pi_idx, si_idx])
        if not rows_out:
            t = batch.slice(0, 0)
            t = t.append_column("site_id", pa.array([], pa.from_numpy_dtype(ids.dtype)
                                                    if ids.dtype.kind != "O" else pa.string()))
            return t.append_column("site_dist_m", pa.array([], pa.float64()))
        rows = np.concatenate(rows_out)
        sidx = np.concatenate(sites_out)
        dist = np.concatenate(dists_out)
        o = np.argsort(rows, kind="stable")
        out = batch.take(pa.array(rows[o]))
        out = out.append_column("site_id", pa.array(ids[sidx[o]]))
        return out.append_column("site_dist_m", pa.array(dist[o], pa.float64()))

    return ds.map_batches(_join, batch_format="pyarrow", batch_size=batch_size)


def forward_geodesic_fixed_angle(
    ds: ray.data.Dataset,
    origin_lon: float,
    origin_lat: float,
    azimuth_deg: float,
    *,
    dist_col: str = "distance_m",
    method: str = "sphere",
    spheroid: str = "WGS_84",
    radius: float = SPHERE_RADIUS,
    batch_size: int | None = 128 * 1024,
) -> ray.data.Dataset:
    """Great-circle trace: ONE origin + fixed azimuth × a Dataset of distances
    (pl_forward_geodesic_fixed_angle_s, src/projcl_run.c:747-787). The origin
    is broadcast; each distance row gains (lon2, lat2)."""

    def _trace(cols: dict) -> dict:
        d = np.asarray(cols[dist_col], np.float64)
        if method == "sphere":
            lon2, lat2 = forward_sphere(origin_lon, origin_lat, azimuth_deg, d, radius)
        else:
            lon2, lat2, _ = vincenty_direct(origin_lon, origin_lat, azimuth_deg, d, spheroid)
        return {"lon2": lon2, "lat2": lat2}

    return map_columns(ds, _trace, batch_size=batch_size)


def warp_tiled_mosaic(
    tiles_ds: ray.data.Dataset,
    proj_name: str,
    params: ProjParams | None = None,
    *,
    filter: str = "bilinear",
    **param_kw,
) -> ray.data.Dataset:
    """Warp images stored as TILE rows (the reference's PLImageArrayBuffer
    path, pl_sample_image_array_*): group tiles by image, assemble the mosaic,
    inverse-map with per-pixel tile-index arithmetic, emit one warped row per
    image.

    Expects columns: image_id, tile_col, tile_row, tile_size, bytes, w(full),
    h(full), lon0, lat0, px_deg. Partitioning assumption: all of an image's
    tiles co-locate via the groupby shuffle (tile payloads move once).
    """
    from .warp import GeoRef, MOSAIC_SAMPLERS, TiledMosaic, default_warp_window, dest_grid

    params = params or ProjParams(**param_kw)
    prepped_ref = (proj_name, params)

    def assemble_and_warp(group):
        import pandas as pd

        prepped = _cached(("mosaic_proj",) + prepped_ref, lambda: prepare(proj_name, params))
        r0 = group.iloc[0]
        ts = int(r0["tile_size"])
        tile_map = {
            (int(r["tile_col"]), int(r["tile_row"])): decode_image(
                r["bytes"], ts, ts, r0.get("fmt", "raw")
            ).astype(np.float32)
            for _, r in group.iterrows()
        }
        mosaic = TiledMosaic.from_tiles(tile_map, ts)
        w, h = int(r0["w"]), int(r0["h"])
        georef = GeoRef(float(r0["lon0"]), float(r0["lat0"]), float(r0["px_deg"]))
        ox, oy, sx, sy = default_warp_window(prepped, georef, w, h)
        gx, gy = dest_grid(ox, oy, sx, sy, w, h)
        with np.errstate(all="ignore"):
            lon, lat = prepped.inverse(gx.astype(np.float32), gy.astype(np.float32))
        px, py = georef.to_pixels(lon, lat)
        out = MOSAIC_SAMPLERS[filter](mosaic, px, py)
        out8 = np.clip(out, 0, 255).astype(np.uint8)
        return pd.DataFrame(
            {
                "image_id": [r0["image_id"]],
                "bytes": [encode_image(out8)],
                "w": np.array([w], np.int32),
                "h": np.array([h], np.int32),
                "fmt": ["raw"],
            }
        )

    return tiles_ds.groupby("image_id").map_groups(assemble_and_warp, batch_format="pandas")


def build_tile_pyramid(
    tiles: ray.data.Dataset,
    levels: int = 1,
    *,
    group_col: str = "image_id",
) -> ray.data.Dataset:
    """Zoom pyramid over warped tiles (the tiling-engine counterpart of a web
    map's overview levels): level k+1 tiles assemble their 2×2 level-k
    children (one groupby per level on (group, parent) — the only stage
    where tile payloads legitimately shuffle) and box-filter 2× down.
    Missing children (image edges) fill as transparent zeros, matching the
    zero-padded edge-tile convention of cut_tiles. Emits all levels,
    level 0 = input; columns gain ``level`` (int32).

    Downsampling is float32 mean-of-4 rounded to uint8 per level (document:
    composing k levels is NOT bit-identical to one 2^k box filter — each
    level re-rounds, the standard pyramid behavior).
    """
    import pandas as pd

    def tag0(batch: pa.Table) -> pa.Table:
        return batch.append_column("level", pa.array(np.zeros(batch.num_rows, np.int32)))

    out = tiles.map_batches(tag0, batch_format="pyarrow")
    level_ds = out

    def add_parent(batch: pa.Table) -> pa.Table:
        tx = batch["tile_col"].to_numpy(zero_copy_only=False)
        ty = batch["tile_row"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "parent", pa.array((ty // 2).astype(np.int64) * 1_000_000 + (tx // 2))
        )

    def make_merge4(lvl: int):  # bind the level NOW (datasets execute lazily)
        def merge4(group: "pd.DataFrame") -> "pd.DataFrame":
            r0 = group.iloc[0]
            ts = int(r0["tile_size"])
            canvas = np.zeros((2 * ts, 2 * ts, 4), np.float32)
            for _, r in group.iterrows():
                img = decode_image(r["bytes"], ts, ts, "raw").astype(np.float32)
                oy, ox = (int(r["tile_row"]) % 2) * ts, (int(r["tile_col"]) % 2) * ts
                canvas[oy : oy + ts, ox : ox + ts] = img
            down = canvas.reshape(ts, 2, ts, 2, 4).mean(axis=(1, 3))
            down8 = np.clip(np.floor(down + 0.5), 0, 255).astype(np.uint8)
            out_row = {c: [r0[c]] for c in group.columns
                       if c not in ("bytes", "tile_col", "tile_row", "tile_idx",
                                    "level", "parent", "w", "h")}
            out_row["tile_col"] = np.array([int(r0["tile_col"]) // 2], np.int32)
            out_row["tile_row"] = np.array([int(r0["tile_row"]) // 2], np.int32)
            out_row["tile_idx"] = np.array([-1], np.int32)  # per-level ids re-derive
            out_row["bytes"] = [encode_image(down8)]
            out_row["w"] = np.array([ts], np.int32)
            out_row["h"] = np.array([ts], np.int32)
            out_row["level"] = np.array([lvl], np.int32)
            return pd.DataFrame(out_row)[list(group.columns.drop("parent"))]

        return merge4

    for lvl in range(1, levels + 1):
        level_ds = (
            level_ds.map_batches(add_parent, batch_format="pyarrow")
            .groupby([group_col, "parent"])
            .map_groups(make_merge4(lvl), batch_format="pandas")
        )
        out = out.union(level_ds)
    # normalize to arrow blocks: the union mixes pandas (map_groups) and
    # arrow (level 0) blocks, which downstream aggregates refuse to combine
    return out.map_batches(lambda t: t, batch_format="pyarrow")


def rasterize_points(
    ds: ray.data.Dataset,
    *,
    lon_col: str = "lon",
    lat_col: str = "lat",
    res_deg: float = index_mod.DEFAULT_RES_DEG,
    tile_px: int = 64,
    batch_size: int | None = None,
) -> ray.data.Dataset:
    """VECTOR→RASTER (north_rule's raster↔vector bullet): bin points into a
    per-cell density tile (``tile_px``² grayscale, counts clipped to 255).

    Combiner shape: each batch pre-aggregates to sparse (cell, pixel, n)
    rows — a hot cell ships at most tile_px² rows per batch, never its
    points — then one groupby(cell) merge densifies into tile bytes.
    Pixel row 0 sits at the cell's lat_min (latitude-up, documented);
    sub-pixel indices derive from the same v=(lon+180)/res expression as
    cell ids, so the raster content is SQL-reproducible bit-for-bit.
    Output rows: (cell_id, bytes raw single-channel uint8, w, h, fmt='rawl').
    """
    nx_, ny_ = index_mod.nx(res_deg), index_mod.ny(res_deg)

    def partial(batch: dict) -> dict:
        lon = np.asarray(batch[lon_col], np.float64)
        lat = np.asarray(batch[lat_col], np.float64)
        v = (lon + 180.0) / res_deg
        u = (lat + 90.0) / res_deg
        ix = np.clip(np.floor(v).astype(np.int64), 0, nx_ - 1)
        iy = np.clip(np.floor(u).astype(np.int64), 0, ny_ - 1)
        cell = iy * nx_ + ix
        px = np.clip(np.floor(v * tile_px).astype(np.int64) - ix * tile_px, 0, tile_px - 1)
        py = np.clip(np.floor(u * tile_px).astype(np.int64) - iy * tile_px, 0, tile_px - 1)
        key = cell * (tile_px * tile_px) + py * tile_px + px
        uk, counts = np.unique(key, return_counts=True)
        return {"pix_key": uk, "pn": counts.astype(np.int64)}

    parts = ds.map_batches(partial, batch_format="numpy", batch_size=batch_size)

    def densify(group):
        import pandas as pd

        keys = group["pix_key"].to_numpy(np.int64)
        n = group.groupby(keys % (tile_px * tile_px))["pn"].sum()
        tile = np.zeros(tile_px * tile_px, np.int64)
        tile[n.index.to_numpy()] = n.to_numpy()
        cell = int(keys[0] // (tile_px * tile_px))
        return pd.DataFrame(
            {
                "cell_id": np.array([cell], np.int64),
                "bytes": [np.clip(tile, 0, 255).astype(np.uint8).tobytes()],
                "w": np.array([tile_px], np.int32),
                "h": np.array([tile_px], np.int32),
                "fmt": ["rawl"],
            }
        )

    def add_cell(cols: dict) -> dict:
        return {"raster_cell": np.asarray(cols["pix_key"], np.int64) // (tile_px * tile_px)}

    return (
        map_columns(parts, add_cell, batch_size=None)
        .groupby("raster_cell")
        .map_groups(densify, batch_format="pandas")
    )


def vectorize_tiles(
    tiles: ray.data.Dataset,
    *,
    bytes_col: str = "bytes",
    batch_size: int | None = 64,
) -> ray.data.Dataset:
    """RASTER→VECTOR: per-tile feature rows from pixel payloads (mean band
    values, nonzero coverage, brightness percentiles) — the feature-extract
    direction of the raster↔vector bullet. A stateless map over tile rows;
    emits the input columns minus bytes plus the feature columns."""
    import pyarrow.compute as pc

    def _feats(batch: pa.Table) -> pa.Table:
        bufs = batch[bytes_col].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        mean_v = np.empty(len(bufs), np.float64)
        cover = np.empty(len(bufs), np.float64)
        p95 = np.empty(len(bufs), np.float64)
        for i, buf in enumerate(bufs):
            if fmts[i] == "rawl":
                a = np.frombuffer(buf, np.uint8).reshape(hs[i], ws[i]).astype(np.float64)
            else:
                a = decode_image(buf, ws[i], hs[i], fmts[i])[..., :3].mean(axis=2)
            mean_v[i] = a.mean()
            cover[i] = (a > 0).mean()
            p95[i] = np.quantile(a, 0.95)
        out = batch.drop_columns([bytes_col])
        out = out.append_column("mean_value", pa.array(mean_v))
        out = out.append_column("coverage", pa.array(cover))
        return out.append_column("p95_value", pa.array(p95))

    return tiles.map_batches(_feats, batch_format="pyarrow", batch_size=batch_size)


def cell_counts(
    ds: ray.data.Dataset,
    key_col: str = "cell_id",
    *,
    batch_size: int | None = None,  # whole blocks: a coalescing batch_size would stall the stream
    driver_merge: bool | str = "auto",
    auto_cap: int = 4_000_000,
):
    """Skew-proof distributed count per key: partial counts per batch inside
    map_batches (the combiner). A hot key contributes ONE row per batch
    instead of all its rows — pre-aggregation beats salting for algebraic
    aggregates (SURVEY §7).

    Merge of the partials:
    - ``driver_merge=True``: stream the partial rows to the driver and merge
      incrementally in pandas — NO shuffle, and the driver holds only the
      merged distinct keys (not the raw partials stream). Returns a pandas
      DataFrame. Ray's sort-based aggregate costs seconds of fixed latency
      regardless of row count — for a few thousand output rows the driver
      merge removes it entirely (measured 13.6 s → 7.7 s on the headline
      pipeline).
    - ``driver_merge=False``: distributed groupby-sum over the partials (for
      genuinely huge key cardinalities). Returns a Dataset.
    - ``driver_merge="auto"`` (default): start the streaming driver merge;
      if the merged distinct-key count exceeds ``auto_cap`` (the key turned
      out finer than cell-grained — tile ids, user ids, content hashes),
      abandon it and fall back to the distributed merge, returning a
      Dataset. The guard triggers off measured cardinality, not a docstring
      threshold; the only cost is paid in the (misjudged) fine-key case,
      where the partials re-execute — correctness of scale beats speed
      there. Callers that need a guaranteed DataFrame pass
      ``driver_merge=True`` (cell-grained keys: ≤ 2592 cells at 5° — the
      merged frame is always tiny).
    """

    def partial(batch: dict) -> dict:
        keys, counts = np.unique(np.asarray(batch[key_col], np.int64), return_counts=True)
        return {key_col: keys, "partial_n": counts.astype(np.int64)}

    partials = ds.map_batches(partial, batch_format="numpy", batch_size=batch_size)
    if driver_merge:  # True or "auto"
        import pandas as pd

        strict = driver_merge is True
        compact_at = 1_000_000 if strict else min(1_000_000, auto_cap)
        acc: list = []
        acc_rows = 0
        merged_rows = 0  # distinct keys after the last compaction
        flipped = False
        for b in partials.iter_batches(batch_format="pandas", batch_size=None):
            acc.append(b)
            acc_rows += len(b)
            # amortized compaction: once the merged frame itself exceeds
            # compact_at, wait until the uncompacted stream doubles it —
            # otherwise every batch would re-groupby the full merged frame
            # (quadratic driver work for 1M-4M-key runs)
            if acc_rows > max(compact_at, 2 * merged_rows):
                merged = pd.concat(acc).groupby(key_col, as_index=False)["partial_n"].sum()
                acc, acc_rows = [merged], len(merged)
                merged_rows = len(merged)
                if not strict and merged_rows > auto_cap:
                    flipped = True
                    break
        if not flipped:
            if not acc:
                return pd.DataFrame({key_col: pd.array([], dtype="int64"),
                                     "n": pd.array([], dtype="int64")})
            return (
                pd.concat(acc).groupby(key_col, as_index=False)["partial_n"]
                .sum().rename(columns={"partial_n": "n"})
            )
    from ray.data.aggregate import Sum

    return partials.groupby(key_col).aggregate(Sum("partial_n", alias_name="n"))


def pip_join_large(
    points: ray.data.Dataset,
    polygons: ray.data.Dataset,
    *,
    lon_col: str = "lon",
    lat_col: str = "lat",
    res_deg: float = index_mod.DEFAULT_RES_DEG,
) -> ray.data.Dataset:
    """PIP join for polygon layers too large to broadcast: the cell equi-join
    path (SURVEY §7 / SCALE.md).

    ``polygons`` rows: (poly_id: string, vertices: list<double> — flattened
    lon/lat pairs). Plan: explode polygons to one row per covered cell
    (bbox-based, bounded fan-out) → union with cell-tagged points → ONE
    groupby(cell_id) shuffle → exact ray-crossing test per cell group.
    A point and polygon meet iff they share a cell, which bbox coverage
    guarantees. Output: point rows + poly_id (deduped across cells).
    """

    def explode_poly_cells(batch: pa.Table) -> pa.Table:
        pids, cells, verts = [], [], []
        for pid, v in zip(batch["poly_id"].to_pylist(), batch["vertices"].to_pylist()):
            arr = np.asarray(v, np.float64).reshape(-1, 2)
            for c in index_mod.cells_covering_bbox(
                arr[:, 0].min(), arr[:, 1].min(), arr[:, 0].max(), arr[:, 1].max(), res_deg
            ):
                pids.append(pid)
                cells.append(int(c))
                verts.append(list(np.asarray(v, np.float64)))
        return pa.table(
            {
                "cell_id": pa.array(cells, pa.int64()),
                "poly_id": pa.array(pids, pa.string()),
                "vertices": pa.array(verts, pa.list_(pa.float64())),
            }
        )

    poly_cells = polygons.map_batches(explode_poly_cells, batch_format="pyarrow")

    pts = assign_cells(points, lon_col=lon_col, lat_col=lat_col, res_deg=res_deg)

    def tag_points(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        batch = batch.append_column("poly_id", pa.array([None] * n, pa.string()))
        return batch.append_column("vertices", pa.array([None] * n, pa.list_(pa.float64())))

    def tag_polys(batch: pa.Table) -> pa.Table:
        # give polygon rows the point columns as nulls so the union aligns
        n = batch.num_rows
        for name, typ in zip(point_cols, point_types):
            if name not in batch.column_names:
                batch = batch.append_column(name, pa.array([None] * n, typ))
        return batch.select(sorted(batch.column_names))

    pts_tagged = pts.map_batches(tag_points, batch_format="pyarrow")
    point_schema = pts_tagged.schema()
    point_cols = list(point_schema.names)
    point_types = [point_schema.base_schema.field(c).type for c in point_cols]
    both = pts_tagged.map_batches(
        lambda t: t.select(sorted(t.column_names)), batch_format="pyarrow"
    ).union(poly_cells.map_batches(tag_polys, batch_format="pyarrow"))

    out_cols = [c for c in point_cols if c not in ("vertices",)]

    def test_cell(group):
        import pandas as pd

        is_poly = group["vertices"].notna()
        polys = group[is_poly]
        pts_g = group[~is_poly]
        if not len(polys) or not len(pts_g):
            return pd.DataFrame({c: [] for c in out_cols})
        px = pts_g[lon_col].to_numpy(np.float64)
        py = pts_g[lat_col].to_numpy(np.float64)
        frames = []
        for _, prow in polys.iterrows():
            poly = np.asarray(prow["vertices"], np.float64).reshape(-1, 2)
            hit = spatial_mod.point_in_polygon(px, py, poly)
            if hit.any():
                f = pts_g[hit].copy()
                f["poly_id"] = prow["poly_id"]
                frames.append(f[out_cols])
        if not frames:
            return pd.DataFrame({c: [] for c in out_cols})
        return pd.concat(frames, ignore_index=True)

    joined = both.groupby("cell_id").map_groups(test_cell, batch_format="pandas")
    # a (point, poly) pair can match in one cell only (the point's cell), so
    # no cross-cell dedup is needed — every point has exactly one cell_id.
    return joined


def exact_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    *,
    batch_size: int | None = None,
    driver_concat: bool = False,
) -> dict[float, float]:
    """Exact quantiles of a numeric column, DuckDB quantile_disc semantics
    (the value at 1-based rank ceil(q·n)).

    Default path = :func:`distributed_quantiles`: exact at any scale with
    bounded driver memory (bracket refinement — no column concat, no sketch
    approximation error, so the SQL oracle stays hash-green). The legacy
    ``driver_concat=True`` path pulls the whole sorted column to the driver —
    only for small data / cross-checking the distributed path in tests."""
    if not driver_concat:
        return distributed_quantiles(ds, col, qs, batch_size=batch_size)

    def partial(cols: dict) -> dict:
        return {col: np.sort(np.asarray(cols[col], np.float64))}

    parts = map_columns(ds.select_columns([col]), partial, batch_size=batch_size)
    vals = np.sort(np.concatenate(
        [np.asarray(b[col]) for b in parts.iter_batches(batch_format="numpy")]
    ))
    n = len(vals)
    out = {}
    for q in qs:
        # quantile_disc: value at index ceil(q*n) - 1 (1-based), clamped
        idx = min(max(int(np.ceil(q * n)) - 1, 0), n - 1)
        out[q] = float(vals[idx])
    return out


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (no float log2 — its rounding
    flips at power-of-two boundaries above 2^53)."""
    x = np.asarray(x, np.uint64).copy()
    out = np.zeros(x.shape, np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        m = x >= (np.uint64(1) << np.uint64(shift))
        out[m] += shift
        x[m] >>= np.uint64(shift)
    out += (x > 0).astype(np.int64)
    return out


def approx_count_distinct(
    ds: ray.data.Dataset,
    col: str,
    *,
    p: int = 6,
    batch_size: int | None = None,
) -> float:
    """HyperLogLog distinct count (Flajolet et al. 2007), m = 2^p registers —
    the classic mergeable sketch for COUNT(DISTINCT) at any scale: each batch
    emits its (m,) register maxima (a fixed-size partial regardless of rows),
    the driver merges by elementwise max. Relative error ≈ 1.04/√m.

    Determinism contract: the key hash is md5 of str(value) (DuckDB
    md5_number_upper), the register sum is computed over EXACT power-of-two
    integers (no float-summation order dependence), so the estimate is a
    deterministic number reproducible bit-for-bit in SQL — the sketch itself
    can sit under a hash-compare oracle."""
    from .text import md5_token_hashes

    m = 1 << p
    rest_bits = 64 - p
    mask = np.uint64((1 << rest_bits) - 1)

    def partial(batch: dict) -> dict:
        h = md5_token_hashes([str(v) for v in np.asarray(batch[col]).tolist()])
        regs = np.zeros(m, np.int64)
        if len(h):
            buckets = (h >> np.uint64(rest_bits)).astype(np.int64)
            rank = rest_bits - _bit_length_u64(h & mask) + 1
            np.maximum.at(regs, buckets, rank)
        return {"regs": regs[None, :]}

    merged = np.zeros(m, np.int64)
    parts = ds.select_columns([col]).map_batches(partial, batch_format="numpy",
                                                 batch_size=batch_size)
    for b in parts.iter_batches(batch_format="numpy"):
        merged = np.maximum(merged, np.asarray(b["regs"]).max(axis=0))

    alpha = {4: 0.673, 5: 0.697, 6: 0.709}.get(p, 0.7213 / (1.0 + 1.079 / m))
    maxm = int(merged.max())
    # exact integer Σ 2^(maxm - M_j): float summation order cannot perturb it
    numer = sum(1 << (maxm - int(r)) for r in merged)
    est = alpha * float(m * m) * (2.0 ** maxm) / float(numer)
    zeros = int((merged == 0).sum())
    if est <= 2.5 * m and zeros > 0:  # small-range correction
        est = float(m) * float(np.log(m / zeros))
    return est


def distributed_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    *,
    batch_size: int | None = None,
    n_splits: int = 512,
    max_collect: int = 4_000_000,
    max_rounds: int = 8,
) -> dict[float, float]:
    """EXACT quantiles with bounded driver memory — the scale path that
    replaced the driver-side column concat (and makes a lossy KLL/t-digest
    sketch unnecessary: same mergeable-partial plumbing, zero rank error).

    Plan (each pass is one streaming map over the single selected column):
    1. per-block evenly-spaced sorted samples → driver picks ~n_splits
       candidate split points;
    2. per-block ``searchsorted`` counts below each split → driver locates,
       for every requested rank, the [lo, hi) bracket that provably contains
       it (count(<lo) ≤ rank < count(<hi));
    3. collect ONLY the bracket values (≈ n/n_splits each, ``max_collect``
       guarded — oversized brackets re-split for another round) and select
       the exact rank inside.

    Assumes no NaNs in the column (parquet nulls should be filtered
    upstream). Passes re-execute the upstream plan, so feed it a cheap scan
    (e.g. a column-pruned ``read_parquet``), not an expensive pipeline.
    """
    slim = ds.select_columns([col])

    def sample_block(batch: dict) -> dict:
        v = np.asarray(batch[col], np.float64)
        if len(v) == 0:
            return {"s": v}
        k = min(len(v), 256)
        idx = np.linspace(0, len(v) - 1, k).astype(np.int64)
        return {"s": np.sort(v)[idx]}

    sampled = slim.map_batches(sample_block, batch_format="numpy", batch_size=batch_size)
    pool = np.concatenate(
        [np.asarray(b["s"]) for b in sampled.iter_batches(batch_format="numpy")] or
        [np.empty(0, np.float64)]
    )
    if len(pool) == 0:
        return {q: float("nan") for q in qs}
    splits = np.unique(np.quantile(pool, np.linspace(0.0, 1.0, n_splits)))

    def make_counts(spl: np.ndarray):
        def count_below(batch: dict) -> dict:
            v = np.sort(np.asarray(batch[col], np.float64))
            c = np.searchsorted(v, spl, side="left").astype(np.int64)
            return {"c": c[None, :], "n": np.array([len(v)], np.int64)}

        return count_below

    out: dict[float, float] = {}
    # ranks (0-based) still unresolved → iterate bracket refinement
    for round_no in range(max_rounds):
        counted = slim.map_batches(make_counts(splits), batch_format="numpy",
                                   batch_size=batch_size)
        cb = np.zeros(len(splits), np.int64)
        total = 0
        for b in counted.iter_batches(batch_format="numpy"):
            cb += np.asarray(b["c"]).sum(axis=0)
            total += int(np.asarray(b["n"]).sum())
        targets = {q: min(max(int(np.ceil(q * total)) - 1, 0), total - 1) for q in qs
                   if q not in out}
        brackets: dict[float, tuple[float, float, int]] = {}
        sizes: dict[tuple[float, float], int] = {}
        for q, t in targets.items():
            below = np.nonzero(cb <= t)[0]
            above = np.nonzero(cb > t)[0]
            lo = splits[below[-1]] if len(below) else -np.inf
            hi = splits[above[0]] if len(above) else np.inf
            lo_count = int(cb[below[-1]]) if len(below) else 0
            hi_count = int(cb[above[0]]) if len(above) else total
            brackets[q] = (lo, hi, lo_count)
            sizes[(lo, hi)] = hi_count - lo_count
        uniq = sorted(sizes)

        def in_brackets(v: np.ndarray) -> np.ndarray:
            mask = np.zeros(len(v), bool)
            for lo, hi in uniq:
                mask |= (v >= lo) & (v < hi)
            return mask

        if sum(sizes.values()) > max_collect and round_no < max_rounds - 1:
            # pathological skew: the exact counts (NOT a collect) say the
            # brackets exceed the driver budget — re-split from a bounded
            # per-block SAMPLE of the bracket interiors and try again
            def bracket_samples(batch: dict) -> dict:
                v = np.asarray(batch[col], np.float64)
                v = np.sort(v[in_brackets(v)])
                if len(v) == 0:
                    return {"s": v}
                idx = np.linspace(0, len(v) - 1, min(len(v), 256)).astype(np.int64)
                return {"s": v[idx]}

            pool = np.concatenate(
                [np.asarray(b["s"]) for b in
                 slim.map_batches(bracket_samples, batch_format="numpy",
                                  batch_size=batch_size).iter_batches(batch_format="numpy")]
                or [np.empty(0, np.float64)]
            )
            refined = np.unique(np.quantile(pool, np.linspace(0.0, 1.0, n_splits))) \
                if len(pool) else np.empty(0, np.float64)
            new_splits = np.unique(np.concatenate([splits, refined]))
            if len(new_splits) == len(splits):  # duplicates can't split further
                pass  # fall through and collect (exactness over the budget)
            else:
                splits = new_splits
                continue

        def collect(batch: dict) -> dict:
            v = np.asarray(batch[col], np.float64)
            return {col: v[in_brackets(v)]}

        vals = np.sort(np.concatenate(
            [np.asarray(b[col]) for b in
             slim.map_batches(collect, batch_format="numpy", batch_size=batch_size)
             .iter_batches(batch_format="numpy")] or [np.empty(0, np.float64)]
        ))
        for q, (lo, hi, lo_count) in brackets.items():
            # vals holds every value in all brackets; restrict to this one
            seg = vals[(vals >= lo) & (vals < hi)]
            out[q] = float(seg[targets[q] - lo_count])
        break
    return out


class BloomFilter:
    """Vectorized Bloom filter over 64-bit key hashes (double hashing
    h1 + i·h2, Kirsch–Mitzenmacher): the broadcastable stand-in for an exact
    key set when the set itself would strain the object store. Sized from the
    standard m = −n·ln p/ln²2, k = (m/n)·ln 2 formulas."""

    def __init__(self, n_keys: int, fpr: float = 0.01):
        n_keys = max(int(n_keys), 1)
        m = int(np.ceil(-n_keys * np.log(fpr) / (np.log(2.0) ** 2)))
        self.m = max(m, 64)
        self.k = max(1, int(round(self.m / n_keys * np.log(2.0))))
        self.bits = np.zeros((self.m + 63) // 64, np.uint64)

    def _h12(self, keys) -> tuple[np.ndarray, np.ndarray]:
        h = hash_key_u64(keys)
        h1 = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        h2 = ((h >> np.uint64(29)) ^ h) * np.uint64(0xC4CEB9FE1A85EC53) | np.uint64(1)
        return h1, h2

    def add(self, keys) -> "BloomFilter":
        h1, h2 = self._h12(keys)
        for i in range(self.k):
            idx = (h1 + np.uint64(i) * h2) % np.uint64(self.m)
            np.bitwise_or.at(self.bits, (idx >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (idx & np.uint64(63)))
        return self

    def might_contain(self, keys) -> np.ndarray:
        h1, h2 = self._h12(keys)
        out = np.ones(len(h1), bool)
        for i in range(self.k):
            idx = (h1 + np.uint64(i) * h2) % np.uint64(self.m)
            word = self.bits[(idx >> np.uint64(6)).astype(np.int64)]
            out &= (word >> (idx & np.uint64(63))) & np.uint64(1) != 0
        return out


def range_join(
    ds: ray.data.Dataset,
    intervals: list[tuple],
    value_col: str,
    *,
    id_out: str = "interval_id",
    batch_size: int | None = None,
) -> ray.data.Dataset:
    """Non-equi INTERVAL join against a broadcast interval table: each row
    matches the interval [lo, hi) containing ``value_col``. ``intervals`` is
    (id, lo, hi) with sorted, non-overlapping ranges, so matching is ONE
    vectorized searchsorted per batch — the shape of a banding/range join at
    any corpus size (the interval table is small by nature; rows outside
    every interval drop, i.e. inner semantics)."""
    iv = sorted(intervals, key=lambda t: t[1])
    ids = np.asarray([t[0] for t in iv])
    los = np.asarray([t[1] for t in iv], np.float64)
    his = np.asarray([t[2] for t in iv], np.float64)
    if np.any(his[:-1] > los[1:]):
        raise ValueError("intervals must be non-overlapping")
    ref = ray.put((ids, los, his))

    def _match(batch: pa.Table) -> pa.Table:
        _ids, _los, _his = _cached(("rangejoin", ref.hex()), lambda: ray.get(ref))
        v = np.asarray(batch[value_col], np.float64)
        idx = np.searchsorted(_los, v, side="right") - 1
        ok = (idx >= 0) & (v < _his[np.clip(idx, 0, len(_his) - 1)])
        out = batch.filter(pa.array(ok))
        return out.append_column(id_out, pa.array(_ids[idx[ok]]))

    return ds.map_batches(_match, batch_format="pyarrow", batch_size=batch_size)


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str = "ts",
    by: str = "user_id",
    right_suffix: str = "_ref",
    n_parts: int | None = None,
) -> ray.data.Dataset:
    """Distributed AS-OF join (DuckDB `ASOF JOIN` semantics, inner): each
    left row matches the LATEST right row of the same ``by`` key with
    ``right.on <= left.on``; left rows with no earlier right row drop.

    Scale shape: both sides hash-partition on the ``by`` key into bounded
    groups (count-adaptive like sessionize), and each part runs ONE
    vectorized ``pandas.merge_asof`` — the classic feature-join for
    training-data pipelines (attach the most recent profile/stats row to
    every event) without ever materializing either table globally.
    Right-side non-key columns are suffixed and keep their EXACT dtypes
    (ints stay int64, strings stay strings): schema harmonization uses typed
    FILLERS instead of nulls (so pandas never upcasts), and the asof match
    gathers right rows by local row index rather than merging value columns
    through float64. Ties in right ``on`` within a key are the caller's to
    break (pre-aggregate right to unique (by, on)).

    ``n_parts=None`` materializes both inputs once (object store, spillable)
    so the adaptive sizing's count() is metadata-free and the shuffle reads
    the materialized blocks instead of re-executing computed pipelines; pass
    ``n_parts`` explicitly to keep fully streaming ingest."""
    import pandas as pd

    if n_parts is None:
        left = left.materialize()
        right = right.materialize()
        n_parts = _adaptive_parts(left.count() + right.count())

    l_schema = left.schema().base_schema
    r_schema = right.schema().base_schema
    l_cols = list(l_schema.names)
    r_val_cols = [c for c in r_schema.names if c not in (on, by)]
    r_out = {c: c + right_suffix if c in l_cols else c for c in r_val_cols}
    on_ref = on + right_suffix  # right's own timestamp, kept as a value col

    def _filler(typ: pa.DataType, n: int) -> pa.Array:
        """Typed filler column (NOT nulls — nulls make pandas upcast int64
        to float64 inside groups; filler rows are dropped before the merge,
        so their values never surface)."""
        if pa.types.is_integer(typ) or pa.types.is_floating(typ):
            val: object = 0
        elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
            val = ""
        elif pa.types.is_boolean(typ):
            val = False
        elif pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
            val = b""
        else:  # exotic types (lists/timestamps): nulls, caller beware
            return pa.nulls(n, typ)
        return pa.array([val] * n, typ)

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        batch = batch.append_column("asof_role", pa.array(np.zeros(n, np.int8)))
        for c in r_val_cols:
            batch = batch.append_column(r_out[c], _filler(r_schema.field(c).type, n))
        batch = batch.append_column(on_ref, _filler(r_schema.field(on).type, n))
        return batch.select(sorted(batch.column_names))

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out = {by: batch[by], on: batch[on], on_ref: batch[on]}
        for c in r_val_cols:
            out[r_out[c]] = batch[c]
        t = pa.table(out)
        t = t.append_column("asof_role", pa.array(np.ones(n, np.int8)))
        for c in l_cols:
            if c not in t.column_names:
                t = t.append_column(c, _filler(l_schema.field(c).type, n))
        return t.select(sorted(t.column_names))

    def add_part(batch: pa.Table) -> pa.Table:
        part = (hash_key_u64(np.asarray(batch[by])) * np.uint64(2654435761)) % np.uint64(n_parts)
        return batch.append_column("asof_part", pa.array(part.astype(np.int64)))

    # tag and partition fused into one pass per side (one fewer map stage)
    both = left.map_batches(lambda b: add_part(tag_left(b)), batch_format="pyarrow").union(
        right.map_batches(lambda b: add_part(tag_right(b)), batch_format="pyarrow")
    )

    out_cols = l_cols + [on_ref] + [r_out[c] for c in r_val_cols]
    r_gather_cols = [on_ref] + [r_out[c] for c in r_val_cols]

    def join_part(group: "pd.DataFrame") -> "pd.DataFrame":
        lf = group[group["asof_role"] == 0]
        rf = group[group["asof_role"] == 1]
        if not len(lf) or not len(rf):
            return lf.iloc[0:0][out_cols].copy()
        lf = lf[l_cols].sort_values(on, kind="stable")
        rf = rf.sort_values(on, kind="stable").reset_index(drop=True)
        # match by LOCAL ROW INDEX, then gather right columns dtype-exactly:
        # only the index rides through merge_asof's NaN-capable float path
        # (row indices are < 2^53, so the float round-trip is exact)
        ridx = rf[[by, on]].assign(__ridx=np.arange(len(rf), dtype=np.int64))
        m = pd.merge_asof(lf, ridx, on=on, by=by, direction="backward")
        hit = m["__ridx"].notna().to_numpy()
        m = m[hit]
        take = m["__ridx"].to_numpy(np.float64).astype(np.int64)
        m = m.drop(columns=["__ridx"])
        for c in r_gather_cols:
            m[c] = rf[c].to_numpy()[take]
        return m[out_cols]

    return both.groupby("asof_part").map_groups(join_part, batch_format="pandas")


def topk_per_group(
    ds: ray.data.Dataset,
    key_col: str,
    by_col: str,
    k: int,
    *,
    descending: bool = True,
    tie_col: str | None = None,
    batch_size: int | None = None,
) -> ray.data.Dataset:
    """Top-k rows per group — the pre-aggregate-before-shuffle shape: each
    batch keeps only its LOCAL top-k per key (a mergeable partial, so a hot
    key contributes ≤ k rows per batch to the shuffle instead of all its
    rows), then a small per-key merge finishes. Ties in ``by_col`` break by
    ``tie_col`` ascending (matching SQL's ROW_NUMBER ORDER BY ... , tie)."""
    import pandas as pd

    tie = [tie_col] if tie_col else []

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.sort_values([by_col] + tie, ascending=[not descending] + [True] * len(tie),
                              kind="stable")
        return g.groupby(key_col, sort=False).head(k)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([by_col] + tie, ascending=[not descending] + [True] * len(tie),
                              kind="stable").head(k)
        return g.assign(group_rank=np.arange(len(g), dtype=np.int32))

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=batch_size)
    return partials.groupby(key_col).map_groups(merge, batch_format="pandas")


def semi_join_keys(
    ds: ray.data.Dataset,
    keys,
    key_col: str,
    *,
    anti: bool = False,
    bloom_fpr: float | None = None,
    batch_size: int | None = None,
) -> ray.data.Dataset:
    """Semi/anti join against a broadcast key set (the guide's pattern for
    one-small-side joins): the key set ships once via ray.put, each batch
    filters with a vectorized np.isin. ``anti=True`` keeps non-matching rows.

    ``bloom_fpr`` switches the broadcast to a :class:`BloomFilter` (~10 bits
    per key at 1% FPR vs 8+ bytes for the exact set) — the 100 TB pre-filter:
    the SEMI join then passes ≤ fpr extra rows (follow with an exact join if
    exactness matters); an ANTI join would DROP true rows on false positives,
    so it stays exact-set only (ValueError)."""
    if bloom_fpr is not None:
        if anti:
            raise ValueError("Bloom pre-filter would drop rows on false "
                             "positives — anti joins require the exact set")
        uk = np.unique(np.asarray(keys))
        ref = ray.put(BloomFilter(len(uk), bloom_fpr).add(uk))
    else:
        ref = ray.put(np.unique(np.asarray(keys)))

    def _filter(batch: pa.Table) -> pa.Table:
        keyset = _cached(("semijoin", ref.hex()), lambda: ray.get(ref))
        col = np.asarray(batch[key_col])
        if isinstance(keyset, BloomFilter):
            mask = keyset.might_contain(col)
        else:
            mask = np.isin(col, keyset)
        if anti:
            mask = ~mask
        # Table.filter keeps the typed schema on empty results (no
        # empty-block schema-mismatch warnings downstream)
        return batch.filter(pa.array(mask))

    return ds.map_batches(_filter, batch_format="pyarrow", batch_size=batch_size)


def deterministic_sample(
    ds: ray.data.Dataset,
    key_col: str,
    fraction: float,
    *,
    seed: int = 1,
    batch_size: int | None = None,
) -> ray.data.Dataset:
    """Deterministic, reproducible sampling by key hash (Knuth multiplicative
    hashing on the integer key): a row is kept iff
    ``(key * 2654435761 + seed) mod 2^32 < fraction * 2^32``.

    Unlike ``ds.random_sample`` this is (a) stable across runs/cluster sizes,
    (b) consistent for equal keys (all rows of a key are kept or dropped
    together — sampling by GROUP, the usual requirement for training-data
    splits), and (c) integer-exact, so reproducible in SQL."""
    threshold = np.uint64(int(fraction * 4294967296.0))

    def _sample(batch: pa.Table) -> pa.Table:
        keys = hash_key_u64(np.asarray(batch[key_col]))
        mixed = keys + np.uint64(seed) * np.uint64(2654435769)
        h = (mixed * np.uint64(2654435761)) % np.uint64(4294967296)
        # Table.filter keeps the typed schema on empty results
        return batch.filter(pa.array(h < threshold))

    return ds.map_batches(_sample, batch_format="pyarrow", batch_size=batch_size)
