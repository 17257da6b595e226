"""Ray Data stage builders: every ProjCL capability (and the north-rule
spatial-join/tiling additions) expressed as a transform over a
``ray.data.Dataset``.

Design rules (SURVEY §1.3/§7):
- every stage is built by one of two builders, Arrow in and Arrow out, the
  way ProjCL runs every capability as one kernel shape over one flat
  buffer: :func:`_map_blocks` for per-block work (one ``map_batches`` call,
  whole blocks sliced inside the UDF) and :func:`_map_groups` for per-group
  work after one ``groupby`` shuffle (each group's output typed by a
  declared schema; the partitioned joins' :func:`_cell_join` sorts on
  range boundaries of its own and splits groups in a ``_map_blocks``
  stage). No stage UDF takes or returns pandas or a NumPy dict,
  so Ray never infers a column type or unifies differing block schemas;
- per-record math = stateless ``map_columns``: the UDF reads the columns it
  needs as NumPy (zero-copy for primitive columns) and returns only the
  columns it adds or replaces; every other column stays the Arrow array it
  was. Params are frozen in closures (the host-precompute step of the
  reference, done once at build time);
- image/join stages are stateless tasks with a per-worker-process state
  cache (see _cached below) — one execution mode per stage;
- a join's build side (polygon layer, kNN targets) is broadcast once via
  ``ray.put`` and fetched zero-copy per worker when it is at most
  ``BROADCAST_MAX_BYTES``, else it stays keyed on its own cell and the
  other side goes to the cells it can meet; one function per predicate
  picks the plan;
- wide ops keyed on ``cell_id``; the partitioned join splits every cell
  holding more than ``GROUP_MAX_ROWS`` probe rows over salted sub-groups.

No function here calls ``ray.init()``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from . import datums as datums_mod
from . import index as index_mod
from . import spatial as spatial_mod
from .geodesic import (
    SPHERE_RADIUS,
    forward_sphere,
    haversine,
    vincenty_direct,
    vincenty_inverse,
)
from .images import CHANNELS, decode_image, encode_image
from .proj import ProjParams, prepare
from .warp import GeoRef, WarpSpec, warp_images_u8, warp_windows
from .warp import warp_image  # ops.warp_image, the per-image warp (perfbench traces it)

# ---------------------------------------------------------------------------
# Worker-process state cache.
#
# Stateful stages run as stateless TASKS over this per-process cache: state is
# built (or ray.get-fetched, zero-copy from the local object store) once per
# worker process and reused across all tasks/stages. Ray's shared worker pool
# warms once per session, so repeated pipelines pay no pool-spawn cost (an
# actor pool would spawn per stage execution, seconds each).
# ---------------------------------------------------------------------------

_STATE_CACHE: dict = {}


def _cached(key, builder):
    got = _STATE_CACHE.get(key)
    if got is None:
        got = _STATE_CACHE[key] = builder()
    return got


class _NumpyColumns(dict):
    """Batch columns as NumPy arrays, each converted on first use."""

    def __init__(self, table: pa.Table):
        super().__init__()
        self._table = table

    def __missing__(self, name: str) -> np.ndarray:
        got = self[name] = self._table.column(name).to_numpy(zero_copy_only=False)
        return got


def _map_blocks(ds: ray.data.Dataset, fn, *, batch_size: int | None,
                stream: bool = False) -> ray.data.Dataset:
    """Run ``fn(table) -> table`` once per block, on ``batch_size``-row
    slices of it (the whole block when None). The stage returns the slices'
    outputs as one table, or with ``stream`` yields each slice's output:
    Ray's output buffer then cuts the stream into blocks, so a stage whose
    output outgrows its input does not itself hold a whole block's output.

    The slicing happens inside the UDF, not in Ray: ``map_batches`` is
    called with ``batch_size=None``. A ``batch_size=`` there, or a read
    that splits its blocks, stops Ray from fusing the stage with the read
    before it, and every unfused block costs a Ray task. So ``batch_size``
    never merges small blocks into one call, as Ray's does. The stage
    carries ``fn``'s name, so ``ds.stats()`` reads ``MapBatches(<fn>)``."""

    def stage(block: pa.Table):
        n = block.num_rows
        if batch_size is None or n <= batch_size:
            return fn(block)
        outs = (fn(block.slice(i, batch_size)) for i in range(0, n, batch_size))
        return outs if stream else pa.concat_tables(list(outs))

    stage.__name__ = stage.__qualname__ = fn.__name__
    return ds.map_batches(stage, batch_format="pyarrow", batch_size=None)


def _map_groups(ds: ray.data.Dataset, key, fn, schema: pa.Schema) -> ray.data.Dataset:
    """Run ``fn(group) -> columns | None`` once per group of ``key`` after
    one ``groupby(key)`` shuffle, the group arriving as one Arrow table.
    ``fn`` returns a dict of its output columns (arrays of any kind), which
    becomes a table of ``schema``, or None for a group with no output,
    which becomes ``schema.empty_table()``. So every block the stage emits
    carries the one declared schema. The stage carries ``fn``'s name."""

    def stage(group: pa.Table) -> pa.Table:
        cols = fn(group)
        return schema.empty_table() if cols is None else pa.table(cols, schema=schema)

    stage.__name__ = stage.__qualname__ = fn.__name__
    return ds.groupby(key).map_groups(stage, batch_format="pyarrow")


def map_columns(ds: ray.data.Dataset, fn, *, batch_size: int | None) -> ray.data.Dataset:
    """Row-preserving per-record stage over Arrow batches.

    ``fn(cols)`` reads input columns from ``cols[name]`` as NumPy arrays and
    returns a dict of only the columns it adds or replaces. A replaced column
    keeps its position, a new one is appended in ``fn``'s order, and every
    other column passes through as the Arrow array it already was, so Ray
    never infers a type for it. One stage call receives a whole block,
    hands ``fn`` ``batch_size``-row slices of it and returns one table
    (:func:`_map_blocks`); ``batch_size`` does not merge small blocks. The
    stage carries ``fn``'s name, so ``ds.stats()`` reads
    ``MapBatches(<fn>)``."""

    def stage(batch: pa.Table) -> pa.Table:
        for name, values in fn(_NumpyColumns(batch)).items():
            arr = pa.array(values)
            i = batch.schema.get_field_index(name)
            batch = batch.set_column(i, name, arr) if i >= 0 else batch.append_column(name, arr)
        return batch

    stage.__name__ = stage.__qualname__ = fn.__name__
    return _map_blocks(ds, stage, batch_size=batch_size)


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

def _check_method(method: str) -> None:
    """Reject a geodesic method other than 'sphere' and 'vincenty', at build
    time."""
    if method not in ("sphere", "vincenty"):
        raise ValueError(f"unknown geodesic method {method!r}; expected 'sphere' or 'vincenty'")


def geodesic_distance(
    ds: ray.data.Dataset,
    *,
    lon1="lon1",
    lat1="lat1",
    lon2="lon2",
    lat2="lat2",
    out="distance_m",
    method: str = "sphere",
    spheroid: str = "WGS_84",
    radius: float = SPHERE_RADIUS,
    batch_size: int | None = 128 * 1024,
) -> ray.data.Dataset:
    """Row-wise inverse geodesic: 'sphere' is the haversine distance
    (pl_inverse_geodesic_s semantics); 'vincenty' is the ellipsoidal
    distance with azimuth columns, its non-converged (near-antipodal) pairs
    re-solved by Karney's method (geodesic.vincenty_inverse)."""
    _check_method(method)

    def _hav(cols: dict) -> dict:
        return {out: haversine(cols[lon1], cols[lat1], cols[lon2], cols[lat2], radius)}

    def _ell(cols: dict) -> dict:
        d, a12, a21 = vincenty_inverse(cols[lon1], cols[lat1], cols[lon2], cols[lat2], spheroid)
        return {out: d, "azi1_deg": a12, "azi2_deg": a21}

    fn = _hav if method == "sphere" else _ell
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
    src/projcl_run.c:694-745, as a controlled flat-map): 'sphere' (closed
    form) or 'vincenty' (ellipsoidal, geodesic.vincenty_direct)."""
    _check_method(method)
    az = np.asarray(list(azimuths_deg), np.float64)

    def _fan(batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch[lon_col], np.float64)
        lat = np.asarray(batch[lat_col], np.float64)
        n, m = len(lon), len(az)
        if method == "sphere":
            lon2, lat2 = forward_sphere(lon[:, None], lat[:, None], az[None, :], distance_m, radius)
        else:
            lon2, lat2, _ = vincenty_direct(lon[:, None], lat[:, None], az[None, :],
                                            distance_m, spheroid)
        out = batch.take(pa.array(np.repeat(np.arange(n), m)))
        out = out.append_column("azimuth_deg", pa.array(np.tile(az, n)))
        out = out.append_column("lon2", pa.array(lon2.ravel()))
        return out.append_column("lat2", pa.array(lat2.ravel()))

    return _map_blocks(ds, _fan, batch_size=batch_size, stream=True)


# ---------------------------------------------------------------------------
# Cell assignment
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


# ---------------------------------------------------------------------------
# Image warp + tile stage
# ---------------------------------------------------------------------------


# warp_and_tile's output: one row per tile, raw RGBA bytes
TILE_SCHEMA = pa.schema([
    ("image_id", pa.string()), ("caption", pa.string()), ("cell_id", pa.int64()),
    ("tile_col", pa.int32()), ("tile_row", pa.int32()), ("tile_idx", pa.int32()),
    ("tile_size", pa.int32()), ("bytes", pa.binary()), ("w", pa.int32()), ("h", pa.int32()),
    ("fmt", pa.string()), ("center_lon", pa.float64()), ("center_lat", pa.float64()),
])


def _binary_values(col: pa.ChunkedArray) -> list:
    """Zero-copy ``pa.Buffer`` views of the values of a binary column."""
    arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()  # the latter copies
    width = 8 if pa.types.is_large_binary(arr.type) else 4
    _, offsets, data = arr.buffers()
    offs = np.frombuffer(offsets, f"<i{width}", len(arr) + 1, arr.offset * width).tolist()
    return [data.slice(a, b - a) for a, b in zip(offs, offs[1:])]


def _fixed_binary(values: np.ndarray) -> pa.ChunkedArray:
    """A binary column over the rows of a C-contiguous uint8 array, one
    value per row, without copying: fixed offsets into its buffer, in
    chunks that keep int32 offsets in range."""
    n = len(values)
    size = values[0].nbytes if n else 1
    per = max(1, (2**31 - 1) // size)
    offsets = pa.py_buffer(np.arange(min(n, per) + 1, dtype=np.int32) * size)
    data = pa.py_buffer(values)
    return pa.chunked_array(
        [pa.Array.from_buffers(pa.binary(), min(per, n - s), [None, offsets, data.slice(s * size)])
         for s in range(0, n, per)], pa.binary())


class WarpTileActor:
    """The warp+tile worker body: decode → warp to the target projection →
    cut tiles → emit one row per tile.

    State built once per worker process (__init__ = pl_context_init +
    pl_compile_code + param precompute): the prepared projection and the
    warp policy. One call takes one slice of images: ``warp_and_tile``
    receives a whole block per stage call, hands this body
    ``batch_size``-row slices of it and yields each slice's tiles, so a
    worker holds one block of input but only one slice of decoded pixels
    and Ray's output buffer's worth of tiles (images are wide rows).

    A batch runs in phases, each once over every image, the way ProjCL runs
    one kernel over one flat coordinate buffer: decode (raw pixels are
    read in place from the Arrow value buffer); one forward projection for
    all the warp windows (warp.warp_windows); one inverse projection for
    all the lattices, then per image the lattice check and the fill+sample
    (warp.warp_images_u8), written straight into a zeroed array padded to
    whole tiles (the C sampler takes the padded row stride; its 4-channel
    interior runs in SSE2); one reshape/transpose per image into the
    batch's single tile buffer, which the ``bytes`` column wraps with fixed
    offsets; one inverse projection for all the tile centres and one
    cell_id; one Arrow build.

    Output schema: :data:`TILE_SCHEMA`.
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
        cols = {name: batch[name].to_pylist() for name in
                ("w", "h", "fmt", "lon0", "lat0", "px_deg", "src_datum")}
        ws, hs, fmts = cols["w"], cols["h"], cols["fmt"]
        # raw pixels decode in place; the codecs get one bytes object each
        bufs = [v if f == "raw" else v.to_pybytes()
                for v, f in zip(_binary_values(batch["bytes"]), fmts)]
        imgs = [decode_image(*row) for row in zip(bufs, ws, hs, fmts)]
        win = warp_windows(self.prepped, cols["lon0"], cols["lat0"], cols["px_deg"], ws, hs)
        georefs = [GeoRef(*g) for g in zip(cols["lon0"], cols["lat0"], cols["px_deg"])]
        specs = [
            WarpSpec(self.proj_name, self.params, *w4, w, h, filter=self.filter,
                     src_datum=src, dst_datum=self.dst_datum)
            for w4, w, h, src in zip(zip(*(v.tolist() for v in win)), ws, hs, cols["src_datum"])
        ]
        ts = self.tile_size
        padded = warp_images_u8(imgs, georefs, specs, self.prepped, tile_size=ts)
        grids = [(p.shape[0] // ts, p.shape[1] // ts) for p in padded]  # (down, across)
        counts = np.array([d * a for d, a in grids], np.int64)
        n, starts = int(counts.sum()), np.cumsum(counts) - counts
        tile_px = np.empty((n, ts, ts, CHANNELS), np.uint8)
        for p, (d, a), k in zip(padded, grids, starts):
            tile_px[k:k + d * a].reshape(d, a, ts, ts, CHANNELS)[...] = (
                p.reshape(d, ts, a, ts, CHANNELS).transpose(0, 2, 1, 3, 4))
        src_row = np.repeat(np.arange(batch.num_rows), counts)
        # row-first tile ids within each image: col + row·tiles_across
        across = np.repeat(np.array([a for _, a in grids], np.int32), counts)
        idx = (np.arange(n) - np.repeat(starts, counts)).astype(np.int32)
        ty, tx = np.divmod(idx, across)
        # geographic centre of every tile in ONE inverse call per batch
        ox, oy, sx, sy = (v[src_row] for v in win)
        w_1, h_1 = (np.maximum(np.asarray(v, np.int64)[src_row] - 1, 1) for v in (ws, hs))
        cx = ox + sx * np.minimum((tx + 0.5) * ts / w_1, 1.0)
        cy = oy + sy * np.minimum((ty + 0.5) * ts / h_1, 1.0)
        with np.errstate(all="ignore"):
            clon, clat = self.prepped.inverse(cx, cy)
        size = np.full(n, ts, np.int32)
        return pa.table(
            {
                "image_id": batch["image_id"].take(src_row),
                "caption": batch["caption"].take(src_row),
                "cell_id": index_mod.cell_id(clon, clat, self.res_deg),
                "tile_col": tx,
                "tile_row": ty,
                "tile_idx": idx,
                "tile_size": size,
                "bytes": _fixed_binary(tile_px),
                # edge tiles are zero-padded to the full tile size
                "w": size,
                "h": size,
                "fmt": ["raw"] * n,
                "center_lon": clon,
                "center_lat": clat,
            },
            schema=TILE_SCHEMA,
        )


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
    **param_kw,
) -> ray.data.Dataset:
    """The flagship image stage: warp+tile (SURVEY §3.2 Ray shape), as
    stateless tasks with per-worker-process cached state (the prepared
    projection is cheap; Ray's warm shared worker pool beats spawning an
    actor pool per execution).

    One stage call receives a whole block, so a read of parquet files runs
    fused with this stage, one task per file; ``batch_size`` is the number
    of images :class:`WarpTileActor` warps at a time within the block, and
    each slice's tiles are yielded as they are made. ``batch_size`` does not
    merge small blocks.
    """
    params = params or ProjParams(**param_kw)
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

    return _map_blocks(ds, _warp, batch_size=batch_size, stream=True)


def ingest_geotiff(ds: ray.data.Dataset, *, src_datum: str = "WGS_84",
                   batch_size: int | None = 16) -> ray.data.Dataset:
    """Real-world raster ingest: rows of bare GeoTIFF blobs
    ``(image_id: string, bytes: binary[, caption])`` → the standard images
    schema consumed by :func:`warp_and_tile`. Pixels decode to raw RGBA and
    the north-up georeference (lon0/lat0/px_deg) is recovered from the
    embedded GeoTIFF ModelPixelScale/ModelTiepoint tags (tiff.py) — no
    sidecar georeference columns, exactly how georeferenced rasters arrive
    from the wild. Image rows are wide, so each block is decoded
    ``batch_size`` rows at a time and each slice's rows are yielded (same
    rule as warp)."""

    def _ingest(batch: pa.Table) -> pa.Table:
        from .tiff import decode_tiff_geo, georef_from_tags

        ids = batch["image_id"].to_pylist()
        caps = (batch["caption"].to_pylist() if "caption" in batch.column_names
                else [""] * len(ids))
        bufs, ws, hs, lon0s, lat0s, pxds = [], [], [], [], [], []
        for iid, blob in zip(ids, _binary_values(batch["bytes"])):
            rgba, geo = decode_tiff_geo(memoryview(blob))
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

    return _map_blocks(ds, _ingest, batch_size=batch_size, stream=True)


def zonal_stats(ds: ray.data.Dataset, polygons: list,
                *, batch_size: int | None = 8) -> ray.data.Dataset:
    """Zonal statistics over native-typed GeoTIFF rasters: per polygon zone,
    (n, mean, min, max) of band-0 sample values across every pixel whose
    CENTER (GeoRef convention: lon0 + px_deg·col, lat0 − px_deg·row) falls
    inside the zone. The classic DEM/band × vector-zones geospatial op.

    Scale shape (SCALE.md combiner rule): pixels NEVER shuffle — each
    ``batch_size``-raster slice of a block reduces to at most one partial
    row per zone (count, sum, min, max over a bbox-prefiltered exact
    ray-crossing test, all vectorized), and a native groupby-aggregate
    merges the partials; a 100 TB raster corpus ships n_zones-sized rows
    per slice. ``polygons`` is the broadcast small side ([(zone_id, (k,2) lon/lat vertices)],
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
        _map_blocks(ds, _partial, batch_size=batch_size)
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

    return _map_blocks(merged, finish, batch_size=None)


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

    return _map_blocks(ds, _feat, batch_size=batch_size)


# ---------------------------------------------------------------------------
# Spatial joins: one function per predicate, two plans. A build side (polygon
# layer, kNN targets) of at most BROADCAST_MAX_BYTES is broadcast: ray.put
# once, fetched zero-copy per worker process, no shuffle. A larger one is
# joined cell-partitioned through one range-partitioned sort
# (:func:`_cell_join`), hot cells salted. Both plans run one kernel.
# ---------------------------------------------------------------------------

# Largest build side (Arrow bytes of the polygon layer or kNN targets) that
# is broadcast rather than joined cell-partitioned. On one core of a 10.7 GiB
# machine the broadcast plan was the faster at every size timed (60k points
# against 50–3,200 polygons: 0.06–0.68 s against 0.49–2.4 s; 15k queries
# against 4k–64k targets: 0.61–5.2 s against 3.4–6.5 s), so the bound is
# memory: each worker process holds the side plus its kernel state, about
# 3.4× the side, and 4 workers at 64 MiB hold under 1 GiB.
BROADCAST_MAX_BYTES = 64 << 20
# Most probe rows (points, kNN targets) in one group of the partitioned
# plan (:func:`_cell_join`). At the cap, a PIP group (48 MiB) peaked at 63
# MiB over its block and a kNN group (40 MiB) at 233 MiB (tracemalloc and an
# Arrow proxy pool; 256–1,024 polygons or 200 queries with the cell).
GROUP_MAX_ROWS = 1 << 20


def _count_cells(ds: ray.data.Dataset, col: str,
                 batch_size: int | None = None) -> tuple[pa.Table, int]:
    """Rows per cell of ``col`` (``n``) and the number of slices holding the
    cell (``slices``), merged on the driver from per-slice partials, and the
    number of slices.

    Partial counts per ``batch_size``-row slice of each block (the whole
    block when None; the combiner): a hot cell contributes ONE row per
    slice instead of all its rows. The partial rows stream to the driver as
    Arrow batches and merge incrementally there: no shuffle, and the driver
    holds only the merged distinct cells."""

    def partial(batch: pa.Table) -> pa.Table:
        keys, counts = np.unique(np.asarray(batch[col], np.int64), return_counts=True)
        return pa.table({"cell_id": keys, "n": counts.astype(np.int64),
                         "slices": np.ones(len(keys), np.int64)})

    def merge(tables: list[pa.Table]) -> pa.Table:
        sums = pa.concat_tables(tables).group_by("cell_id").aggregate(
            [("n", "sum"), ("slices", "sum")])
        return pa.table({"cell_id": sums["cell_id"], "n": sums["n_sum"],
                         "slices": sums["slices_sum"]})

    acc = [partial(pa.table({col: pa.array([], pa.int64())}))]
    acc_rows = merged_rows = slices = 0  # merged_rows: cells after the last compaction
    partials = _map_blocks(ds, partial, batch_size=batch_size)
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        acc.append(b)
        slices += 1
        acc_rows += b.num_rows
        # amortized compaction: once the merged table itself exceeds 1M
        # rows, wait until the uncompacted stream doubles it — otherwise
        # every batch would re-group the full merged table
        if acc_rows > max(1_000_000, 2 * merged_rows):
            acc = [merge(acc)]
            acc_rows = merged_rows = acc[0].num_rows
    return merge(acc), slices


def _runs(reps: np.ndarray) -> np.ndarray:
    """0, 1, …, r − 1 for each r of ``reps``, concatenated."""
    return np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)


def _cell_join(probe: ray.data.Dataset, tag_probe, build: ray.data.Dataset, tag_build,
               counts: tuple[pa.Table, int], fn, schema: pa.Schema) -> ray.data.Dataset:
    """The partitioned plan's one shuffle: run ``fn`` (see
    :func:`_map_groups`) once per group of probe and build rows sharing a
    ``_cell``. ``tag_probe`` and ``tag_build`` turn blocks of each side
    into rows of one schema with that ``_cell``; ``counts`` is the count
    pre-pass, ``_count_cells`` over the tagged probe rows.

    Hot cells are salted (the heavy-hitter treatment of skewed hash joins):
    a cell holding ``n`` > GROUP_MAX_ROWS probe rows in ``s`` slices spreads
    them over K sub-groups by their position among its rows in their slice,
    and its build rows are replicated into all K. A slice gives each
    sub-group at most ⌈b/K⌉ of its b rows, so K = ⌈(n − s)/(GROUP_MAX_ROWS −
    s)⌉ keeps every group within GROUP_MAX_ROWS probe rows (given the
    pre-pass's slices). A row's group is ``_cell · W + sub``, W the largest
    K. The sort's range boundaries are group keys that hold probe rows,
    spaced by probe rows, so no sort partition is empty (Ray's sampled
    boundaries can leave empty partitions, blocks with no schema)."""
    cap = GROUP_MAX_ROWS
    counts, slices = counts[0].sort_by("cell_id"), counts[1]
    cells, n, s = (counts[c].to_numpy() for c in ("cell_id", "n", "slices"))
    fan = np.where(n > cap, -(-(n - s) // np.maximum(cap - s, 1)), 1)
    width = int(fan.max(initial=1))

    def fanout(c: np.ndarray) -> np.ndarray:
        i = np.minimum(np.searchsorted(cells, c), len(cells) - 1)
        return np.where(cells[i] == c, fan[i], 1)

    def salt_probe(batch: pa.Table) -> pa.Table:
        batch = tag_probe(batch)
        c = np.asarray(batch["_cell"], np.int64)
        order = np.argsort(c, kind="stable")
        starts = np.flatnonzero(np.r_[True, c[order][1:] != c[order][:-1]])
        rank = np.empty(len(c), np.int64)  # position among its cell's rows
        rank[order] = _runs(np.diff(np.r_[starts, len(c)]))
        return batch.append_column("_group", pa.array(c * width + rank % fanout(c)))

    def salt_build(batch: pa.Table) -> pa.Table:
        batch = tag_build(batch)
        c = np.asarray(batch["_cell"], np.int64)
        reps = fanout(c)
        rows = np.repeat(np.arange(len(c)), reps)
        return batch.take(pa.array(rows)).append_column(
            "_group", pa.array(c[rows] * width + _runs(reps)))

    if not len(cells):  # no probe rows: an inner join of nothing
        return ray.data.from_arrow(schema.empty_table())
    # probe rows per group key, then p partitions of about equal probe rows:
    # one per CPU and per probe slice (Ray's one per input block), so the
    # count grows with the data
    keys = np.repeat(cells * width, fan) + _runs(fan)
    weight = np.cumsum(np.repeat(n / fan, fan))
    cpus = int(ray.cluster_resources().get("CPU", 1))
    p = min(len(keys), max(2, cpus, slices))
    cut = np.searchsorted(weight, weight[-1] * np.arange(1, p) / p) + 1
    bounds = np.unique(keys[np.minimum(cut, len(keys) - 1)]).tolist()

    def groups(block: pa.Table) -> pa.Table:
        key = np.asarray(block["_group"])
        edges = np.r_[0, np.flatnonzero(key[1:] != key[:-1]) + 1, len(key)]
        outs = (fn(block.slice(a, b - a)) for a, b in zip(edges, edges[1:]) if b > a)
        return pa.concat_tables([schema.empty_table()] + [
            pa.table(o, schema=schema) for o in outs if o is not None])

    groups.__name__ = groups.__qualname__ = fn.__name__
    # batch_size coalesces small build blocks (from_items, a shuffle's
    # output): each costs the shuffle a map task
    keyed = _map_blocks(probe, salt_probe, batch_size=None).union(
        build.map_batches(salt_build, batch_format="pyarrow", batch_size=128 * 1024))
    # one key (p = 1) sorts as one block: Ray's sampled boundaries would cut
    # one partition per input block, most of them empty
    keyed = keyed.sort("_group", boundaries=bounds) if p > 1 else \
        keyed.repartition(1).sort("_group")
    return _map_blocks(keyed, groups, batch_size=None)


class _Polygons:
    """A polygon layer, ready for the PIP kernel: ids, vertex arrays, bboxes."""

    def __init__(self, polys):
        polys = list(polys)
        self.names = pa.array([str(p[0]) for p in polys], pa.string())
        self.polys = [np.asarray(p[1], np.float64).reshape(-1, 2) for p in polys]
        self.bboxes = [spatial_mod.polygon_bbox(p) for p in self.polys]

    def join(self, batch: pa.Table, lon_col: str, lat_col: str) -> pa.Table:
        """The PIP kernel both plans run: ``batch``'s rows plus ``poly_id``,
        one row per (point, containing polygon), by row then polygon. A
        bbox filter picks each polygon's candidates, then the exact
        ray-crossing test."""
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        row_idx, poly_idx = [np.empty(0, np.int64)], [np.empty(0, np.int32)]
        for pi, (poly, (x0, y0, x1, y1)) in enumerate(zip(self.polys, self.bboxes)):
            ci = np.flatnonzero((lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1))
            if not len(ci):
                continue
            hits = ci[spatial_mod.point_in_polygon(lon[ci], lat[ci], poly)]
            row_idx.append(hits)
            poly_idx.append(np.full(len(hits), pi, np.int32))
        rows = np.concatenate(row_idx)
        order = np.argsort(rows, kind="stable")
        taken = batch.take(pa.array(rows[order]))
        return taken.append_column("poly_id", self.names.take(np.concatenate(poly_idx)[order]))


def pip_join(
    points: ray.data.Dataset,
    polygons,
    *,
    lon_col="lon",
    lat_col="lat",
) -> ray.data.Dataset:
    """Point-in-polygon join: every point row plus the ``poly_id`` of each
    polygon containing it. ``polygons`` is a list of ``(poly_id, (n, 2)
    lon/lat vertices)`` or a Dataset of ``(poly_id: string, vertices:
    list<double>)`` rows, the vertices flattened lon/lat pairs.

    A layer of at most BROADCAST_MAX_BYTES is broadcast, and each block of
    points is tested in 64k-row slices in one stage, with no shuffle and
    without executing ``points`` here. A larger one is joined partitioned:
    each polygon goes to every cell its bbox covers, each point to its
    cell, and a (point, polygon) pair can meet only in the point's one
    cell, so no pair repeats."""
    if isinstance(polygons, ray.data.Dataset):
        polygons = polygons.materialize()
        if polygons.size_bytes() <= BROADCAST_MAX_BYTES:
            polygons = [(r["poly_id"], r["vertices"]) for r in polygons.take_all()]
    elif sum(np.asarray(v).nbytes + len(str(p)) for p, v in polygons) > BROADCAST_MAX_BYTES:
        polygons = ray.data.from_items(
            [{"poly_id": str(p), "vertices": np.asarray(v, np.float64).ravel().tolist()}
             for p, v in polygons])
    if isinstance(polygons, ray.data.Dataset):
        return _pip_partitioned(points, polygons, lon_col, lat_col)
    ref = ray.put(polygons)

    def _pip(batch: pa.Table) -> pa.Table:
        layer = _cached(("pip", ref.hex()), lambda: _Polygons(ray.get(ref)))
        return layer.join(batch, lon_col, lat_col)

    return _map_blocks(points, _pip, batch_size=64 * 1024)


def _pip_partitioned(points, polygons, lon_col, lat_col) -> ray.data.Dataset:
    res = index_mod.DEFAULT_RES_DEG
    out_schema = points.schema().base_schema.append(pa.field("poly_id", pa.string()))
    point_cols = out_schema.names[:-1]
    # point rows and polygon rows meet in one schema: the point columns,
    # then poly_id and vertices, each null on the other side, then the cell
    schema = out_schema.append(pa.field("vertices", pa.list_(pa.float64()))).append(
        pa.field("_cell", pa.int64()))

    def tag_points(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cells = index_mod.cell_id(np.asarray(batch[lon_col], np.float64),
                                  np.asarray(batch[lat_col], np.float64), res)
        return pa.table({**{c: batch[c] for c in point_cols}, "poly_id": pa.nulls(n),
                         "vertices": pa.nulls(n), "_cell": cells}, schema=schema)

    def explode_poly_cells(batch: pa.Table) -> pa.Table:
        rows, cells = [], []
        for i, v in enumerate(batch["vertices"].to_pylist()):
            arr = np.asarray(v, np.float64).reshape(-1, 2)
            c = index_mod.cells_covering_bbox(*arr.min(axis=0), *arr.max(axis=0), res)
            rows.extend([i] * len(c))
            cells.extend(int(x) for x in c)
        out = batch.take(pa.array(rows, pa.int64()))
        n = out.num_rows
        return pa.table({**{c: pa.nulls(n) for c in point_cols}, "poly_id": out["poly_id"],
                         "vertices": out["vertices"], "_cell": cells}, schema=schema)

    def test_cell(group: pa.Table) -> dict | None:
        is_poly = pc.is_valid(group["vertices"])
        polys = group.filter(is_poly)
        if not polys.num_rows:
            return None
        layer = _Polygons(zip(polys["poly_id"].to_pylist(), polys["vertices"].to_pylist()))
        out = layer.join(group.filter(pc.invert(is_poly)).select(point_cols), lon_col, lat_col)
        return dict(zip(out.column_names, out.columns))

    counts = _count_cells(_map_blocks(points, tag_points, batch_size=None), "_cell")
    return _cell_join(points, tag_points, polygons, explode_poly_cells, counts, test_cell,
                      out_schema)


def _id_rank(ids: pa.Array) -> np.ndarray:
    """Each id's position in sorted order: the kNN tie-break key, so equal
    distances rank by id (SQL's ``ORDER BY dist, id``) for any id type."""
    rank = np.empty(len(ids), np.int64)
    rank[pc.sort_indices(ids).to_numpy()] = np.arange(len(ids))
    return rank


def _knn_cell(qlon, qlat, tlon, tlat, key, k):
    """The kNN kernel both plans run on one cell's queries and candidate
    targets: :func:`spatial.knn_brute` over slices of the queries, so the
    distance matrix stays within 4M entries."""
    step = max(1, (1 << 22) // max(len(tlon), 1))
    parts = [spatial_mod.knn_brute(qlon[i:i + step], qlat[i:i + step], tlon, tlat, k,
                                   order_key=key) for i in range(0, len(qlon), step)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _ring_closed(kth_m, ring: int, res_deg: float):
    """Whether k-th distances ``kth_m`` found in the ring-``ring`` ball of
    cells around the query's cell are final: the ball is the whole sphere,
    or every point outside it is farther. ``index.ball_candidates``
    guarantees every point of every non-candidate cell is ≥
    ring·res·LAT_DEG_M away (pole-safe); ring − 1 for strictness, so an
    excluded point cannot tie the k-th either."""
    bound_m = (ring - 1) * res_deg * index_mod.LAT_DEG_M
    return (ring >= _max_ring(res_deg)) | (np.asarray(kth_m) <= bound_m)


def _max_ring(res_deg: float) -> int:
    return int(180.0 / res_deg) + 1


def _by_cell(cells: np.ndarray):
    """(cell, indices of its rows) for each distinct value of ``cells``."""
    order = np.argsort(cells, kind="stable")
    uniq, first = np.unique(cells[order], return_index=True)
    return zip(uniq, np.split(order, first[1:]))


class _Targets:
    """Broadcast points (kNN targets, geofence sites) held by each worker,
    bucketed by cell."""

    def __init__(self, tbl: pa.Table, res_deg: float):
        self.ids = tbl["id"].combine_chunks()
        self.key = _id_rank(self.ids)
        self.lon = tbl["lon"].to_numpy().astype(np.float64)
        self.lat = tbl["lat"].to_numpy().astype(np.float64)
        self.res = res_deg
        cells = index_mod.cell_id(self.lon, self.lat, res_deg)
        self._order = np.argsort(cells, kind="stable")
        self._sorted_cells = cells[self._order]

    def candidates(self, cell: int, ring: int) -> np.ndarray:
        # pole-safe geodesic ball (duplicate-free): per-row longitude widths
        # widen by (π/2)/cos φ and polar rows include every longitude, so the
        # exclusion guarantee ring·res·LAT_DEG_M holds across the pole too
        nbrs = index_mod.ball_candidates(int(cell), ring, self.res)
        lo = np.searchsorted(self._sorted_cells, nbrs, side="left")
        hi = np.searchsorted(self._sorted_cells, nbrs, side="right")
        return np.concatenate([self._order[a:b] for a, b in zip(lo, hi) if b > a]) \
            if np.any(hi > lo) else np.empty(0, np.int64)

    def knn(self, lon: np.ndarray, lat: np.ndarray, k: int):
        """(target index, distance) of each query's k nearest targets. Per
        cell of queries, the ring of candidate cells grows until the k-th
        distance is closed (:func:`_ring_closed`)."""
        kk = min(k, len(self.lon))
        idx = np.empty((len(lon), kk), np.int64)
        dist = np.empty((len(lon), kk), np.float64)
        max_ring = _max_ring(self.res)
        warm_ring = 1  # adjacent cells need similar rings — warm start
        for cell, qi in _by_cell(index_mod.cell_id(lon, lat, self.res)):
            ring = max(1, warm_ring - 1)
            while True:
                cand = self.candidates(int(cell), ring)
                if len(cand) < kk and ring < max_ring:
                    ring = min(max(ring + 1, int(ring * 1.7)), max_ring)
                    continue
                ci, cd = _knn_cell(lon[qi], lat[qi], self.lon[cand], self.lat[cand],
                                   self.key[cand], kk)
                if _ring_closed(float(cd[:, -1].max()), ring, self.res):
                    break
                ring = min(max(ring + 1, int(ring * 1.4)), max_ring)
            warm_ring = ring
            idx[qi] = cand[ci]
            dist[qi] = cd
        return idx, dist


def knn_join(
    queries: ray.data.Dataset,
    targets,
    k: int,
    *,
    id_col: str,
    lon_col: str = "lon",
    lat_col: str = "lat",
    res_deg: float = index_mod.DEFAULT_RES_DEG,
) -> ray.data.Dataset:
    """Geodesic kNN join, exact: per query (``id_col``, ``lon_col``,
    ``lat_col``), its k nearest targets by haversine as ``neighbor_id``,
    ``neighbor_rank`` (0 = nearest) and ``distance_m``; equal distances rank
    by target id. ``targets`` is an ``(ids, lon, lat)`` tuple of arrays or a
    Dataset of ``(id, lon, lat)`` rows.

    Both plans score the queries of each ``res_deg`` cell against the
    targets in a ring of cells around it, grown until it provably holds
    their k nearest (:func:`_ring_closed`). Targets of at most
    BROADCAST_MAX_BYTES are broadcast. Larger ones stay in their own cell
    and are joined partitioned, in rounds: one shuffle
    (:func:`_cell_join`) meets each cell's targets with every pending query
    whose ring of cells holds that cell, and a sort on the query id merges
    each query's per-cell candidates; unfinished queries go again with the
    ring doubled, and the whole sphere closes."""
    if isinstance(targets, ray.data.Dataset):
        targets = targets.materialize()
        if targets.size_bytes() <= BROADCAST_MAX_BYTES:
            targets = pa.concat_tables(ray.get(targets.to_arrow_refs()))
    else:
        ids, lon, lat = targets
        targets = pa.table({"id": np.asarray(ids), "lon": np.asarray(lon, np.float64),
                            "lat": np.asarray(lat, np.float64)})
        if targets.nbytes > BROADCAST_MAX_BYTES:
            targets = ray.data.from_arrow(targets)
    cols = (id_col, lon_col, lat_col)
    if isinstance(targets, ray.data.Dataset):
        return _knn_partitioned(queries, targets, k, cols, res_deg)
    ref = ray.put(targets)

    def _knn(batch: pa.Table) -> pa.Table:
        tg = _cached(("knn", ref.hex(), res_deg), lambda: _Targets(ray.get(ref), res_deg))
        idx, dist = tg.knn(batch[lon_col].to_numpy(zero_copy_only=False),
                           batch[lat_col].to_numpy(zero_copy_only=False), k)
        n, kk = idx.shape
        rep = pa.array(np.repeat(np.arange(n), kk))
        return pa.table({**{c: batch[c].take(rep) for c in cols},
                         "neighbor_id": tg.ids.take(idx.ravel()),
                         "neighbor_rank": pa.array(np.tile(np.arange(kk), n), pa.int32()),
                         "distance_m": pa.array(dist.ravel(), pa.float64())})

    return _map_blocks(queries, _knn, batch_size=32 * 1024, stream=True)


def _knn_partitioned(queries, targets, k, cols, res_deg) -> ray.data.Dataset:
    id_col, lon_col, lat_col = cols
    qid_type = queries.schema().base_schema.field(id_col).type
    tid_type = targets.schema().base_schema.field("id").type
    f64 = pa.float64()
    # targets and query probes meet in one schema, keyed on a cell: a null
    # neighbor_id marks a query, a null query id a target
    schema = pa.schema([(id_col, qid_type), ("neighbor_id", tid_type), (lon_col, f64),
                        (lat_col, f64), ("_cell", pa.int64())])
    # per-cell candidates, and one sentinel row per pending query, so every
    # query reaches the merge even when its whole ball holds no target
    cand_schema = pa.schema([(id_col, qid_type), (lon_col, f64), (lat_col, f64),
                             ("neighbor_id", tid_type), ("distance_m", f64)])
    out_schema = cand_schema.insert(4, pa.field("neighbor_rank", pa.int32()))
    # each candidate carries its query's merge-sort partition, ``_part``
    part_schema = cand_schema.append(pa.field("_part", pa.int64()))

    def part(ids: pa.ChunkedArray, cuts: np.ndarray) -> np.ndarray:
        return np.searchsorted(cuts, ids.to_numpy(), side="right")

    def tag_targets(batch: pa.Table) -> pa.Table:
        lon, lat = np.asarray(batch["lon"], np.float64), np.asarray(batch["lat"], np.float64)
        return pa.table({id_col: pa.nulls(batch.num_rows), "neighbor_id": batch["id"],
                         lon_col: lon, lat_col: lat,
                         "_cell": index_mod.cell_id(lon, lat, res_deg)}, schema=schema)

    # the targets stay in their own cell, the probe side the shuffle caps
    counts = _count_cells(_map_blocks(targets, tag_targets, batch_size=None), "_cell")
    target_cells = counts[0]["cell_id"].to_numpy()

    def make_explode(ring: int):
        def explode(batch: pa.Table) -> pa.Table:
            # each query to every cell of its pole-safe geodesic ball
            # (index.ball_candidates_many) that holds a target
            lon, lat = (np.asarray(batch[c], np.float64) for c in (lon_col, lat_col))
            src, ball = index_mod.ball_candidates_many(index_mod.cell_id(lon, lat, res_deg),
                                                       ring, res_deg)
            hit = np.isin(ball, target_cells)
            src, ball = src[hit], ball[hit]
            return pa.table({id_col: batch[id_col].take(src), "neighbor_id": pa.nulls(len(src)),
                             lon_col: lon[src], lat_col: lat[src], "_cell": ball}, schema=schema)

        return explode

    def make_topk(cuts: np.ndarray):
        def cell_topk(group: pa.Table) -> dict | None:
            is_target = pc.is_valid(group["neighbor_id"])
            tg, qg = group.filter(is_target), group.filter(pc.invert(is_target))
            if not tg.num_rows or not qg.num_rows:
                return None
            ci, cd = _knn_cell(qg[lon_col].to_numpy(), qg[lat_col].to_numpy(),
                               tg[lon_col].to_numpy(), tg[lat_col].to_numpy(),
                               _id_rank(tg["neighbor_id"]), k)
            rep = np.repeat(np.arange(qg.num_rows), ci.shape[1])
            return {**{c: qg[c].take(pa.array(rep)) for c in cols},
                    "neighbor_id": tg["neighbor_id"].take(ci.ravel()), "distance_m": cd.ravel(),
                    "_part": part(qg[id_col], cuts)[rep]}

        return cell_topk

    def make_sentinel(cuts: np.ndarray):
        def sentinel(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({**{c: batch[c] for c in cols}, "neighbor_id": pa.nulls(n),
                             "distance_m": np.full(n, np.inf),
                             "_part": part(batch[id_col], cuts)}, schema=part_schema)

        return sentinel

    def make_merge(ring: int):
        def merge(t: pa.Table) -> pa.Table:
            # one block holds every row of its queries (a range-partitioned
            # sort on the id's partition): the k nearest by (distance, target id), and
            # the ring bound decides whether they are final
            t = t.drop_columns("_part").sort_by([
                (id_col, "ascending"), ("distance_m", "ascending"), ("neighbor_id", "ascending")])
            ids, dist = t[id_col], t["distance_m"].to_numpy()
            starts = np.flatnonzero(np.r_[True, pc.not_equal(ids[1:], ids[:-1]).to_numpy()])
            sizes = np.diff(np.r_[starts, t.num_rows])
            rank = _runs(sizes)
            m = np.minimum(np.add.reduceat(np.isfinite(dist), starts), k)
            kth = np.where(m == k, dist[starts + np.maximum(m, 1) - 1], np.inf)
            done = np.repeat(_ring_closed(kth, ring, res_deg), sizes)
            # a finished query's m rows, then ONE re-probe row (its first,
            # rank −1) per unfinished query: the next round's queries are a
            # filter of this output
            keep = np.flatnonzero(np.where(done, rank < np.repeat(m, sizes), rank == 0))
            rank = np.where(done[keep], rank[keep], -1)
            return t.take(pa.array(keep)).add_column(4, "neighbor_rank", pa.array(rank, pa.int32()))

        return merge

    def finished(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["neighbor_rank"], 0))

    def unfinished(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["neighbor_rank"], 0)).select(list(cols))

    def id_sample(t: pa.Table) -> pa.Table:  # up to 64 spaced ids of a block
        t = t.select([id_col]).sort_by(id_col)
        return t.take(pa.array(np.arange(0, t.num_rows, max(1, t.num_rows // 64))))

    def id_cuts(pending: ray.data.Dataset) -> np.ndarray:
        # the merge sort's partitions start at ids of pending queries: every
        # partition holds the id it starts at, so none is empty. Ray's sort
        # takes only int or float boundaries, so the rows sort on their
        # id's partition number (``part``), whatever the id type
        parts = list(_map_blocks(pending, id_sample, batch_size=None)
                     .iter_batches(batch_format="pyarrow", batch_size=None))
        ids = sorted(set(pa.concat_tables(parts)[id_col].to_pylist()))
        p = min(len(ids), max(2, int(ray.cluster_resources().get("CPU", 1)), len(parts)))
        cuts = sorted({ids[len(ids) * i // p] for i in range(1, p)})
        return pa.array(cuts, qid_type).to_numpy(zero_copy_only=False)

    # without 0-row blocks: Ray hands one to the next stage as a block with
    # no schema, which every later operator logs as a schema change
    def nonempty(ds: ray.data.Dataset) -> ray.data.Dataset | None:
        refs = [ref for bundle in ds.iter_internal_ref_bundles()
                for ref, meta in bundle.blocks if meta.num_rows]
        return ray.data.from_arrow_refs(refs) if refs else None

    pending, ring, results = nonempty(queries.select_columns(list(cols))), 2, []
    while pending is not None:
        cuts = id_cuts(pending)
        cands = _cell_join(targets, tag_targets, pending, make_explode(ring), counts,
                           make_topk(cuts), part_schema).union(
            _map_blocks(pending, make_sentinel(cuts), batch_size=None))
        # one pending query sorts as one block
        cands = cands.sort("_part", boundaries=list(range(1, len(cuts) + 1))) if len(cuts) \
            else cands.repartition(1)
        merged = _map_blocks(cands, make_merge(ring), batch_size=None).materialize()
        results.append(_map_blocks(merged, finished, batch_size=None))
        pending = nonempty(_map_blocks(merged, unfinished, batch_size=None))
        ring = min(ring * 2, _max_ring(res_deg))
    if not results:  # no queries
        return ray.data.from_arrow(out_schema.empty_table())
    return results[0].union(*results[1:]) if len(results) > 1 else results[0]


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
    bucketed by cell as knn_join's targets are (:class:`_Targets`); each
    point scores ONLY the sites in the geodesic ball of cells that can
    possibly be within range
    (index.ball_candidates — a provable superset INCLUDING across the pole,
    where per-row widening keeps far-longitude polar sites in play — exact).
    Emits input rows × matching sites with ``site_id``/``site_dist_m``."""
    res_deg = max(0.5, radius_m / 111194.9 * 2.0)  # ball stays small
    # coverage guarantee ring·res·LAT_DEG_M ≥ radius, +1 ring of slack
    ring = int(np.ceil(radius_m / (index_mod.LAT_DEG_M * res_deg))) + 1
    ref = ray.put(pa.table({"id": np.asarray(site_ids), "lon": np.asarray(site_lon, np.float64),
                            "lat": np.asarray(site_lat, np.float64)}))

    from .geodesic import haversine_matrix

    def _join(batch: pa.Table) -> pa.Table:
        sites = _cached(("geofence", ref.hex(), radius_m), lambda: _Targets(ray.get(ref), res_deg))
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        rows_out, sites_out = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        dists_out = [np.empty(0)]
        # per-CELL, not per-point: the candidate set builds once per cell and
        # the distance test is one vectorized matrix per cell group
        for cell, qi in _by_cell(index_mod.cell_id(lon, lat, res_deg)):
            cand = sites.candidates(int(cell), ring)
            if not len(cand):
                continue
            d = haversine_matrix(lon[qi], lat[qi], sites.lon[cand], sites.lat[cand])
            pi_idx, si_idx = np.nonzero(d <= radius_m)
            rows_out.append(qi[pi_idx])
            sites_out.append(cand[si_idx])
            dists_out.append(d[pi_idx, si_idx])
        rows, sidx, dist = (np.concatenate(v) for v in (rows_out, sites_out, dists_out))
        o = np.argsort(rows, kind="stable")
        out = batch.take(pa.array(rows[o]))
        out = out.append_column("site_id", sites.ids.take(sidx[o]))
        return out.append_column("site_dist_m", pa.array(dist[o], pa.float64()))

    return _map_blocks(ds, _join, batch_size=batch_size, stream=True)


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
    is broadcast; each distance row gains (lon2, lat2). Methods: 'sphere'
    (closed form) or 'vincenty' (ellipsoidal, geodesic.vincenty_direct)."""
    _check_method(method)

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
    path, pl_sample_image_array_*): group tiles by image, assemble them into
    one image over the tiles' full extent (:func:`warp.mosaic_from_tiles`),
    warp it with :func:`warp.warp_image` into the image's default window
    (:func:`warp.default_warp_window`) and clip to uint8, emit one warped
    row per image. The pixels equal a direct ``warp_image`` of the whole
    image byte for byte: the mosaic's padding past the image reads 0, as
    the border does (the cubic filters, which clamp to the edge instead,
    equal it when the image fills its tiles).

    Expects columns: image_id, tile_col, tile_row, tile_size, bytes, w(full),
    h(full), lon0, lat0, px_deg. Partitioning assumption: all of an image's
    tiles co-locate via the groupby shuffle (tile payloads move once).
    """
    from .warp import default_warp_window, mosaic_from_tiles

    params = params or ProjParams(**param_kw)
    prepped_ref = (proj_name, params)

    schema = pa.schema([("image_id", pa.string()), ("bytes", pa.binary()),
                        ("w", pa.int32()), ("h", pa.int32()), ("fmt", pa.string())])

    def assemble_and_warp(group: pa.Table) -> dict:
        prepped = _cached(("mosaic_proj",) + prepped_ref, lambda: prepare(proj_name, params))
        r0 = group.slice(0, 1).to_pylist()[0]
        ts, fmt = r0["tile_size"], r0.get("fmt", "raw")
        cols = (group[c].to_pylist() for c in ("tile_col", "tile_row", "bytes"))
        mosaic = mosaic_from_tiles(((tx, ty, decode_image(buf, ts, ts, fmt))
                                    for tx, ty, buf in zip(*cols)), ts)
        w, h = r0["w"], r0["h"]
        georef = GeoRef(r0["lon0"], r0["lat0"], r0["px_deg"])
        spec = WarpSpec(proj_name, params, *default_warp_window(prepped, georef, w, h), w, h,
                        filter=filter)
        with np.errstate(all="ignore"):
            out = warp_image(mosaic, georef, spec, prepped)
        out8 = np.clip(out, 0, 255).astype(np.uint8)
        return {"image_id": [r0["image_id"]], "bytes": [encode_image(out8)],
                "w": [w], "h": [h], "fmt": ["raw"]}

    return _map_groups(tiles_ds, "image_id", assemble_and_warp, schema)


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
    zero-padded edge-tile convention of cut_tiles. ``tiles`` carries
    :data:`TILE_SCHEMA`'s columns (:func:`warp_and_tile`'s output). Emits
    all levels, level 0 = input; columns are :data:`TILE_SCHEMA`'s plus
    ``level`` (int32).

    Downsampling is float32 mean-of-4 rounded to uint8 per level (document:
    composing k levels is NOT bit-identical to one 2^k box filter — each
    level re-rounds, the standard pyramid behavior).
    """
    schema = TILE_SCHEMA.append(pa.field("level", pa.int32()))

    def tag0(batch: pa.Table) -> pa.Table:
        return batch.select(TILE_SCHEMA.names).append_column(
            "level", pa.array(np.zeros(batch.num_rows, np.int32)))

    def add_parent(batch: pa.Table) -> pa.Table:
        tx = batch["tile_col"].to_numpy()
        ty = batch["tile_row"].to_numpy()
        return batch.append_column(
            "parent", pa.array((ty // 2).astype(np.int64) * 1_000_000 + (tx // 2))
        )

    def make_merge4(lvl: int):  # bind the level NOW (datasets execute lazily)
        def merge4(group: pa.Table) -> dict:
            first = group.slice(0, 1)
            ts, tx0, ty0 = (first[c][0].as_py() for c in ("tile_size", "tile_col", "tile_row"))
            canvas = np.zeros((2 * ts, 2 * ts, 4), np.float32)
            cols = (group[c].to_pylist() for c in ("bytes", "tile_col", "tile_row"))
            for buf, tx, ty in zip(*cols):
                oy, ox = (ty % 2) * ts, (tx % 2) * ts
                canvas[oy : oy + ts, ox : ox + ts] = decode_image(buf, ts, ts, "raw")
            down = canvas.reshape(ts, 2, ts, 2, 4).mean(axis=(1, 3))
            down8 = np.clip(np.floor(down + 0.5), 0, 255).astype(np.uint8)
            return {
                **{c: first[c] for c in schema.names},
                "tile_col": [tx0 // 2],
                "tile_row": [ty0 // 2],
                "tile_idx": [-1],  # per-level ids re-derive
                "bytes": [encode_image(down8)],
                "w": [ts],
                "h": [ts],
                "level": [lvl],
            }

        return merge4

    out = level_ds = _map_blocks(tiles, tag0, batch_size=None)
    for lvl in range(1, levels + 1):
        level_ds = _map_groups(_map_blocks(level_ds, add_parent, batch_size=None),
                               [group_col, "parent"], make_merge4(lvl), schema)
        out = out.union(level_ds)
    return out


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

    Combiner shape: each ``batch_size``-row slice of a block (the whole
    block when None) pre-aggregates to sparse (cell, pixel, n) rows — a hot
    cell ships at most tile_px² rows per slice, never its points — then one
    groupby(cell) merge densifies them into tile bytes with one
    ``np.bincount``. Pixel row 0 sits at the cell's lat_min (latitude-up,
    documented); sub-pixel indices derive from the same v=(lon+180)/res
    expression as cell ids, so the raster content is SQL-reproducible
    bit-for-bit. Output rows: (cell_id, bytes raw single-channel uint8, w,
    h, fmt='rawl').
    """
    nx_, ny_ = index_mod.nx(res_deg), index_mod.ny(res_deg)
    npix = tile_px * tile_px
    schema = pa.schema([("cell_id", pa.int64()), ("bytes", pa.binary()),
                        ("w", pa.int32()), ("h", pa.int32()), ("fmt", pa.string())])

    def partial(batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch[lon_col], np.float64)
        lat = np.asarray(batch[lat_col], np.float64)
        v = (lon + 180.0) / res_deg
        u = (lat + 90.0) / res_deg
        ix = np.clip(np.floor(v).astype(np.int64), 0, nx_ - 1)
        iy = np.clip(np.floor(u).astype(np.int64), 0, ny_ - 1)
        px = np.clip(np.floor(v * tile_px).astype(np.int64) - ix * tile_px, 0, tile_px - 1)
        py = np.clip(np.floor(u * tile_px).astype(np.int64) - iy * tile_px, 0, tile_px - 1)
        key, counts = np.unique((iy * nx_ + ix) * npix + py * tile_px + px, return_counts=True)
        return pa.table({"cell_id": key // npix, "pix": key % npix, "pn": counts.astype(np.int64)})

    def densify(group: pa.Table) -> dict:
        tile = np.bincount(group["pix"].to_numpy(), weights=group["pn"].to_numpy(),
                           minlength=npix)
        return {"cell_id": group["cell_id"][:1],
                "bytes": [np.minimum(tile, 255).astype(np.uint8).tobytes()],
                "w": [tile_px], "h": [tile_px], "fmt": ["rawl"]}

    return _map_groups(_map_blocks(ds, partial, batch_size=batch_size), "cell_id", densify, schema)


def cell_counts(
    ds: ray.data.Dataset,
    *,
    batch_size: int | None = None,
):
    """Skew-proof count per ``cell_id`` as a pandas DataFrame with int64
    columns ``cell_id`` and ``n``: :func:`_count_cells`' per-slice partials
    merged on the driver. A hot cell adds one row per slice, and Ray's
    sort-based aggregate would add seconds of fixed latency for a few
    thousand output rows (measured 13.6 s → 7.7 s on the headline
    pipeline)."""
    counts, _ = _count_cells(ds, "cell_id", batch_size)
    return counts.select(["cell_id", "n"]).sort_by("cell_id").to_pandas()
