"""Ray Data stage builders: every ProjCL capability (and the north-rule
spatial-join/tiling additions) expressed as a transform over a
``ray.data.Dataset``.

Design rules (SURVEY §1.3/§7):
- every stage is built by one of two builders, Arrow in and Arrow out, the
  way ProjCL runs every capability as one kernel shape over one flat
  buffer: :func:`_map_blocks` for per-block work (one ``map_batches`` call,
  whole blocks sliced inside the UDF) and :func:`_map_groups` for per-group
  work after one ``groupby`` shuffle (each group's output typed by a
  declared schema). No stage UDF takes or returns pandas or a NumPy dict,
  so Ray never infers a column type or unifies differing block schemas;
- per-record math = stateless ``map_columns``: the UDF reads the columns it
  needs as NumPy (zero-copy for primitive columns) and returns only the
  columns it adds or replaces; every other column stays the Arrow array it
  was. Params are frozen in closures (the host-precompute step of the
  reference, done once at build time);
- image/join stages are stateless tasks with a per-worker-process state
  cache (see _cached below) — one execution mode per stage;
- small lookup sides (polygon layers, kNN targets) broadcast once via
  ``ray.put`` and fetched zero-copy per worker — never re-shipped per batch;
- wide ops keyed on ``cell_id`` with optional salting for hot cells.

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
    karney_direct,
    karney_inverse,
    vincenty_direct,
    vincenty_inverse,
)
from .images import CHANNELS, decode_image, encode_image
from .proj import ProjParams, prepare
from .warp import GeoRef, WarpSpec, warp_images_u8, warp_windows
from .warp import warp_image  # noqa: F401  ops.warp_image, the per-image warp (perfbench traces it)

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

_ELL_INVERSE = {"vincenty": vincenty_inverse, "karney": karney_inverse}
_ELL_DIRECT = {"vincenty": vincenty_direct, "karney": karney_direct}


def _check_method(method: str, accepted) -> None:
    """Reject a geodesic method the stage does not implement, at build time."""
    if method not in accepted:
        raise ValueError(f"unknown geodesic method {method!r}; expected one of {sorted(accepted)}")


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
    subset) or pure 'karney', incl. azimuth columns)."""
    _check_method(method, {"haversine", *_ELL_INVERSE})

    def _hav(cols: dict) -> dict:
        return {out: haversine(cols[lon1], cols[lat1], cols[lon2], cols[lat2], radius)}

    def _ell(cols: dict) -> dict:
        solver = _ELL_INVERSE[method]
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
    src/projcl_run.c:694-745, as a controlled flat-map): 'sphere',
    'vincenty' or 'karney'."""
    _check_method(method, {"sphere", *_ELL_DIRECT})
    az = np.asarray(list(azimuths_deg), np.float64)

    def _fan(batch: pa.Table) -> pa.Table:
        lon = np.asarray(batch[lon_col], np.float64)
        lat = np.asarray(batch[lat_col], np.float64)
        n, m = len(lon), len(az)
        if method == "sphere":
            lon2, lat2 = forward_sphere(lon[:, None], lat[:, None], az[None, :], distance_m, radius)
        else:
            lon2, lat2, _ = _ELL_DIRECT[method](lon[:, None], lat[:, None], az[None, :],
                                                distance_m, spheroid)
        out = batch.take(pa.array(np.repeat(np.arange(n), m)))
        out = out.append_column("azimuth_deg", pa.array(np.tile(az, n)))
        out = out.append_column("lon2", pa.array(lon2.ravel()))
        return out.append_column("lat2", pa.array(lat2.ravel()))

    return _map_blocks(ds, _fan, batch_size=batch_size, stream=True)


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
    Stateless tasks over ``batch_size``-image slices of each block (rows are
    wide); bytes/w/h columns are replaced in place, everything else passes
    through."""
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

    return _map_blocks(ds, _resize, batch_size=batch_size, stream=True)


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
# PIP join & kNN (broadcast small side; shuffle path keyed on cell_id)
# ---------------------------------------------------------------------------


class PIPJoinActor:
    """Broadcast PIP join: polygon layer fetched once per worker process from
    the object store; per batch, candidate-filter by bbox then exact
    ray-crossing test. Emits one output row per (point, containing polygon)
    pair."""

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
) -> ray.data.Dataset:
    """Point-in-polygon join against a small polygon layer: broadcast via
    ray.put once, fetched zero-copy per worker process (cached), no shuffle.
    One stage call receives a whole block, tests ``batch_size``-row slices
    of it and returns one table; ``batch_size`` does not merge small
    blocks."""
    ref = ray.put(polygons)

    def _pip(batch: pa.Table) -> pa.Table:
        worker = _cached(("pip", ref.hex(), lon_col, lat_col),
                         lambda: PIPJoinActor(ref, lon_col, lat_col))
        return worker(batch)

    return _map_blocks(ds, _pip, batch_size=batch_size)


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
) -> ray.data.Dataset:
    """Geodesic kNN join. ``prune_res_deg`` switches on the ring-of-cells
    candidate pruning (the 100 TB path: per-query cost scales with local
    target density, not total target count)."""
    ref = ray.put((np.asarray(target_ids), np.asarray(target_lon), np.asarray(target_lat)))

    def _knn(batch: pa.Table) -> pa.Table:
        worker = _cached(("knn", ref.hex(), k, lon_col, lat_col, prune_res_deg),
                         lambda: KnnActor(ref, k, lon_col, lat_col, prune_res_deg))
        return worker(batch)

    return _map_blocks(ds, _knn, batch_size=batch_size, stream=True)


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
    max_ring = int(180.0 / res_deg) + 1
    q_slim = queries.select_columns([query_id_col, lon_col, lat_col])
    t_cells = assign_cells(
        targets.select_columns([target_id_col, lon_col, lat_col]),
        lon_col=lon_col, lat_col=lat_col, res_deg=res_deg,
    )
    qid_type = q_slim.schema().base_schema.field(query_id_col).type
    tid_type = t_cells.schema().base_schema.field(target_id_col).type
    # sentinel and re-probe rows carry a null target id (dist=inf marks them)
    topk_schema = pa.schema([(query_id_col, qid_type), (target_id_col, tid_type),
                             ("dist", pa.float64()), (lon_col, pa.float64()),
                             (lat_col, pa.float64())])
    merge_schema = pa.schema([(query_id_col, qid_type), (target_id_col, tid_type),
                              ("distance_m", pa.float64()), ("neighbor_rank", pa.int32()),
                              ("knn_done", pa.bool_()), (lon_col, pa.float64()),
                              (lat_col, pa.float64())])

    def tag_targets(batch: pa.Table) -> pa.Table:
        batch = batch.append_column(query_id_col, pa.nulls(batch.num_rows, qid_type))
        batch = batch.append_column("home", pa.array(np.zeros(batch.num_rows, bool)))
        return batch.select(["cell_id", query_id_col, target_id_col, lon_col, lat_col, "home"])

    # batch_size coalesces small target blocks (from_items, a shuffle's
    # output): every round's shuffle pays a map task per target block
    t_tagged = t_cells.map_batches(tag_targets, batch_format="pyarrow",
                                   batch_size=128 * 1024).materialize()

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
                    query_id_col: batch[query_id_col].take(rows),
                    target_id_col: pa.nulls(len(rows), tid_type),
                    lon_col: pa.array(lon[rows], pa.float64()),
                    lat_col: pa.array(lat[rows], pa.float64()),
                    # home-cell marker: guarantees every pending query reaches
                    # the merge even when its whole ring holds zero targets
                    "home": pa.array(probe_cells == cells[rows], pa.bool_()),
                }
            )

        return explode

    def cell_topk(group: pa.Table) -> dict | None:
        # output rows carry the QUERY's coordinates so the per-query merge
        # can emit re-probe markers with coords attached — the round loop
        # never has to rejoin pending ids against q_slim (or worse, collect
        # them on the driver)
        is_target = pc.is_valid(group[target_id_col])
        tg = group.filter(is_target)
        qg = group.filter(pc.invert(is_target))
        if not tg.num_rows:
            # sentinel (dist=inf): keeps candidate-less queries visible to the merge
            home = qg.filter(qg["home"])
            if not home.num_rows:
                return None
            return {query_id_col: home[query_id_col],
                    target_id_col: pa.nulls(home.num_rows, tid_type),
                    "dist": np.full(home.num_rows, np.inf),
                    lon_col: home[lon_col], lat_col: home[lat_col]}
        if not qg.num_rows:
            return None
        tids = tg[target_id_col].to_numpy()
        ci, cd = spatial_mod.knn_brute(
            qg[lon_col].to_numpy(), qg[lat_col].to_numpy(),
            tg[lon_col].to_numpy(), tg[lat_col].to_numpy(), k, order_key=tids,
        )
        rep = np.repeat(np.arange(qg.num_rows), ci.shape[1])
        return {query_id_col: qg[query_id_col].take(rep),
                target_id_col: tg[target_id_col].take(ci.ravel()), "dist": cd.ravel(),
                lon_col: qg[lon_col].take(rep), lat_col: qg[lat_col].take(rep)}

    def make_merge(ring_eff: int):
        def merge_q(group: pa.Table) -> dict:
            g = group.filter(pc.is_finite(group["dist"]))
            g = g.sort_by([("dist", "ascending"), (target_id_col, "ascending")]).slice(0, k)
            # ball_candidates exclusion guarantee: non-candidates are
            # ≥ ring·res·LAT_DEG_M away (pole-safe); ring−1 for strictness
            bound_m = (ring_eff - 1) * res_deg * index_mod.LAT_DEG_M
            done = ring_eff >= max_ring or (
                g.num_rows >= k and g["dist"][-1].as_py() <= bound_m
            )
            if not done:
                # ONE re-probe marker row per unfinished query, coords
                # attached: the next round's probe set is a pure Dataset
                # filter over this output — no driver-side id collection,
                # no rejoin against q_slim, and no k-row partial payload
                # riding the shuffle just to signal "not done"
                first = group.slice(0, 1)
                return {query_id_col: first[query_id_col], target_id_col: pa.nulls(1, tid_type),
                        "distance_m": [np.inf], "neighbor_rank": [-1], "knn_done": [False],
                        lon_col: first[lon_col], lat_col: first[lat_col]}
            n = g.num_rows
            return {query_id_col: g[query_id_col], target_id_col: g[target_id_col],
                    "distance_m": g["dist"], "neighbor_rank": np.arange(n, dtype=np.int32),
                    "knn_done": np.ones(n, bool), lon_col: g[lon_col], lat_col: g[lat_col]}

        return merge_q

    def finished(t: pa.Table) -> pa.Table:
        return t.filter(t["knn_done"]).drop_columns(["knn_done", lon_col, lat_col])

    def unfinished(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(t["knn_done"])).select([query_id_col, lon_col, lat_col])

    pending = q_slim
    ring = init_ring
    results: list[ray.data.Dataset] = []
    for _ in range(max_rounds):
        ring_eff = min(ring, max_ring)
        probes = _map_blocks(pending, make_explode(ring_eff), batch_size=None)
        per_cell = _map_groups(probes.union(t_tagged), "cell_id", cell_topk, topk_schema)
        merged = _map_groups(per_cell, query_id_col, make_merge(ring_eff),
                             merge_schema).materialize()
        results.append(_map_blocks(merged, finished, batch_size=None))
        # pending stays a DATASET end-to-end (ids+coords only, one marker
        # row per unfinished query); the loop syncs on a scalar count
        pending = _map_blocks(merged, unfinished, batch_size=None)
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
    or 'vincenty'."""
    _check_method(method, {"sphere", "vincenty"})

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
    inverse-map and sample it with the ordinary sampler, emit one warped row
    per image.

    Expects columns: image_id, tile_col, tile_row, tile_size, bytes, w(full),
    h(full), lon0, lat0, px_deg. Partitioning assumption: all of an image's
    tiles co-locate via the groupby shuffle (tile payloads move once).
    """
    from .warp import SAMPLERS, GeoRef, default_warp_window, dest_grid, mosaic_from_tiles

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
        ox, oy, sx, sy = default_warp_window(prepped, georef, w, h)
        gx, gy = dest_grid(ox, oy, sx, sy, w, h)
        with np.errstate(all="ignore"):
            lon, lat = prepped.inverse(gx.astype(np.float32), gy.astype(np.float32))
        px, py = georef.to_pixels(lon, lat)
        out = SAMPLERS[filter](mosaic, px, py)
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

    return _map_blocks(tiles, _feats, batch_size=batch_size)


def cell_counts(
    ds: ray.data.Dataset,
    *,
    batch_size: int | None = None,
):
    """Skew-proof count per ``cell_id``, returned as a pandas DataFrame with
    int64 columns ``cell_id`` and ``n``.

    Partial counts per ``batch_size``-row slice of each block (the whole
    block when None; the combiner): a hot cell contributes ONE row per
    slice instead of all its rows — pre-aggregation beats salting for
    algebraic aggregates (SURVEY §7). The partial rows stream to the driver
    as Arrow batches and merge incrementally there — no shuffle, and the
    driver holds only the merged distinct cells (≤ 2592 at 5°). Ray's
    sort-based aggregate costs seconds of fixed latency regardless of row
    count; for a few thousand output rows the driver merge removes it
    entirely (measured 13.6 s → 7.7 s on the headline pipeline).
    """

    def partial(batch: pa.Table) -> pa.Table:
        keys, counts = np.unique(np.asarray(batch["cell_id"], np.int64), return_counts=True)
        return pa.table({"cell_id": keys, "n": counts.astype(np.int64)})

    def merge(tables: list[pa.Table]) -> pa.Table:
        sums = pa.concat_tables(tables).group_by("cell_id").aggregate([("n", "sum")])
        return pa.table({"cell_id": sums["cell_id"], "n": sums["n_sum"]})

    acc = [pa.table({"cell_id": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})]
    acc_rows = 0
    merged_rows = 0  # distinct cells after the last compaction
    partials = _map_blocks(ds, partial, batch_size=batch_size)
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        acc.append(b)
        acc_rows += b.num_rows
        # amortized compaction: once the merged table itself exceeds 1M
        # rows, wait until the uncompacted stream doubles it — otherwise
        # every batch would re-group the full merged table
        if acc_rows > max(1_000_000, 2 * merged_rows):
            acc = [merge(acc)]
            acc_rows = merged_rows = acc[0].num_rows
    return merge(acc).sort_by("cell_id").to_pandas()


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

    pts = assign_cells(points, lon_col=lon_col, lat_col=lat_col, res_deg=res_deg)
    # point rows and polygon rows meet in one union of one schema: the
    # point columns, then poly_id and vertices, each null on the other side
    out_schema = pts.schema().base_schema.append(pa.field("poly_id", pa.string()))
    schema = out_schema.append(pa.field("vertices", pa.list_(pa.float64())))

    def tag_points(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({**{c: batch[c] for c in out_schema.names[:-1]},
                         "poly_id": pa.nulls(n), "vertices": pa.nulls(n)}, schema=schema)

    def explode_poly_cells(batch: pa.Table) -> pa.Table:
        rows, cells = [], []
        for i, v in enumerate(batch["vertices"].to_pylist()):
            arr = np.asarray(v, np.float64).reshape(-1, 2)
            c = index_mod.cells_covering_bbox(*arr.min(axis=0), *arr.max(axis=0), res_deg)
            rows.extend([i] * len(c))
            cells.extend(int(x) for x in c)
        out = batch.take(pa.array(rows, pa.int64()))
        n = out.num_rows
        return pa.table({**{c: pa.nulls(n) for c in out_schema.names[:-1]}, "cell_id": cells,
                         "poly_id": out["poly_id"], "vertices": out["vertices"]}, schema=schema)

    def test_cell(group: pa.Table) -> dict | None:
        is_poly = pc.is_valid(group["vertices"])
        polys = group.filter(is_poly)
        pts_g = group.filter(pc.invert(is_poly))
        if not polys.num_rows or not pts_g.num_rows:
            return None
        px = np.asarray(pts_g[lon_col], np.float64)
        py = np.asarray(pts_g[lat_col], np.float64)
        rows, pids = [], []
        for pid, v in zip(polys["poly_id"].to_pylist(), polys["vertices"].to_pylist()):
            hit = np.flatnonzero(spatial_mod.point_in_polygon(px, py, np.asarray(v).reshape(-1, 2)))
            rows.append(hit)
            pids += [pid] * len(hit)
        if not pids:
            return None
        out = pts_g.take(np.concatenate(rows))
        return {**{c: out[c] for c in out_schema.names[:-1]}, "poly_id": pids}

    both = _map_blocks(pts, tag_points, batch_size=None).union(
        _map_blocks(polygons, explode_poly_cells, batch_size=None))
    # a (point, poly) pair can match in one cell only (the point's cell), so
    # no cross-cell dedup is needed — every point has exactly one cell_id.
    return _map_groups(both, "cell_id", test_cell, out_schema)
