"""Sources & sinks (SURVEY §2.2): the reference has none (host-memory only);
here the canonical storage is columnar files read/written by Ray Data.

Lance is the north-rule's nominal table format; this container ships no lance
bindings, so the readers try `ray.data.read_lance` first and fall back to
Parquet transparently — the engine is format-agnostic (everything downstream
is Arrow batches).

The tile sink writes one Parquet file per write task, each row carrying a
stored ``bucket`` column (``cell_id % n_buckets``) and each block's rows
sorted by it, so downstream cell joins read only the rows of matching
buckets (a ``filter=`` on ``bucket``, which Parquet row-group statistics
can prune) without a directory per bucket: the file count follows the
write tasks, not tasks × buckets.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from .index import DEFAULT_RES_DEG


def read_table(path: str, *, columns: list[str] | None = None, **kw) -> rd.Dataset:
    """Read a Lance dataset if available/applicable, else Parquet (file or dir).

    Column pruning is always pushed down (`columns=`), per the prune-at-the-
    read rule.
    """
    if path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions")):
        try:
            return rd.read_lance(path, columns=columns, **kw)
        except (AttributeError, ImportError) as exc:  # no lance bindings here
            raise NotImplementedError(
                "lance bindings are not available in this environment; "
                "store the table as parquet"
            ) from exc
    return rd.read_parquet(path, columns=columns, **kw)


def read_images(path: str, *, with_georef: bool = True) -> rd.Dataset:
    """The `images` table (input_hint schema) with optional georef sidecar."""
    cols = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash"]
    if with_georef:
        cols += ["lon0", "lat0", "px_deg", "src_datum"]
    return read_table(path, columns=cols)


def write_tiles(
    tiles: rd.Dataset,
    out_dir: str,
    *,
    cell_col: str = "cell_id",
    n_buckets: int = 64,
    **kw,
) -> None:
    """Cell-bucketed tile sink: adds ``bucket = cell % n_buckets`` as a
    stored column, sorts each block's rows by it, and writes one Parquet
    file per write task (``kw`` goes to ``write_parquet``). Cell-keyed
    consumers read only their buckets' rows via :func:`read_tile_buckets`."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        cells = batch[cell_col].to_numpy(zero_copy_only=False)
        bucket = (cells % n_buckets).astype(np.int64)
        order = np.argsort(bucket, kind="stable")
        return batch.append_column("bucket", pa.array(bucket)).take(order)

    tiles.map_batches(add_bucket, batch_format="pyarrow", batch_size=None).write_parquet(
        out_dir, **kw
    )


def read_tile_buckets(out_dir: str, cells: np.ndarray, *, n_buckets: int = 64) -> rd.Dataset:
    """Read only the rows of the buckets that can contain the given cells
    (empty, with the sink's schema, when none match)."""
    wanted = sorted({int(c) % n_buckets for c in np.asarray(cells).ravel()})
    return rd.read_parquet(out_dir, filter=pc.field("bucket").isin(wanted))


def write_geotiffs(ds: rd.Dataset, out_dir: str, *, compression: str = "deflate",
                   skip_existing: bool = True, batch_size: int | None = 16) -> rd.Dataset:
    """GeoTIFF export sink: one ``<image_id>.tif`` per images-schema row
    (raw RGBA pixels + lon0/lat0/px_deg), with the georeference embedded as
    GeoTIFF ModelPixelScale/ModelTiepoint tags (tiff.py) — the inverse of
    ops.ingest_geotiff, so exported rasters re-ingest with no sidecar
    columns. File-per-image output is resumable: with ``skip_existing`` a
    rerun skips rows whose file already exists. Returns the manifest
    Dataset (image_id, path, n_bytes, skipped) — consume it (write/iterate)
    to drive the export."""
    os.makedirs(out_dir, exist_ok=True)

    def _export(batch: pa.Table) -> pa.Table:
        from .images import decode_image
        from .tiff import GeoTags, encode_tiff

        ids = batch["image_id"].to_pylist()
        paths, sizes, skipped = [], [], []
        for i, iid in enumerate(ids):
            path = os.path.join(out_dir, f"{iid}.tif")
            paths.append(path)
            if skip_existing and os.path.exists(path):
                sizes.append(os.path.getsize(path))
                skipped.append(True)
                continue
            row = {c: batch[c][i].as_py() for c in
                   ("bytes", "w", "h", "fmt", "lon0", "lat0", "px_deg")}
            img = decode_image(row["bytes"], row["w"], row["h"], row["fmt"])
            geo = GeoTags(row["px_deg"], row["px_deg"], 0.0, 0.0,
                          row["lon0"], row["lat0"])
            blob = encode_tiff(img, geo=geo, compression=compression,
                               predictor=2)  # horiz differencing: ~40% smaller
            tmp = path + ".part"
            with open(tmp, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)  # atomic: no torn files on crash/resume
            sizes.append(len(blob))
            skipped.append(False)
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "path": pa.array(paths, pa.string()),
            "n_bytes": pa.array(sizes, pa.int64()),
            "skipped": pa.array(skipped, pa.bool_()),
        })

    return ds.map_batches(_export, batch_format="pyarrow", batch_size=batch_size)


def read_geotiffs(paths: str | list[str], *, batch_size: int | None = 16) -> rd.Dataset:
    """Read a directory (or explicit list) of GeoTIFF files into the images
    schema via ops.ingest_geotiff — georeference comes from the embedded
    tags. image_id = file stem."""
    from .ops import ingest_geotiff

    if isinstance(paths, str):
        paths = [os.path.join(paths, f) for f in sorted(os.listdir(paths))
                 if f.endswith((".tif", ".tiff"))]

    def load(row: dict) -> dict:
        with open(row["path"], "rb") as f:
            blob = f.read()
        stem = os.path.splitext(os.path.basename(row["path"]))[0]
        return {"image_id": stem, "bytes": blob}

    files = rd.from_items([{"path": p} for p in paths])
    return ingest_geotiff(files.map(load), batch_size=batch_size)
