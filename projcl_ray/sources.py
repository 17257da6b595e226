"""Sources & sinks (SURVEY §2.2): the reference has none (host-memory only);
here the canonical storage is columnar files read/written by Ray Data.

Tables are Parquet (a file or a directory of files); everything downstream
is Arrow batches, so the engine is format-agnostic. Lance, the nominal table
format, is not read: its bindings are not installed.

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
import pyarrow.dataset as pads

import ray
import ray.data as rd
from ray.data import DataContext

from .index import DEFAULT_RES_DEG
from .ops import _map_blocks


def _one_block_per_file(files: list[pads.ParquetFileFragment], schema: pa.Schema) -> int | None:
    """``override_num_blocks`` for a Parquet read of ``schema``'s columns
    from ``files``: one block per file where Ray's default would split
    them, else None (Ray's default).

    A read that splits its blocks is never fused with the stages after it,
    so each extra block costs a Ray task. Ray's default asks for
    ``max(min(read_op_min_num_blocks, size / target_min_block_size),
    2 * CPUs)`` blocks and splits each file's output when that exceeds the
    file count. Its ``size`` is the row groups' uncompressed bytes times a
    decoding ratio of at least 1, sampled from the columns it reads: no
    smaller than those bytes and, for files of one shape, than what the
    integer and float columns take in memory. The larger of the two stands
    in for it here, so one block per file does not ask for more blocks
    than Ray's default. It is asked for only when there are at least as
    many files as CPUs: with fewer, the split keeps every CPU busy; with
    more than the default, Ray groups several files per task and does not
    split."""
    n, ctx = len(files), DataContext.get_current()
    cpus = int(ray.cluster_resources().get("CPU", 1)) if ray.is_initialized() else os.cpu_count() or 1
    if n < cpus:
        return None
    metas = [f.metadata for f in files]
    row_bytes = sum(t.bit_width for t in schema.types if pa.types.is_integer(t) or pa.types.is_floating(t)) // 8
    size = max(sum(m.row_group(i).total_byte_size for m in metas for i in range(m.num_row_groups)),
               sum(m.num_rows for m in metas) * row_bytes)
    default = max(min(ctx.read_op_min_num_blocks, size // ctx.target_min_block_size), 2 * cpus)
    return n if n <= default else None


def read_table(path: str, *, columns: list[str] | None = None, **kw) -> rd.Dataset:
    """Read a Parquet table (a file or a directory of files).

    Column pruning is always pushed down (`columns=`), per the prune-at-the-
    read rule. A Parquet read asks for one block per file where Ray's
    default would split them (:func:`_one_block_per_file`). It reads with
    the files' unified schema stripped of its metadata: the ``b'pandas'``
    entry pandas-written files carry makes every multi-block schema unify
    log a "Failed to hash the schemas" warning.
    """
    # the files Ray's read scans: its discovery is Arrow's dataset discovery
    files = list(pads.dataset(path, format="parquet", filesystem=kw.get("filesystem"))
                 .get_fragments())
    if files:
        schema = pa.unify_schemas([f.physical_schema for f in files], promote_options="permissive")
        if columns is not None:  # Ray reads each batch into this schema as is
            schema = pa.schema([schema.field(c) for c in columns])
        kw.setdefault("schema", schema.remove_metadata())
        kw.setdefault("override_num_blocks", _one_block_per_file(files, schema))
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

    _map_blocks(tiles, add_bucket, batch_size=None).write_parquet(out_dir, **kw)


def read_tile_buckets(out_dir: str, cells: np.ndarray, *, n_buckets: int = 64) -> rd.Dataset:
    """Read only the rows of the buckets that can contain the given cells
    (empty, with the sink's schema, when none match)."""
    wanted = sorted({int(c) % n_buckets for c in np.asarray(cells).ravel()})
    return rd.read_parquet(out_dir, filter=pc.field("bucket").isin(wanted))


def write_geotiffs(ds: rd.Dataset, out_dir: str, *, batch_size: int | None = 16) -> rd.Dataset:
    """GeoTIFF export sink: one ``<image_id>.tif`` per images-schema row
    (raw RGBA pixels + lon0/lat0/px_deg), with the georeference embedded as
    GeoTIFF ModelPixelScale/ModelTiepoint tags (tiff.py) — the inverse of
    ops.ingest_geotiff, so exported rasters re-ingest with no sidecar
    columns. Files are deflate-compressed with horizontal differencing
    (predictor 2, ~40% smaller). File-per-image output is resumable: a rerun
    skips rows whose file already exists. Returns the manifest
    Dataset (image_id, path, n_bytes, skipped) — consume it (write/iterate)
    to drive the export. Each block is exported ``batch_size`` rows at a
    time. An ``image_id`` that is not a plain file name (empty, ``.`` or
    ``..``, absolute, or holding a path separator or NUL) raises
    ``ValueError`` before its slice writes anything, so no file lands
    outside ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)

    def _export(batch: pa.Table) -> pa.Table:
        from .images import decode_image
        from .tiff import GeoTags, encode_tiff

        ids = batch["image_id"].to_pylist()
        for iid in ids:
            if (not iid or iid in (".", "..") or os.path.isabs(iid)
                    or any(c in iid for c in ("/", os.sep, "\0"))):
                raise ValueError(f"write_geotiffs: image_id {iid!r} is not a plain file name")
        paths, sizes, skipped = [], [], []
        for i, iid in enumerate(ids):
            path = os.path.join(out_dir, f"{iid}.tif")
            paths.append(path)
            if os.path.exists(path):
                sizes.append(os.path.getsize(path))
                skipped.append(True)
                continue
            row = {c: batch[c][i].as_py() for c in
                   ("bytes", "w", "h", "fmt", "lon0", "lat0", "px_deg")}
            img = decode_image(row["bytes"], row["w"], row["h"], row["fmt"])
            geo = GeoTags(row["px_deg"], row["px_deg"], 0.0, 0.0,
                          row["lon0"], row["lat0"])
            blob = encode_tiff(img, geo=geo, predictor=2)
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

    return _map_blocks(ds, _export, batch_size=batch_size)
