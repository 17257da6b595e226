"""Seeded inputs for the benchmark, generated once per (seed, size, format)
and cached under the work directory.

The program under test only ever sees the files written here. Everything
is derived from the seed passed on the command line (and from the fixed
TPC-H sf0.1 lineitem/nation tables, which DuckDB's built-in ``dbgen``
generates deterministically), so the same seed always gives the same
inputs. Expectations used by the output checks are computed here too,
once per seed, and stored next to the inputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_IMAGES = 256  # mixed 64/96/128 px, about 710 64-px tiles
IMAGES_PER_FILE = 64
WARM_IMAGES = 4
# Two warm-up files, so that the warm-up queues a read behind a running
# task: that is what makes Ray Data start its autoscaling helper actor.
WARM_FILES = 2
TILE = 64
RES_DEG = 5.0  # ops.warp_and_tile's default cell size
JPEG_QUALITY = 90
LINEITEM_CHUNK = 10_000  # rows per shuffled chunk of the lineitem table
LINEITEM_FILES = 6
WARM_POINTS = 5_000


def _build(path: str, fill) -> str:
    """Create ``path`` atomically: ``fill(tmp)`` writes into a scratch
    directory that is renamed into place only once it is complete."""
    if os.path.isdir(path):
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    fill(tmp)
    os.replace(tmp, path)
    return path


def _write_parts(tbl: pa.Table, out_dir: str, rows_per_file: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for k, start in enumerate(range(0, tbl.num_rows, rows_per_file)):
        pq.write_table(tbl.slice(start, rows_per_file), os.path.join(out_dir, f"part-{k:03d}.parquet"))


def _as_jpeg(raw: pa.Table) -> pa.Table:
    from projcl_ray.images import decode_image, encode_image

    bufs = [
        encode_image(decode_image(b, w, h, "raw"), "jpeg", quality=JPEG_QUALITY)
        for b, w, h in zip(raw["bytes"].to_pylist(), raw["w"].to_pylist(), raw["h"].to_pylist())
    ]
    tbl = raw.set_column(raw.schema.get_field_index("bytes"), "bytes", pa.array(bufs, pa.binary()))
    return tbl.set_column(tbl.schema.get_field_index("fmt"), "fmt",
                          pa.array(["jpeg"] * tbl.num_rows, pa.string()))


def expected_tile_layout(meta: pa.Table, proj_name: str, params) -> dict:
    """Tile count and cell histogram of a warp+tile run over ``meta``.

    The count is Σ ceil(w/64)·ceil(h/64): the warp keeps each image's size.
    The histogram depends only on each image's georeference (the tile
    layout never looks at pixel values), so it is the same for the raw and
    the JPEG copy of a corpus: the tile centre of tile (tx, ty) is the
    window origin plus its fractional offset, inverse-projected, then
    binned into RES_DEG cells.
    """
    from projcl_ray import index, warp
    from projcl_ray.proj import prepare

    prepped = prepare(proj_name, params)
    n_tiles = 0
    cells: dict[int, int] = {}
    for w, h, lon0, lat0, px in zip(*(meta[c].to_pylist() for c in ("w", "h", "lon0", "lat0", "px_deg"))):
        across, down = math.ceil(w / TILE), math.ceil(h / TILE)
        n_tiles += across * down
        ox, oy, sx, sy = warp.default_warp_window(prepped, warp.GeoRef(lon0, lat0, px), w, h)
        tx = np.tile(np.arange(across, dtype=np.float64), down)
        ty = np.repeat(np.arange(down, dtype=np.float64), across)
        cx = ox + sx * np.minimum((tx + 0.5) * TILE / max(w - 1, 1), 1.0)
        cy = oy + sy * np.minimum((ty + 0.5) * TILE / max(h - 1, 1), 1.0)
        with np.errstate(all="ignore"):
            clon, clat = prepped.inverse(cx, cy)
        for c in index.cell_id(clon, clat, RES_DEG).tolist():
            cells[c] = cells.get(c, 0) + 1
    return {"tiles": n_tiles, "cells": {str(k): v for k, v in sorted(cells.items())}}


def image_corpus(work: str, seed: int, fmt: str, proj_name: str, params) -> dict:
    """Partitioned parquet image corpus (raw RGBA or baseline JPEG q90) of
    N_IMAGES seeded images, a WARM_IMAGES warm-up slice, and the expected
    tile layout. Returns the paths and expectations."""
    from projcl_ray.images import synth_images_table

    root = os.path.join(work, "inputs", f"images-{fmt}-n{N_IMAGES}-s{seed}")

    def fill(tmp: str) -> None:
        tbl = synth_images_table(N_IMAGES, seed=seed)
        if fmt == "jpeg":
            tbl = _as_jpeg(tbl)
        _write_parts(tbl, os.path.join(tmp, "corpus"), IMAGES_PER_FILE)
        _write_parts(tbl.slice(0, WARM_IMAGES), os.path.join(tmp, "warm"), WARM_IMAGES // WARM_FILES)
        with open(os.path.join(tmp, "expected.json"), "w") as f:
            json.dump(expected_tile_layout(tbl, proj_name, params), f)

    _build(root, fill)
    with open(os.path.join(root, "expected.json")) as f:
        expected = json.load(f)
    return {"corpus": os.path.join(root, "corpus"), "warm": os.path.join(root, "warm"),
            "rows": N_IMAGES, "expected": expected}


def _tpch(work: str) -> str:
    """TPC-H sf0.1 lineitem keys and nation table, from DuckDB's built-in
    generator (deterministic; no seed)."""
    import duckdb

    def fill(tmp: str) -> None:
        con = duckdb.connect()
        try:
            con.execute("CALL dbgen(sf=0.1)")
            pq.write_table(con.sql("SELECT l_orderkey, l_partkey FROM lineitem").arrow(),
                           os.path.join(tmp, "lineitem.parquet"))
            pq.write_table(con.sql("SELECT * FROM nation").arrow(), os.path.join(tmp, "nation.parquet"))
        finally:
            con.close()

    return _build(os.path.join(work, "inputs", "tpch-sf0.1"), fill)


def _pip_oracle(sf_dir: str) -> dict:
    """Per-polygon (count, Σ l_orderkey) of the PIP join, from the DuckDB
    transcription in ``queries.ORACLES`` (independent of the Ray path)."""
    import duckdb

    from projcl_ray.queries import ORACLES

    con = duckdb.connect()
    try:
        con.execute(f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{sf_dir}/lineitem.parquet/*.parquet')")
        con.execute(f"CREATE VIEW nation AS SELECT * FROM read_parquet('{sf_dir}/nation.parquet')")
        rows = con.sql(ORACLES["pip_join_boxes"]).fetchall()
    finally:
        con.close()
    return {str(pid): [int(n), int(s)] for pid, n, s in sorted(rows)}


def lineitem_points(work: str, seed: int) -> dict:
    """The sf0.1 lineitem keys as LINEITEM_FILES parquet files whose
    LINEITEM_CHUNK-row chunks are laid out in a seeded order, a
    WARM_POINTS-row warm-up copy, and the PIP oracle for the layout."""
    base = _tpch(work)
    root = os.path.join(work, "inputs", f"lineitem-s{seed}")

    def fill(tmp: str) -> None:
        keys = pq.read_table(os.path.join(base, "lineitem.parquet"))
        starts = np.arange(0, keys.num_rows, LINEITEM_CHUNK)
        order = np.random.default_rng(seed).permutation(len(starts))
        shuffled = pa.concat_tables([keys.slice(int(starts[i]), LINEITEM_CHUNK) for i in order])
        for name, tbl, files in (("sf", shuffled, LINEITEM_FILES), ("warm", shuffled.slice(0, WARM_POINTS), WARM_FILES)):
            _write_parts(tbl, os.path.join(tmp, name, "lineitem.parquet"), -(-tbl.num_rows // files))
            shutil.copy(os.path.join(base, "nation.parquet"), os.path.join(tmp, name, "nation.parquet"))
        with open(os.path.join(tmp, "expected.json"), "w") as f:
            json.dump({"rows": shuffled.num_rows, "pip": _pip_oracle(os.path.join(tmp, "sf"))}, f)

    _build(root, fill)
    with open(os.path.join(root, "expected.json")) as f:
        expected = json.load(f)
    return {"corpus": os.path.join(root, "sf"), "warm": os.path.join(root, "warm"),
            "rows": expected["rows"], "expected": expected}
