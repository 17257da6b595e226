"""The three workloads: one timed pass each through the public
``projcl_ray`` API, its output check, and its driver-side traced replay.

All three use the transverse Mercator projection on WGS_84.

* ``warp_tile``: raw RGBA corpus → ``ops.warp_and_tile`` (bilinear, 64-px
  tiles) → ``ops.cell_counts``. The warp kernel does nearly all the work.
* ``warp_jpeg_write``: the same corpus as baseline JPEG → the same warp →
  ``sources.write_tiles`` into a fresh directory → row count read back.
  Adds decode and the write path.
* ``points_pip``: sf0.1 lineitem points from ``pipelines.derive_points`` →
  TM forward → TM inverse into lon2/lat2 → WGS_84→NAD_27 shift into new
  columns → ``ops.pip_join`` on the untouched lon/lat against
  ``pipelines.nation_boxes`` → per-polygon counts. Engine overhead and the
  float64 point kernels do the work; warp and codecs do none.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from projcl_ray import index, ops, pipelines, sources, spatial, warp
from projcl_ray.proj import ProjParams

import inputs
from spans import patched

PROJ = "transverse_mercator"
PARAMS = ProjParams(spheroid="WGS_84")
FILTER = "bilinear"
WARP_BATCH = 16  # ops.warp_and_tile's default batch size
ROUNDTRIP_TOL_DEG = 1e-6


class CheckFailed(Exception):
    pass


def _hist(cells) -> dict[str, int]:
    keys, counts = np.unique(np.asarray(cells, np.int64), return_counts=True)
    return {str(k): int(v) for k, v in zip(keys.tolist(), counts.tolist())}


def _check_layout(expected: dict, n_tiles: int, cells: dict[str, int]) -> None:
    if n_tiles != expected["tiles"]:
        raise CheckFailed(f"{n_tiles} tiles, expected Σceil(w/64)·ceil(h/64) = {expected['tiles']}")
    if cells != expected["cells"]:
        diff = sorted(k for k in set(cells) | set(expected["cells"])
                      if cells.get(k) != expected["cells"].get(k))
        raise CheckFailed(f"cell histogram differs from the raw tile layout in cells {diff[:8]}")


def _tiles(path: str) -> rd.Dataset:
    return ops.warp_and_tile(sources.read_images(path), PROJ, PARAMS, tile_size=inputs.TILE, filter=FILTER)


def _warp_batches(path: str):
    """The batches ``ops.warp_and_tile`` receives: one block per parquet
    file, cut into WARP_BATCH-row batches."""
    cols = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash", "lon0", "lat0", "px_deg", "src_datum"]
    for name in sorted(os.listdir(path)):
        tbl = pq.read_table(os.path.join(path, name), columns=cols)
        for start in range(0, tbl.num_rows, WARP_BATCH):
            yield tbl.slice(start, WARP_BATCH)


def _percentile_ms(xs: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(xs) * 1e3, q)) if xs else 0.0


def replay_warp(path: str, warm_path: str, tracer) -> tuple[dict, list[pa.Table]]:
    """Run ``ops.WarpTileActor`` in the driver on the pass's batches, twice
    plainly (the faster is the untraced time) and once with spans
    around each public call it makes: decode, window, grid, inverse
    projection, pixel mapping, sampler, tile cut, cell id and encode. The
    actor's own self time is the per-tile appends and the Arrow build. The
    warm-up input is replayed first, untimed."""
    batches = list(_warp_batches(path))
    actor = ops.WarpTileActor(PROJ, PARAMS, tile_size=inputs.TILE, filter=FILTER)
    for b in _warp_batches(warm_path):  # loads the codecs in this process
        actor(b)
    untraced = []
    for _ in range(2):
        t0 = time.perf_counter()
        tiles = [actor(b) for b in batches]
        untraced.append(time.perf_counter() - t0)

    sampler, cut = warp.SAMPLERS[FILTER], index.cut_tiles

    def counted_sampler(img, px, py):
        tracer.counts["warp.pixels"] += int(np.size(px))
        return sampler(img, px, py)

    def counted_cut(img, tile_size):
        out = list(cut(img, tile_size))
        tracer.counts["index.tiles"] += len(out)
        return out

    actor.prepped = dataclasses.replace(actor.prepped, inverse=tracer.wrap("proj.inverse", actor.prepped.inverse))
    with patched(
        (ops, "decode_image", tracer.wrap("images.decode", ops.decode_image)),
        (ops, "encode_image", tracer.wrap("images.encode", ops.encode_image)),
        (ops, "warp_image", tracer.wrap("warp.warp_image", ops.warp_image)),
        (warp, "default_warp_window", tracer.wrap("warp.window", warp.default_warp_window)),
        (warp, "dest_grid", tracer.wrap("warp.grid", warp.dest_grid)),
        (warp.GeoRef, "to_pixels", tracer.wrap("warp.to_pixels", warp.GeoRef.to_pixels)),
        (warp.SAMPLERS, FILTER, tracer.wrap("warp.sampler", counted_sampler)),
        (index, "cut_tiles", tracer.wrap("index.cut_tiles", counted_cut)),
        (index, "cell_id", tracer.wrap("index.cell_id", index.cell_id)),
    ):
        t0 = time.perf_counter()
        for bid, b in enumerate(batches):
            tracer.batch = bid
            with tracer.span("ops.warp_and_tile"):
                actor(b)
        traced = time.perf_counter() - t0

    # per-image latency: each image's loop iteration starts with its decode
    per_image: list[float] = []
    for root in tracer.indices("ops.warp_and_tile"):
        starts = sorted(tracer.spans[i][1] for i in tracer.indices("images.decode")
                        if tracer.spans[i][3] == root)
        ends = starts[1:] + [tracer.spans[root][2]]
        per_image += [e - s for s, e in zip(starts, ends)]

    st = tracer.self_times()
    metrics = {
        "images.decode_s": st.get("images.decode", 0.0),
        "warp.window_s": st.get("warp.window", 0.0),
        "warp.grid_s": st.get("warp.grid", 0.0),
        "proj.inverse_s": st.get("proj.inverse", 0.0),
        "warp.to_pixels_s": st.get("warp.to_pixels", 0.0),
        "warp.sampler_s": st.get("warp.sampler", 0.0),
        "warp.warp_image_s": st.get("warp.warp_image", 0.0),
        "index.cut_tiles_s": st.get("index.cut_tiles", 0.0),
        "index.cell_id_s": st.get("index.cell_id", 0.0),
        "images.encode_s": st.get("images.encode", 0.0),
        "ops.warp_and_tile.build_s": st.get("ops.warp_and_tile", 0.0),
        "ops.warp_and_tile.image_ms_p50": _percentile_ms(per_image, 50),
        "ops.warp_and_tile.image_ms_p99": _percentile_ms(per_image, 99),
        "ops.warp_and_tile.images": len(per_image),
        "warp.pixels": tracer.counts["warp.pixels"],
        "index.tiles": tracer.counts["index.tiles"],
        "trace.replay_s": traced,
        "trace.replay_untraced_s": min(untraced),
    }
    return metrics, tiles


class WarpTile:
    name = "warp_tile"
    fmt = "raw"

    def inputs(self, work: str, seed: int) -> dict:
        return inputs.image_corpus(work, seed, self.fmt, PROJ, PARAMS)

    def run(self, path: str, out_dir: str):
        return ops.cell_counts(_tiles(path))

    def check(self, inp: dict, result, out_dir: str) -> None:
        _check_layout(inp["expected"], int(result["n"].sum()),
                      {str(int(c)): int(n) for c, n in zip(result["cell_id"], result["n"])})

    def replay(self, inp: dict, tracer, out_dir: str) -> dict:
        metrics, tiles = replay_warp(inp["corpus"], inp["warm"], tracer)
        ds = rd.from_arrow(tiles)
        t0 = time.perf_counter()
        merged = ops.cell_counts(ds)
        metrics["ops.cell_counts.merge_s"] = time.perf_counter() - t0
        self.check(inp, merged, out_dir)
        return metrics


class WarpJpegWrite(WarpTile):
    name = "warp_jpeg_write"
    fmt = "jpeg"

    def run(self, path: str, out_dir: str):
        sources.write_tiles(_tiles(path), out_dir)
        return rd.read_parquet(out_dir).count()

    def check(self, inp: dict, result, out_dir: str) -> None:
        try:
            cells = pq.read_table(out_dir, columns=["cell_id"])["cell_id"].to_numpy()
            _check_layout(inp["expected"], result, _hist(cells))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def replay(self, inp: dict, tracer, out_dir: str) -> dict:
        metrics, tiles = replay_warp(inp["corpus"], inp["warm"], tracer)
        ds = rd.from_arrow(tiles)
        t0 = time.perf_counter()
        sources.write_tiles(ds, out_dir)
        metrics["sources.write_s"] = time.perf_counter() - t0
        files = [os.path.join(d, f) for d, _, fs in os.walk(out_dir) for f in fs if f.endswith(".parquet")]
        metrics["sources.files_written"] = len(files)
        metrics["sources.bytes_written"] = sum(os.path.getsize(f) for f in files)
        self.check(inp, sum(pq.ParquetFile(f).metadata.num_rows for f in files), out_dir)
        return metrics


def _check_roundtrip(batch: dict) -> dict:
    """Output check inside the pass, so it sees every row (the join below
    keeps only matches): TM forward then inverse must return each point
    to within ROUNDTRIP_TOL_DEG."""
    err = np.maximum(np.abs(batch["lon2"] - batch["lon"]), np.abs(batch["lat2"] - batch["lat"]))
    if not (err <= ROUNDTRIP_TOL_DEG).all():
        raise CheckFailed(f"TM round-trip error {np.nanmax(err):.3g}° exceeds {ROUNDTRIP_TOL_DEG}°")
    return batch


# (layer, stage builder): each builder adds exactly one map_batches stage
POINT_STAGES = (
    ("pipelines.derive", lambda ds, sf: pipelines.derive_points(sf)),
    ("proj.forward", lambda ds, sf: ops.project_points(ds, PROJ, PARAMS)),
    ("proj.inverse", lambda ds, sf: ops.project_points(ds, PROJ, PARAMS, inverse=True,
                                                       lon_col="lon2", lat_col="lat2")),
    (None, lambda ds, sf: ds.map_batches(_check_roundtrip, batch_format="numpy")),
    ("datums.shift", lambda ds, sf: ops.shift_datum(ds, "WGS_84", "NAD_27",
                                                    out_lon="lon_nad27", out_lat="lat_nad27")),
    ("spatial.pip", lambda ds, sf: ops.pip_join(ds, pipelines.nation_boxes(sf))),
)


def _points_dataset(sf_dir: str) -> rd.Dataset:
    ds = None
    for _, build in POINT_STAGES:
        ds = build(ds, sf_dir)
    return ds


def _pip_counts(tables) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for t in tables:
        if t.num_rows == 0:
            continue
        g = t.group_by("poly_id").aggregate([("l_orderkey", "count"), ("l_orderkey", "sum")])
        for pid, n, s in zip(g["poly_id"].to_pylist(), g["l_orderkey_count"].to_pylist(),
                             g["l_orderkey_sum"].to_pylist()):
            acc = out.setdefault(pid, [0, 0])
            acc[0] += n
            acc[1] += s
    return out


class PointsPip:
    name = "points_pip"

    def inputs(self, work: str, seed: int) -> dict:
        return inputs.lineitem_points(work, seed)

    def run(self, path: str, out_dir: str):
        joined = _points_dataset(path)
        return _pip_counts(joined.iter_batches(batch_format="pyarrow", batch_size=None))

    def check(self, inp: dict, result, out_dir: str) -> None:
        if result != inp["expected"]["pip"]:
            bad = sorted(k for k in set(result) | set(inp["expected"]["pip"])
                         if result.get(k) != inp["expected"]["pip"].get(k))
            raise CheckFailed(f"PIP matches differ from the DuckDB oracle for {bad[:8]}")

    def replay(self, inp: dict, tracer, out_dir: str) -> dict:
        """Capture each stage's UDF as the pipeline is built, then call the
        stages in the driver on the lineitem files: on the warm-up input
        (untimed), twice plainly, and once with one span per stage call
        (named after the layer whose kernel the stage runs)."""
        captured: list[tuple] = []
        orig = rd.Dataset.map_batches

        def record(ds, fn, **kw):
            captured.append((fn, kw))
            return orig(ds, fn, **kw)

        with patched((rd.Dataset, "map_batches", record)):
            _points_dataset(inp["corpus"])
        if len(captured) != len(POINT_STAGES):
            raise RuntimeError(f"expected one map_batches per stage, saw {len(captured)}")
        stages = [(layer, fn, kw) for (layer, _), (fn, kw) in zip(POINT_STAGES, captured)]

        def read(sf_dir: str) -> list[pa.Table]:
            li = os.path.join(sf_dir, "lineitem.parquet")
            return [pq.read_table(os.path.join(li, f), columns=["l_orderkey", "l_partkey"])
                    for f in sorted(os.listdir(li))]

        def run_stages(files: list[pa.Table], traced: bool) -> list[pa.Table]:
            outs = []
            for bid, tbl in enumerate(files):
                tracer.batch = bid
                for layer, fn, kw in stages:
                    size = kw.get("batch_size") or tbl.num_rows
                    parts = []
                    for start in range(0, tbl.num_rows, size):
                        piece = tbl.slice(start, size)
                        if kw.get("batch_format") == "numpy":
                            piece = {c: piece[c].to_numpy(zero_copy_only=False) for c in piece.column_names}
                        if traced and layer:
                            with tracer.span(layer):
                                out = fn(piece)
                        else:
                            out = fn(piece)
                        parts.append(out if isinstance(out, pa.Table) else pa.table(out))
                    tbl = pa.concat_tables(parts)
                outs.append(tbl)
            return outs

        files = read(inp["corpus"])
        run_stages(read(inp["warm"]), False)
        untraced = []
        for _ in range(2):
            t0 = time.perf_counter()
            run_stages(files, False)
            untraced.append(time.perf_counter() - t0)
        pip = spatial.point_in_polygon

        def counted_pip(px, py, poly):
            hit = pip(px, py, poly)
            tracer.counts["spatial.pip_candidates"] += int(np.size(px))
            tracer.counts["spatial.pip_hits"] += int(np.count_nonzero(hit))
            return hit

        with patched((spatial, "point_in_polygon", counted_pip)):
            t0 = time.perf_counter()
            joined = run_stages(files, True)
            traced = time.perf_counter() - t0
        self.check(inp, _pip_counts(joined), out_dir)
        st = tracer.self_times()
        return {
            "pipelines.derive_s": st.get("pipelines.derive", 0.0),
            "proj.forward_s": st.get("proj.forward", 0.0),
            "proj.inverse_s": st.get("proj.inverse", 0.0),
            "datums.shift_s": st.get("datums.shift", 0.0),
            "spatial.pip_s": st.get("spatial.pip", 0.0),
            "spatial.pip_candidates": tracer.counts["spatial.pip_candidates"],
            "spatial.pip_hits": tracer.counts["spatial.pip_hits"],
            "trace.replay_s": traced,
            "trace.replay_untraced_s": min(untraced),
        }


WORKLOADS = {w.name: w for w in (WarpTile(), WarpJpegWrite(), PointsPip())}
