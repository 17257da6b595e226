"""Deduplication operators for large-scale text/image corpora (north-rule
additions, SURVEY §2.7 "Set ops / dedup"): exact content-hash dedup,
MinHash+LSH near-dup, SimHash, and n-gram Jaccard verification.

Scale shape:
- exact dedup = vectorized hash column + hash-partitioned groupby + first
  (one shuffle of (hash, id) pairs only — never the payload);
- MinHash-LSH = per-batch signature computation (stateless, vectorized) →
  explode to (band, band_hash) rows → groupby → candidate pairs → Jaccard
  verify. Signatures are mergeable sketches; payload never shuffles.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

_MERSENNE = (1 << 61) - 1


def md5_hex(texts) -> list[str]:
    """Row-wise md5 (matches DuckDB's md5() for the SQL oracle)."""
    return [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]


def add_content_hash(ds: ray.data.Dataset, text_col: str = "text",
                     out: str = "content_hash") -> ray.data.Dataset:
    def _h(batch: pa.Table) -> pa.Table:
        return batch.append_column(out, pa.array(md5_hex(batch[text_col].to_pylist())))

    return ds.map_batches(_h, batch_format="pyarrow")


def exact_dedup(ds: ray.data.Dataset, text_col: str = "text",
                id_col: str = "doc_id", *, keep_payload: bool = False,
                n_parts: int | None = None) -> ray.data.Dataset:
    """Keep the min-id row per identical content hash.

    Default (``keep_payload=False``): a NATIVE Ray aggregate
    ``groupby(content_hash).min(id)`` — the shuffle carries only (hash, id)
    pairs and no pandas group is ever materialized, so per-worker memory is
    flat in corpus size (Ray's sort-based aggregate spills as needed).
    Returns (content_hash, id) rows; recover payloads with a semi-join on id.

    ``keep_payload=True``: full rows flow through a bounded-group shuffle
    whose part count scales with corpus size (``n_parts`` adaptive from
    ``ds.count()`` unless given) so a part stays ~constant-sized."""
    hashed = add_content_hash(ds, text_col)

    if not keep_payload:
        from ray.data.aggregate import Min

        return hashed.groupby("content_hash").aggregate(Min(id_col, alias_name=id_col))

    from .ops import _adaptive_parts

    if n_parts is None:
        n_parts = _adaptive_parts(ds.count())

    def add_part(batch: pa.Table) -> pa.Table:
        hh = np.array(
            [int(h[:8], 16) % n_parts for h in batch["content_hash"].to_pylist()],
            np.int64,
        )
        return batch.append_column("dedup_part", pa.array(hh))

    def keep_first(group):
        g = group.sort_values(id_col, kind="stable")
        return g.drop_duplicates("content_hash", keep="first").drop(columns=["dedup_part"])

    return (
        hashed.map_batches(add_part, batch_format="pyarrow")
        .groupby("dedup_part")
        .map_groups(keep_first, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Character k-shingle 64-bit hashes (stable across processes), UNIQUED —
    the set form used by exact-Jaccard verification."""
    h, offs = _shingle_hashes_flat([text], k)
    return np.unique(h)


def _shingle_hashes_flat(texts: list[str], k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """All k-shingle window hashes for a whole batch in ONE numpy pass:
    returns (flat_hashes, offsets) with doc i's windows at
    ``flat[offsets[i]:offsets[i+1]]`` — NOT uniqued (MinHash minima are
    unaffected by duplicates, and skipping the per-doc sort is most of the
    signature stage's cost). Hash = the same polynomial rolling hash as
    :func:`_shingle_hashes`, bit-identical per window; sub-k docs pad with
    spaces exactly as before."""
    bufs = [t.encode("utf-8") for t in texts]
    bufs = [b + b" " * (k - len(b)) if len(b) < k else b for b in bufs]
    lens = np.array([len(b) for b in bufs], np.int64)
    flat = np.frombuffer(b"".join(bufs), np.uint8)
    weights = np.power(np.uint64(1099511628211), np.arange(k, dtype=np.uint64))
    if len(flat) < k:
        return np.empty(0, np.uint64), np.zeros(len(texts) + 1, np.int64)
    # polynomial hash as k shifted multiply-accumulates: bit-identical
    # (mod 2^64 wrap either way) to the windowed matmul it replaces, but
    # peak temporaries are O(n) uint64 instead of the (n, k) uint64 window
    # matrix (~8k bytes per input byte) that spiked worker memory on
    # large-document batches
    m = len(flat) - k + 1
    all_h = flat[:m].astype(np.uint64) * weights[0]
    for j in range(1, k):
        all_h += flat[j:j + m].astype(np.uint64) * weights[j]
    # windows crossing doc boundaries are invalid: doc i's valid windows sit
    # at absolute positions [start_i, start_i + len_i - k]
    n_win = lens - k + 1
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    offs = np.concatenate([[0], np.cumsum(n_win)])
    tot = int(offs[-1])
    pos = (np.arange(tot) - np.repeat(offs[:-1], n_win)) + np.repeat(starts, n_win)
    return all_h[pos], offs


def minhash_signature(text: str, num_perm: int = 64, k: int = 5,
                      seed: int = 1) -> np.ndarray:
    """num_perm MinHash values via universal hashing a·h+b mod p."""
    h = _shingle_hashes(text, k)
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
    vals = (h[:, None] * a[None, :] + b[None, :]) % np.uint64(_MERSENNE)
    return vals.min(axis=0)


class _MinHashActor:
    """Stateful: permutation coefficients generated once per actor."""

    def __init__(self, num_perm: int, k: int, seed: int, text_col: str, id_col: str):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
        self.k = k
        self.num_perm = num_perm
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        sigs = np.empty((batch.num_rows, self.num_perm), dtype=np.uint64)
        # ONE flat window-hash array for the whole batch (no per-doc unique —
        # minima ignore duplicates), then one permutation at a time: the
        # (hashes × num_perm) 2-D form allocates multi-100MB temporaries and
        # ran 17× slower than this cache-resident per-perm loop
        flat, offs = _shingle_hashes_flat(texts, self.k)
        offsets = offs[:-1]
        p = np.uint64(_MERSENNE)
        for i in range(self.num_perm):
            v = (flat * self.a[i] + self.b[i]) % p
            sigs[:, i] = np.minimum.reduceat(v, offsets)
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "signature": pa.array(list(sigs.astype(np.int64))),
            }
        )


def minhash_lsh_candidates(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    k_shingle: int = 5,
    seed: int = 1,
    max_bucket: int = 128,
    n_parts: int | None = None,
    concurrency: int | tuple[int, int] = (2, 8),
) -> ray.data.Dataset:
    """MinHash → banded LSH: emit (band_id, band_hash, doc_id) rows, group by
    bucket, output candidate near-dup pairs (id_a < id_b). Jaccard-verify with
    :func:`jaccard_ngrams` downstream.

    Skew guard: buckets larger than ``max_bucket`` are emitted as a single
    truncated marker pair set over the first ``max_bucket`` ids instead of the
    full O(n²) blow-up — oversized buckets mean the banding is too coarse for
    the corpus (tune bands/rows), and at 100 TB an unguarded hot bucket is a
    straggler that stalls the whole shuffle."""
    rows_per_band = num_perm // bands
    from .ops import _adaptive_parts, _cached, hash_key_u64

    if n_parts is None:
        # one part ≈ 200k (band, bucket, id) rows regardless of corpus size
        n_parts = _adaptive_parts(ds.count() * bands)

    def _sig(batch):
        worker = _cached(("minhash", num_perm, k_shingle, seed, text_col, id_col),
                         lambda: _MinHashActor(num_perm, k_shingle, seed, text_col, id_col))
        return worker(batch)

    sig = ds.map_batches(_sig, batch_format="pyarrow")

    def explode_bands(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sigs = np.stack([np.asarray(s) for s in batch["signature"].to_pylist()]).astype(np.uint64)
        n = len(ids)
        band_ids = np.tile(np.arange(bands), n)
        # hash each band's slice to one bucket value
        bh = np.empty((n, bands), dtype=np.uint64)
        for b in range(bands):
            sl = sigs[:, b * rows_per_band : (b + 1) * rows_per_band]
            acc = np.zeros(n, dtype=np.uint64)
            for j in range(rows_per_band):
                acc = acc * np.uint64(1099511628211) + sl[:, j]
            bh[:, b] = acc
        return pa.table(
            {
                "band_id": pa.array(band_ids, pa.int32()),
                "band_hash": pa.array(bh.reshape(-1).astype(np.int64)),
                id_col: pa.array(np.repeat(ids, bands)),
            }
        )

    buckets = sig.map_batches(explode_bands, batch_format="pyarrow")

    # Partition buckets into a BOUNDED number of groups (coarse hash of the
    # bucket key) so the shuffle has ~n_parts groups instead of one per bucket
    # — per-group Python overhead over millions of tiny buckets dominates
    # otherwise. Within each part, pair emission is one vectorized pandas
    # self-merge on the exact bucket key. n_parts scales with corpus size
    # (see _adaptive_parts) so one part's pandas frame stays ~constant.

    def add_part(batch: pa.Table) -> pa.Table:
        bh = batch["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bi = batch["band_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = bh * np.uint64(31) + bi
        return batch.append_column("part", pa.array((key % n_parts).astype(np.int64)))

    parted = buckets.map_batches(add_part, batch_format="pyarrow")

    def emit_pairs(group):
        import pandas as pd

        g = group[["band_id", "band_hash", id_col]].copy()
        # hot-bucket guard: cap rows per exact bucket (see docstring)
        g = g.groupby(["band_id", "band_hash"], sort=False).head(max_bucket)
        m = g.merge(g, on=["band_id", "band_hash"])
        m = m[m[f"{id_col}_x"] < m[f"{id_col}_y"]]
        out = m[[f"{id_col}_x", f"{id_col}_y"]].drop_duplicates()
        out.columns = ["id_a", "id_b"]
        return out

    pairs = parted.groupby("part").map_groups(emit_pairs, batch_format="pandas")

    # global dedup of pairs found in multiple bands: again a bounded-group
    # partition + vectorized drop_duplicates per group (dtype-agnostic key
    # hash: string/UUID ids work too)
    pp_parts = max(64, n_parts // 4)

    def add_pair_part(batch: pa.Table) -> pa.Table:
        a = hash_key_u64(batch["id_a"].to_numpy(zero_copy_only=False))
        b = hash_key_u64(batch["id_b"].to_numpy(zero_copy_only=False))
        return batch.append_column(
            "pp", pa.array(((a * np.uint64(1000003) + b) % np.uint64(pp_parts)).astype(np.int64))
        )

    return (
        pairs.map_batches(add_pair_part, batch_format="pyarrow")
        .groupby("pp")
        .map_groups(lambda g: g.drop_duplicates(["id_a", "id_b"]), batch_format="pandas")
        .drop_columns(["pp"])
    )


def verify_candidates(
    pairs: ray.data.Dataset,
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.8,
    id_a: str = "id_a",
    id_b: str = "id_b",
    doc_id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    n_parts: int | None = None,
) -> ray.data.Dataset:
    """Exact-Jaccard verification of LSH candidate pairs — the second half of
    the near-dup pipeline (candidates → verified duplicates).

    Scale shape: pairs and docs CO-PARTITION on the id — two bounded-group
    hash shuffles, keyed on ``id_a`` then ``id_b`` — and each part attaches
    the candidate's text with one vectorized pandas merge. Nothing
    broadcasts, and the driver never holds candidate ids or shingle sets
    (the round-2 design ``ray.put`` a dict of EVERY candidate's shingles;
    candidates are typically 10-30% of a web corpus, so that dict cannot
    fit at 100 TB). Non-candidate docs drop in the inner merge, so only
    candidate-pair texts reach the verify step, which shingles each part's
    unique texts once. Emits (id_a, id_b, jaccard) for pairs with exact
    character-k-gram Jaccard ≥ threshold (two sub-k-char docs both collapse
    to the padded whole-doc shingle; an empty gram union counts as 1.0).
    """
    import pandas as pd

    from .ops import _adaptive_parts, part_on_key

    pairs = pairs.select_columns([id_a, id_b]).materialize()
    n_pairs = pairs.count()
    id_type = docs.schema().base_schema.field(doc_id_col).type
    if n_pairs == 0:
        return ray.data.from_arrow(pa.table({
            id_a: pa.array([], id_type), id_b: pa.array([], id_type),
            "jaccard": pa.array([], pa.float64()),
        }))
    if n_parts is None:
        n_parts = _adaptive_parts(n_pairs)

    if pa.types.is_integer(id_type):
        id_filler: object = 0
    elif pa.types.is_floating(id_type):
        id_filler = 0.0
    else:
        id_filler = ""
    docs_slim = docs.select_columns([doc_id_col, text_col])

    _part = part_on_key("vkey", n_parts)

    def _attach_text(pair_ds: ray.data.Dataset, key_col: str, text_out: str,
                     carry: list[tuple[str, object, pa.DataType]]):
        """Inner-join ``docs_slim`` text onto ``pair_ds`` rows keyed by
        ``key_col`` via one bounded-group co-partition shuffle. ``carry`` is
        (name, filler, type) for the pair columns to pass through — fillers
        (not nulls) keep int ids int inside pandas groups."""

        def tag_p(batch: pa.Table) -> pa.Table:
            t = pa.table({"vkey": batch[key_col], "vtxt":
                          pa.array([""] * batch.num_rows, pa.string())})
            for c, _, _ in carry:
                t = t.append_column(c, batch[c])
            t = t.append_column("vrole", pa.array(np.zeros(batch.num_rows, np.int8)))
            return t.select(sorted(t.column_names))

        def tag_d(batch: pa.Table) -> pa.Table:
            t = pa.table({"vkey": batch[doc_id_col], "vtxt": batch[text_col]})
            for c, fill, typ in carry:
                t = t.append_column(c, pa.array([fill] * batch.num_rows, typ))
            t = t.append_column("vrole", pa.array(np.ones(batch.num_rows, np.int8)))
            return t.select(sorted(t.column_names))

        carry_names = [c for c, _, _ in carry]

        def join_group(group: "pd.DataFrame") -> "pd.DataFrame":
            pf = group[group["vrole"] == 0][["vkey"] + carry_names]
            df_ = group[group["vrole"] == 1][["vkey", "vtxt"]]
            m = pf.merge(df_, on="vkey")
            return m.rename(columns={"vkey": key_col, "vtxt": text_out})

        return (
            pair_ds.map_batches(tag_p, batch_format="pyarrow")
            .union(docs_slim.map_batches(tag_d, batch_format="pyarrow"))
            .map_batches(_part, batch_format="pyarrow")
            .groupby("part")
            .map_groups(join_group, batch_format="pandas")
        )

    with_a = _attach_text(pairs, id_a, "text_a", [(id_b, id_filler, id_type)])
    with_both = _attach_text(with_a, id_b, "text_b",
                             [(id_a, id_filler, id_type), ("text_a", "", pa.string())])

    def _verify(batch: pa.Table) -> pa.Table:
        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()
        cache: dict = {}

        def sh(t):
            s = cache.get(t)
            if s is None:
                s = cache[t] = frozenset(_shingle_hashes(t, k).tolist())
            return s

        jac = np.empty(len(ta), np.float64)
        for i, (x, y) in enumerate(zip(ta, tb)):
            sa, sb = sh(x), sh(y)
            nu = len(sa | sb)
            jac[i] = (len(sa & sb) / nu) if nu else 1.0
        out = pa.table({id_a: batch[id_a], id_b: batch[id_b],
                        "jaccard": pa.array(jac, pa.float64())})
        return out.filter(pa.array(jac >= threshold))

    return with_both.map_batches(_verify, batch_format="pyarrow")


def dup_components(
    ids_ds: ray.data.Dataset,
    pairs: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    pair_a: str = "id_a",
    pair_b: str = "id_b",
    n_parts: int | None = None,
    max_rounds: int = 64,
    small_edge_threshold: int = 5_000_000,
) -> ray.data.Dataset:
    """The keep/drop decision that ends a dedup pipeline: connected
    components over the (verified) duplicate-pair graph. Every id gets
    ``component_id`` = the minimum id reachable through duplicate pairs
    (singletons map to themselves); keep rule = ``id == component_id``.

    Scale shape — fully DISTRIBUTED hash-min label propagation with pointer
    jumping (the driver never holds the pair graph; web-scale corpora have
    billions of duplicate pairs). Per round:

    1. ONE bounded-group co-partition join of the static symmetric edge list
       PLUS the current label-pointer edges ``label(x) → x`` against the
       current labels, keyed ``hash(src) % n_parts`` — emits
       ``(node, candidate_label)`` messages. The pointer edges deliver
       ``label(label(x))`` to ``x`` (path halving), so convergence is
       O(log diameter) rounds instead of O(diameter) on long chains.
    2. ONE native payload-free ``groupby(node).aggregate(Min)`` over
       messages ∪ current labels takes each node's minimum label and, via a
       null-for-messages ``old`` column, the previous label in the same
       shuffle.

    Labels only ever decrease, so a round with zero changed labels is the
    exact fixpoint (= connected components). Every round materializes only
    (node, label) id pairs — never texts, never the graph on one machine.
    The final id → component relabeling is one more bounded co-partition
    join against the full id column.

    Measured-cardinality guard:
    when the MEASURED edge count is ≤ ``small_edge_threshold`` (default
    5M ⇒ ≤80 MB of edges), the same hash-min + pointer-jumping fixpoint
    runs vectorized in ONE Ray task instead — the per-round shuffle
    overhead dominates wall time at that size. Identical output
    (branch-equivalence pytest); pass 0 to force the distributed path.
    """
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Min

    from .ops import _adaptive_parts, part_on_key

    # --- static symmetric edge list (ids only; reused every round) ---------
    def sym(batch: pa.Table) -> pa.Table:
        t1 = pa.table({"src": batch[pair_a], "dst": batch[pair_b]})
        t2 = pa.table({"src": batch[pair_b], "dst": batch[pair_a]})
        return pa.concat_tables([t1, t2]).combine_chunks()

    edges = pairs.select_columns([pair_a, pair_b]).map_batches(
        sym, batch_format="pyarrow"
    ).materialize()
    n_edges = edges.count()

    ids_schema = ids_ds.schema().base_schema
    id_type = ids_schema.field(id_col).type

    if n_edges == 0:  # no duplicates: every id is its own component
        return ids_ds.map_batches(
            lambda b: b.append_column("component_id", b[id_col]),
            batch_format="pyarrow",
        )

    if n_parts is None:
        n_parts = _adaptive_parts(n_edges)
    node_type = edges.schema().base_schema.field("src").type

    # Measured-cardinality guard: when the MEASURED edge count provably fits one
    # task's memory (16 B/edge → ≤80 MB at the threshold), the O(log D)
    # shuffle rounds below are pure fixed overhead — run the exact same
    # hash-min + pointer-jumping fixpoint in-memory inside ONE Ray task
    # (numpy, not the driver). The distributed path is unchanged for
    # larger graphs and is exercised by the long-chain pytest.
    if n_edges <= small_edge_threshold:
        def one_task_cc(group: "pd.DataFrame") -> "pd.DataFrame":
            src = group["src"].to_numpy()
            dst = group["dst"].to_numpy()
            nodes = np.unique(np.concatenate([src, dst]))
            si = np.searchsorted(nodes, src)
            di = np.searchsorted(nodes, dst)
            lbl = np.arange(len(nodes), dtype=np.int64)
            while True:
                new = lbl.copy()
                np.minimum.at(new, si, lbl[di])
                np.minimum.at(new, di, lbl[si])
                new = np.minimum(new, new[new])  # pointer jumping
                if np.array_equal(new, lbl):
                    break
                lbl = new
            return pd.DataFrame({"node": nodes, "lbl": nodes[lbl]})

        # repartition(1) + whole-block batch => exactly one task sees all edges
        labels = edges.repartition(1).map_batches(
            one_task_cc, batch_format="pandas", batch_size=None
        ).map_batches(
            lambda b: pa.table({"node": pc.cast(b["node"], node_type),
                                "lbl": pc.cast(b["lbl"], node_type)}),
            batch_format="pyarrow",
        ).materialize()
        return _relabel_ids(ids_ds, labels, id_col, ids_schema, node_type,
                            n_parts)

    # bound block counts: unions + sort shuffles otherwise MULTIPLY blocks
    # every round (output partitions track input blocks), turning O(log D)
    # rounds into geometrically slower shuffles of thousands of tiny blocks
    edges = edges.repartition(n_parts).materialize()

    def _part_on(col: str):
        return part_on_key(col, n_parts)

    # --- initial labels: label(x) = min(x, min neighbor) (a free round) ----
    labels = edges.groupby("src").aggregate(Min("dst", alias_name="lbl")).map_batches(
        lambda b: pa.table({"node": b["src"],
                            "lbl": pc.min_element_wise(b["src"], b["lbl"])}),
        batch_format="pyarrow",
    ).repartition(n_parts).materialize()

    # rows in the join shuffle: (src, val, cc_role) — role 0 = edge (val =
    # dst), role 1 = label (val = lbl). Same dtype either way, so no nulls
    # enter pandas groups (nulls would silently upcast int ids to float).
    def tag_edge(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch["src"], "val": batch["dst"],
                         "cc_role": pa.array(np.zeros(batch.num_rows, np.int8))})

    def tag_label(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch["node"], "val": batch["lbl"],
                         "cc_role": pa.array(np.ones(batch.num_rows, np.int8))})

    def ptr_edges(batch: pa.Table) -> pa.Table:
        # pointer jumping: x receives label(label(x)) next round
        return pa.table({"src": batch["lbl"], "dst": batch["node"]})

    def emit_msgs(group: "pd.DataFrame") -> "pd.DataFrame":
        ef = group[group["cc_role"] == 0]
        lf = group[group["cc_role"] == 1][["src", "val"]]
        m = ef[["src", "val"]].merge(lf, on="src", suffixes=("_dst", "_lbl"))
        return pd.DataFrame({"node": m["val_dst"], "lbl": m["val_lbl"]})

    changed = -1
    for _ in range(max_rounds):
        all_edges = edges.union(labels.map_batches(ptr_edges, batch_format="pyarrow"))
        msgs = (
            all_edges.map_batches(tag_edge, batch_format="pyarrow")
            .union(labels.map_batches(tag_label, batch_format="pyarrow"))
            .map_batches(_part_on("src"), batch_format="pyarrow")
            .groupby("part")
            .map_groups(emit_msgs, batch_format="pandas")
        )
        # min(new candidates ∪ old label) per node; `old` rides the same
        # shuffle (null on message rows, Min ignores nulls)
        lab_rows = labels.map_batches(
            lambda b: pa.table({"node": b["node"], "lbl": b["lbl"], "old": b["lbl"]}),
            batch_format="pyarrow",
        )
        msg_rows = msgs.map_batches(
            lambda b: pa.table({"node": b["node"], "lbl": b["lbl"],
                                "old": pa.nulls(b.num_rows, node_type)}),
            batch_format="pyarrow",
        )
        agg = lab_rows.union(msg_rows).groupby("node").aggregate(
            Min("lbl", alias_name="lbl"), Min("old", alias_name="old")
        ).repartition(n_parts).materialize()
        changed = agg.map_batches(
            lambda b: pa.table({"n": pa.array(
                [pc.sum(pc.cast(pc.not_equal(b["lbl"], b["old"]),
                                pa.int64())).as_py() or 0], pa.int64())}),
            batch_format="pyarrow",
        ).to_pandas()["n"].sum()
        labels = agg.drop_columns(["old"])
        if changed == 0:
            break
    if changed != 0:
        # with pointer jumping this needs > max_rounds only for graphs of
        # diameter ~2^max_rounds — but if it ever happens, the labels are NOT
        # components yet and returning them would be silent data corruption
        raise RuntimeError(
            f"dup_components did not converge in {max_rounds} rounds "
            f"({changed} labels still changing); raise max_rounds"
        )

    # --- relabel the full id column: bounded co-partition LEFT join --------
    return _relabel_ids(ids_ds, labels, id_col, ids_schema, node_type, n_parts)


def _relabel_ids(ids_ds, labels, id_col, ids_schema, node_type, n_parts):
    """id → component relabeling shared by both dup_components paths: one
    bounded co-partition LEFT join of the full id column against the
    (node, lbl) labels; ids without a label are their own component."""
    import pandas as pd

    from .ops import part_on_key

    id_type = ids_schema.field(id_col).type
    other_cols = [c for c in ids_schema.names if c != id_col]

    part_on_id = part_on_key(id_col, n_parts)

    def tag_ids(batch: pa.Table) -> pa.Table:
        batch = batch.append_column("cc_lbl", pa.nulls(batch.num_rows, node_type))
        batch = batch.append_column("cc_role", pa.array(np.zeros(batch.num_rows, np.int8)))
        return batch.select(sorted(batch.column_names))

    def tag_final(batch: pa.Table) -> pa.Table:
        t = pa.table({id_col: batch["node"], "cc_lbl": batch["lbl"]})
        t = t.append_column("cc_role", pa.array(np.ones(batch.num_rows, np.int8)))
        for c in other_cols:
            t = t.append_column(c, pa.nulls(batch.num_rows, ids_schema.field(c).type))
        return t.select(sorted(t.column_names))

    out_cols = list(ids_schema.names) + ["component_id"]

    def relabel_group(group: "pd.DataFrame") -> "pd.DataFrame":
        idf = group[group["cc_role"] == 0].drop(columns=["cc_lbl", "cc_role"])
        lbf = group[group["cc_role"] == 1][[id_col, "cc_lbl"]]
        m = idf.merge(lbf, on=id_col, how="left")
        m["component_id"] = m["cc_lbl"].where(m["cc_lbl"].notna(), m[id_col])
        return m[out_cols]

    # the union's null-filled label rows upcast passthrough columns inside
    # pandas groups (int → float, bool/timestamp → object); restore EVERY
    # column to its declared Arrow type (join output is null-free), so the
    # output schema is exactly the input schema + component_id:id_type
    out_schema = pa.schema(
        [ids_schema.field(c) for c in ids_schema.names]
        + [pa.field("component_id", id_type)]
    )

    def restore_schema(batch: pa.Table) -> pa.Table:
        return batch.select(out_schema.names).cast(out_schema)

    return (
        ids_ds.map_batches(tag_ids, batch_format="pyarrow")
        .union(labels.map_batches(tag_final, batch_format="pyarrow"))
        .map_batches(part_on_id, batch_format="pyarrow")
        .groupby("part")
        .map_groups(relabel_group, batch_format="pandas")
        .map_batches(restore_schema, batch_format="pyarrow")
    )


def jaccard_ngrams(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact character-k-gram Jaccard similarity (the verify step for LSH
    candidates, and a standalone operator)."""
    sa = set(_shingle_hashes(text_a, k).tolist())
    sb = set(_shingle_hashes(text_b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_SHIFTS64 = np.arange(64, dtype=np.uint64)


def _simhash_batch(texts: list[str], hash_impl: str | None = None) -> np.ndarray:
    """Vectorized SimHash for many documents: ONE flat token-hash array for
    the whole batch, bit votes summed per-document with ``np.add.reduceat`` —
    no per-token Python in the vote loop. Default token hash = the
    vectorized production one (text.fast_token_hashes);
    ``hash_impl="md5"`` reproduces DuckDB md5_number_upper(tok) exactly and
    is what the dedup_simhash* oracle queries request."""
    from .text import TOKEN_HASH_IMPL, flat_ws_token_hashes, token_hashes

    if (hash_impl or TOKEN_HASH_IMPL) == "md5":
        toks = [t.split() for t in texts]
        lens = np.array([len(t) for t in toks], np.int64)
        flat = token_hashes([w for ts in toks for w in ts], "md5")
    else:  # flat-buffer path: no per-token Python at all
        flat, doc_offsets = flat_ws_token_hashes(texts)
        lens = np.diff(doc_offsets)
    acc = np.zeros((len(texts), 64), np.int64)
    if flat.size:
        # per-bit ones via unpackbits on the little-endian byte view: the
        # (n_tokens, 64) temp is uint8 (8x smaller than the shift-matrix
        # uint64 it replaces, 1.5x faster); votes = 2*ones - n_tokens
        bits = np.unpackbits(np.ascontiguousarray(flat).view(np.uint8)
                             .reshape(len(flat), 8), axis=1, bitorder="little")
        offsets = np.concatenate([[0], np.cumsum(lens)[:-1]])
        nz = lens > 0  # reduceat misbehaves on empty segments
        ones = np.add.reduceat(bits.astype(np.int32), offsets[nz], axis=0)
        acc[nz] = 2 * ones.astype(np.int64) - lens[nz, None]
    val = ((acc > 0).astype(np.uint64) << _SHIFTS64[None, :]).sum(axis=1, dtype=np.uint64)
    return val.view(np.int64)  # two's-complement reinterpret


def simhash64(text: str, hash_impl: str | None = None) -> int:
    """64-bit SimHash over whitespace tokens."""
    return int(_simhash_batch([text], hash_impl)[0])


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


_POP8 = np.array([bin(i).count("1") for i in range(256)], np.uint8)


def popcount64(a: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (byte-LUT; NumPy <2 has no bitwise_count)."""
    a = np.ascontiguousarray(a, np.uint64)
    return _POP8[a.view(np.uint8).reshape(a.shape + (8,))].sum(axis=-1).astype(np.int64)


def simhash_neardup_pairs(
    ds: ray.data.Dataset,
    *,
    max_hamming: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_parts: int | None = None,
    hash_impl: str | None = None,
) -> ray.data.Dataset:
    """Near-duplicate pairs by SimHash Hamming distance ≤ ``max_hamming`` —
    EXACT (100% recall) via pigeonhole banding: the 64 bits split into
    ``max_hamming + 1`` bands, and any pair within distance d must match at
    least one band exactly, so banded bucketing misses nothing. Buckets
    verify with a vectorized popcount. Only (id, simhash, band) rows shuffle
    — never text; bounded groups scale with corpus size.

    Emits (id_a, id_b, hamming) with id_a < id_b.
    """
    from .ops import _adaptive_parts, hash_key_u64

    bands = max_hamming + 1
    widths = [64 // bands + (1 if i < 64 % bands else 0) for i in range(bands)]
    offs = np.cumsum([0] + widths[:-1])
    if n_parts is None:
        n_parts = _adaptive_parts(ds.count() * bands)
    pp_parts = max(64, n_parts // 4)

    hashed = add_simhash(ds.select_columns([id_col, text_col]), text_col,
                         hash_impl=hash_impl)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        out_b, out_v = [], []
        for b in range(bands):
            mask = np.uint64((1 << widths[b]) - 1)
            out_b.append(np.full(len(h), b, np.int32))
            out_v.append(((h >> np.uint64(offs[b])) & mask).astype(np.int64))
        return pa.table(
            {
                "band": pa.array(np.concatenate(out_b), pa.int32()),
                "band_val": pa.array(np.concatenate(out_v), pa.int64()),
                id_col: pa.array(np.tile(ids, bands)),
                "simhash": pa.array(np.tile(h, bands).view(np.int64), pa.int64()),
            }
        )

    buckets = hashed.map_batches(explode, batch_format="pyarrow")

    def add_part(batch: pa.Table) -> pa.Table:
        key = (
            batch["band_val"].to_numpy(zero_copy_only=False).astype(np.uint64)
            * np.uint64(127)
            + batch["band"].to_numpy(zero_copy_only=False).astype(np.uint64)
        )
        return batch.append_column("part", pa.array((key % n_parts).astype(np.int64)))

    def emit(group):
        import pandas as pd

        g = group[["band", "band_val", id_col, "simhash"]]
        m = g.merge(g, on=["band", "band_val"])
        m = m[m[f"{id_col}_x"] < m[f"{id_col}_y"]]
        if not len(m):
            return pd.DataFrame({"id_a": pd.Series([], dtype=g[id_col].dtype),
                                 "id_b": pd.Series([], dtype=g[id_col].dtype),
                                 "hamming": pd.Series([], dtype=np.int64)})
        hx = m["simhash_x"].to_numpy().view(np.uint64)
        hy = m["simhash_y"].to_numpy().view(np.uint64)
        hd = popcount64(np.bitwise_xor(hx, hy))
        m = m.assign(hamming=hd)[hd <= max_hamming]
        out = m[[f"{id_col}_x", f"{id_col}_y", "hamming"]].drop_duplicates(
            [f"{id_col}_x", f"{id_col}_y"]
        )
        out.columns = ["id_a", "id_b", "hamming"]
        return out

    pairs = buckets.map_batches(add_part, batch_format="pyarrow").groupby("part").map_groups(
        emit, batch_format="pandas"
    )

    def add_pp(batch: pa.Table) -> pa.Table:
        a = hash_key_u64(batch["id_a"].to_numpy(zero_copy_only=False))
        b = hash_key_u64(batch["id_b"].to_numpy(zero_copy_only=False))
        return batch.append_column(
            "pp", pa.array(((a * np.uint64(1000003) + b) % np.uint64(pp_parts)).astype(np.int64))
        )

    return (
        pairs.map_batches(add_pp, batch_format="pyarrow")
        .groupby("pp")
        .map_groups(lambda g: g.drop_duplicates(["id_a", "id_b"]), batch_format="pandas")
        .drop_columns(["pp"])
    )


def add_simhash(ds: ray.data.Dataset, text_col: str = "text",
                out: str = "simhash",
                hash_impl: str | None = None) -> ray.data.Dataset:
    def _s(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            out, pa.array(_simhash_batch(batch[text_col].to_pylist(),
                                         hash_impl), pa.int64())
        )

    return ds.map_batches(_s, batch_format="pyarrow")
