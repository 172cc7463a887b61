"""The package's one grouping path: every grouped aggregate is
``combine``, every grouped top-k is ``top_k``, and every shuffle by
key — the partitioned fold, a per-partition finisher, a join — runs
as ``keyed_map`` on plain Ray tasks.  No other module groups or
shuffles by key.

``combine(ds, keys, aggs, fn=None, partitioned=False)``: ``aggs`` maps
each output column to ``(input column, "sum" | "count" | "min" |
"max")``; no ``aggs`` is DISTINCT, no ``keys`` one global row.  Each
batch runs ``fn`` (a projection) and a pyarrow ``group_by`` in one
fused UDF; the partial rows fold sum→sum, count→sum, min→min, max→max,
on the driver (a pandas frame) or, with ``partitioned=True``, in a
``keyed_map`` by key hash (a Dataset).  Null keys form their own group
and integer results are int64.

Shape: ``keyed_map(ds, keys, fn)`` names the key columns and nothing
else.  The partition count follows the bytes the plan reads
(``_partitions``: one partition per started 32 MiB of its sources,
capped at 4× the cluster's CPUs).  One partition — every test-scale
shuffle — is one bundled map: a ``batch_size`` above any row count
makes Ray give every input block to one task, so ``fn`` gets all rows
in one call, with no all-to-all barrier, pad, partition id or sort;
the map fuses with the maps before and after it into one task chain
(each block first turns into plain Arrow, as Ray's batcher merges
blocks of one type only).  With more, the pad stage stamps each
row with the partition id ``hash_part`` gives its key (FNV-1a/64 over
the Arrow key columns, modulo the partition count);
``Dataset.sort`` with the KNOWN boundaries of those ids
range-partitions on it, so each output block holds exactly one
partition; ``map_batches(batch_size=None)`` then drops the id and
calls ``fn`` once per key-complete partition.  This is the contract
Ray's own ``GroupedData.map_groups`` relies on (sort, then whole-block
batches), minus its boundary-sampling pass and its per-group split —
and unlike ``Dataset.join`` or key-based ``repartition`` (both the
hash-shuffle aggregator-actor operator in Ray 2.49) it starts no
actors.  ``combine``, ``top_k`` and ``hash_join`` route through the
same stage, so the partition id, its hash and the partition count
live only in this module.

Typed results: Ray runs no UDF on an input with no rows, so a plan
with no rows comes back untyped (no columns).  ``empty_like(ds)``
derives the zero-row table ``ds`` would give from its Ray plan on the
driver, without running it: a source's own schema, each
``map_batches`` UDF called once on a zero-row batch, a sort / limit /
shuffle / union passing its input's table on.  It and
``_partitions`` are the only readers of Ray's plan objects in the
package.  Every driver sink types a result with no rows from it:
``collect`` (a pandas frame), ``materialize`` (a Dataset read more
than once), ``combine``'s fold, ``hash_join``'s column layout.  So
every UDF must accept a zero-row batch.  Inside a shuffle of two or more partitions every non-empty
input block appends one pad row per partition (told apart from real
rows by the parity of its sort key), so no sort partition is empty and
``fn`` runs on every partition — on an empty, correctly typed frame
where no real row landed — instead of Ray's sort emitting a
schema-less block for it.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import fnv1a64_batch, fnv1a64_fixed, hash_combine
from ..sources.storage import FooterParquet, blocks_for, disk_bytes

_PART = "_keyed_part"
# a batch size above any row count: one bundle of every input block
_ALL_ROWS = 1 << 62
JOIN_TYPES = ("inner", "left_outer", "left_anti")


def ncpus() -> int:
    """Cluster CPU count: 4× it caps a keyed shuffle's partitions."""
    import ray

    try:
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    except Exception:  # no session yet: Ray Data starts one on every CPU
        return os.cpu_count() or 1


def _partitions(ds) -> int:
    """Partition count of a keyed shuffle of ``ds``, from the bytes its
    plan reads: ``blocks_for`` (one per started 32 MiB) of all its
    sources together, capped at 4× the cluster's CPUs.  A union —
    ``hash_join``'s two sides — counts every input.

    The units differ by source.  A parquet read counts its files'
    compressed size on disk, every column even when the read prunes
    some: the figure ``read_blocks`` sizes the read itself by, known
    from a ``stat`` without opening the file.  An in-memory source
    (``from_arrow``, ``from_pandas``, a materialized Dataset) counts its
    blocks' decoded Arrow bytes, which for the same rows run about
    0.7–6× the parquet size (sf0.1 lineitem: 10.3 MiB on disk, 45 MiB
    decoded).  So rows read from parquet get at most as many partitions
    as the same rows held in memory, and usually fewer.

    The rule assumes a shuffle moves about the bytes its sources hold.
    A plan that expands rows before the shuffle breaks that: the
    shingles and pair counts of ``dedup.jaccard_pairs_from`` and the
    span grams move 9.5–21× their sources' bytes at sf0.1,
    ``dedup.lsh_candidate_docs``' band rows 6.5× (3.7 MiB of
    ``(band_id, band_hash, doc_id)`` rows from a 0.57 MiB documents
    file), and ``phash_near_pairs``' band rows 16×.  At sf0.1 the
    largest shuffle input is still 18 MiB, so a count of moved bytes
    would also give one partition there.

    The trade-off is ``read_parquet``'s: each partition is a task with
    a fixed cost, and under 32 MiB that cost outweighs the work a split
    spreads over more CPUs.  So one partition runs as one task: a
    bundled map fused with its neighbours, not a ``repartition(1)``
    barrier between two maps.

    A parquet read is known by its ``storage.FooterParquet`` source and
    sized by that source's ``paths``; a read made by Ray's own
    ``read_parquet`` (only tests make one) counts as 0 bytes."""
    return min(blocks_for(_source_bytes(ds._logical_plan.dag)), 4 * ncpus())


def _source_bytes(op) -> int:
    if op.input_dependencies:
        return sum(_source_bytes(dep) for dep in op.input_dependencies)
    source = getattr(op, "_datasource", None)
    if isinstance(source, FooterParquet):
        return disk_bytes(source.paths)
    bundles = getattr(op, "input_data", None) or []
    return sum(b.size_bytes() for b in bundles)


def _int_hash(v: np.ndarray) -> np.ndarray:
    """FNV-1a/64 of integer values as 8 little-endian bytes."""
    v = v.astype("<u8", copy=False)
    return fnv1a64_fixed(v.view(np.uint8).reshape(len(v), 8))


def _key_hash(col) -> np.ndarray:
    """FNV-1a/64 of one Arrow key column, nulls filled first so a key
    hashes the same in a block with nulls and in one without: integers
    hash their value as 8 bytes whatever their width, any other type
    its UTF-8 string form read straight from the Arrow buffer.  An
    integral float hashes as its integer: pandas turns an int column
    with nulls into float, and its keys must still meet the int ones.
    Equal keys hash equally in every block and on both sides of a
    join."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        col = pc.fill_null(col, _filler(1, col.type)[0])
    if pa.types.is_integer(col.type):
        wide = pa.uint64() if pa.types.is_unsigned_integer(col.type) else pa.int64()
        return _int_hash(col.cast(wide).to_numpy())
    h = fnv1a64_batch(col)
    if pa.types.is_floating(col.type):
        x = col.to_numpy().astype(np.float64)
        whole = (x == np.trunc(x)) & (np.abs(x) < 2.0**63)
        h[whole] = _int_hash(x[whole].astype(np.int64))
    return h


def hash_part(cols: list, npart: int) -> np.ndarray:
    """int64 partition id in ``[0, npart)`` of the composite key whose
    Arrow columns are ``cols``."""
    h = _key_hash(cols[0])
    for c in cols[1:]:
        h = hash_combine(h, _key_hash(c))
    return (h % np.uint64(npart)).astype(np.int64)


def keyed_map(ds, keys: list, fn, batch_format: str = "pandas"):
    """Run ``fn`` once per partition of ``ds`` by the key columns
    ``keys``: every row of one key reaches the same call.

    Rows route by ``hash_part`` of their key into ``_partitions(ds)``
    partitions.  ``fn`` gets every row of its
    partition, with ``ds``'s columns, as a pandas frame — or a
    ``pyarrow.Table`` with ``batch_format="pyarrow"`` — and returns a
    frame or table.  An empty partition of an input with rows calls
    ``fn`` on an empty, typed frame, and ``empty_like`` calls it on one
    too, so ``fn`` must accept zero rows; an input with no rows runs no
    task and its sink types the result from the plan."""
    keys = list(keys)
    return _shuffle(ds, lambda t, n: hash_part([t[k] for k in keys], n),
                    fn, batch_format)


def _plain(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata()


def _shuffle(ds, route, fn, batch_format: str):
    """The one keyed shuffle: ``route(t, npart)`` gives each row of a
    block its partition id, and ``fn`` runs once per partition."""
    npart = _partitions(ds)

    def call(t: pa.Table):
        return fn(t.to_pandas() if batch_format == "pandas" else t)

    call.__name__ = getattr(fn, "__name__", "keyed_map")
    if npart == 1:
        # Ray bundles a map's input blocks until they hold ``batch_size``
        # rows: a size no input reaches makes every block one bundle, so
        # one task and one batch.  Ray's batcher merges blocks of one
        # type only, so each block first turns into Arrow without pandas
        # metadata, as ``pad`` makes them.  Both maps fuse into one task,
        # with the maps before and after them.
        return (
            ds.map_batches(_plain, batch_format="pyarrow", batch_size=None)
            .map_batches(call, batch_format="pyarrow", batch_size=_ALL_ROWS)
        )

    def pad(t: pa.Table) -> pa.Table:
        # pad rows repeat the block's first row: typed and non-null, so
        # a sort reduce that goes through pandas (Ray merges through
        # whichever block type most of its inputs have) turns no int
        # column into float; pandas metadata would only make the sort's
        # schema unification fail to hash (and log) every block.  A
        # real row of partition p sorts as 2p + 1, p's pad row as 2p.
        t = t.replace_schema_metadata()
        fill = t.take(np.zeros(npart if len(t) else 0, np.int64))
        part = np.concatenate([2 * route(t, npart) + 1, 2 * np.arange(len(fill))])
        return pa.concat_tables([t, fill]).append_column(_PART, pa.array(part, pa.int64()))

    def run(t: pa.Table):
        real = pc.equal(pc.bit_wise_and(t[_PART], 1), 1)
        return call(t.filter(real).drop_columns([_PART]))

    run.__name__ = call.__name__
    return (
        ds.map_batches(pad, batch_format="pyarrow")
        .sort(_PART, boundaries=list(range(2, 2 * npart, 2)))
        .map_batches(run, batch_format="pyarrow", batch_size=None)
    )


_FOLD = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _group(t: pa.Table, keys: list, aggs: dict) -> pa.Table:
    """``t`` grouped by ``keys`` (nulls form their own group) with
    ``aggs`` = {output column: (input column, op)}; integer results
    as int64, columns in ``keys + list(aggs)`` order.

    pyarrow 16 splits the groups of a multi-column key that holds
    nulls, so such a key column groups by its null-free dictionary
    codes, mapped back to values afterwards."""
    by, dicts = list(keys), {}
    for i, k in enumerate(keys if len(keys) > 1 else ()):
        if t[k].null_count:
            enc = pc.dictionary_encode(t[k].combine_chunks(), null_encoding="encode")
            by[i], dicts[i] = f"_code{i}", enc.dictionary
            t = t.append_column(by[i], enc.indices)
    out = t.group_by(by, use_threads=False).aggregate(list(aggs.values()))
    out = out.rename_columns(keys + list(aggs))
    for i, d in dicts.items():
        out = out.set_column(i, keys[i], d.take(out[i]))
    for i, f in enumerate(out.schema):
        if pa.types.is_integer(f.type) or pa.types.is_boolean(f.type):
            if f.name not in keys:
                out = out.set_column(i, f.name, out[i].cast(pa.int64()))
    return out


def combine(ds, keys: list, aggs: dict, fn=None, partitioned: bool = False):
    """The package's one grouped aggregate.

    ``aggs`` maps each output column to ``(input column, op)`` with op
    ``"sum" | "count" | "min" | "max"`` (``count`` counts non-null
    values, as SQL ``COUNT(col)``); an empty ``aggs`` is DISTINCT over
    ``keys``, and no ``keys`` is one global row (a driver fold).  Each
    batch runs ``fn`` (a projection: pyarrow Table in, Table or pandas
    frame out) and one ``pyarrow`` ``group_by(use_threads=False)`` in
    the same fused UDF, so only one partial row per group per batch
    leaves the task.  The fold merges partials sum→sum, count→sum, min→min,
    max→max.  A null key forms its own group; integer results are
    int64; float partial sums fold in a fixed order (the partial rows
    are sorted first), so a float sum is bit-equal run to run.

    The finish is the one choice: a driver fold returning a pandas
    frame (a result of a few groups), or ``partitioned=True`` — a
    lazy ``keyed_map`` fold by key hash returning a Dataset (a result
    too big for the driver), typed by its sink.

    On an input with no rows the driver fold runs over ``empty_like``
    of the partials: the same columns and types a non-empty input
    gives, zero rows (one row of nulls and zero counts with no
    ``keys``, as SQL)."""
    keys = list(keys)
    if partitioned and not keys:
        raise ValueError("a global aggregate is one row: fold it on the driver")
    folds = {c: (c, _FOLD[op]) for c, (_src, op) in aggs.items()}

    def partial(t: pa.Table) -> pa.Table:
        if fn is not None:
            t = fn(t)
            if isinstance(t, pd.DataFrame):
                t = pa.Table.from_pandas(t, preserve_index=False)
        return _group(t.replace_schema_metadata(), keys, aggs)

    def fold(t: pa.Table) -> pa.Table:
        if any(op == "sum" and pa.types.is_floating(t[c].type)
               for c, (_src, op) in aggs.items()):
            t = t.sort_by([(c, "ascending") for c in t.column_names])
        out = _group(t, keys, folds)
        for c, (_src, op) in aggs.items():  # COUNT over no rows is 0
            if op == "count":
                out = out.set_column(out.schema.get_field_index(c), c,
                                     pc.fill_null(out[c], 0))
        return out

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    if partitioned:
        return keyed_map(parts, keys, fold, batch_format="pyarrow")
    blocks = parts.iter_batches(batch_size=None, batch_format="pyarrow")
    tables = [t for t in blocks if t.num_rows] or [empty_like(parts)]
    return fold(pa.concat_tables(tables, promote_options="permissive")).to_pandas()


def top_k(ds, keys: list, order: list, k: int, fn=None) -> pd.DataFrame:
    """The package's one grouped top-k: SQL ``row_number() OVER
    (PARTITION BY keys ORDER BY order) <= k``, as a pandas frame sorted
    by ``keys`` then ``order``.

    ``order`` is ``(column, "ascending" | "descending")`` pairs and
    should be total (end on a unique column): ties are not broken.
    Each batch runs ``fn`` (a projection, as in ``combine``) and keeps
    its own top ``k`` per group — a batch holds at most a group's true
    top ``k``, so only ≤ k rows per group per batch ride the shuffle;
    the partials hash-partition by ``keys``, and one ``keyed_map``
    takes the final top ``k`` of each key-complete partition.  A null
    key is its own group.  The result is collected by ``collect``, so
    it is typed on an input with no rows."""
    keys = list(keys)
    by = [c for c, _ in order]
    asc = [d == "ascending" for _, d in order]

    def head(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(by, ascending=asc)
        return b.groupby(keys, sort=False, dropna=False).head(k)

    def partial(t: pa.Table) -> pd.DataFrame:
        if fn is not None:
            t = fn(t)
        b = head(t if isinstance(t, pd.DataFrame) else t.to_pandas())
        return b.reset_index(drop=True)

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    out = collect(keyed_map(parts, keys, head))
    out = out.sort_values(keys + by, ascending=[True] * len(keys) + asc)
    return out.reset_index(drop=True)


def empty_like(ds) -> pa.Table:
    """The zero-row table ``ds`` gives, derived from its Ray plan on the
    driver without running it.

    Each logical operator runs on a zero-row table: a source (``Read``,
    ``From*``, ``InputData``) gives its own schema; ``MapBatches`` calls
    its UDF on a zero-row batch of its batch format and keeps zero rows
    of the result (Ray runs no UDF on an input with no rows, so a UDF's
    one-row answer to no input never reaches a sink); ``Sort``,
    ``Limit``, ``RandomShuffle`` and ``Repartition`` pass their input's
    table on, ``Union`` its first input's, ``Project`` its columns.
    Any other operator is a ``TypeError`` — never a fallback to
    ``ds.schema()``, which runs the plan.  With ``_partitions``, the
    one reader of Ray's private plan objects in the package (Ray
    2.49)."""
    return _empty(ds._logical_plan.dag)


def _empty(op) -> pa.Table:
    import ray
    from ray.data._internal.logical.operators import (
        all_to_all_operator as a2a,
        map_operator as mo,
        n_ary_operator as nary,
        one_to_one_operator as o2o,
    )
    from ray.data.block import BlockAccessor

    if not op.input_dependencies:  # a source: Read, From*, InputData
        schema = op.infer_schema()
        if isinstance(schema, pa.Schema):
            return schema.empty_table().replace_schema_metadata()
        bundles = getattr(op, "input_data", None) or []
        refs = [ref for b in bundles for ref in b.block_refs]
        if not refs:
            raise TypeError(f"{op.name} has no schema and no block: "
                            "materialize it with keyed.materialize")
        block = ray.get(refs[0])  # already in the object store: no run
        if isinstance(block, pd.DataFrame):
            block = pa.Table.from_pandas(block, preserve_index=False)
        return block.slice(0, 0).replace_schema_metadata()
    t = _empty(op.input_dependencies[0])
    passing = (a2a.Sort, a2a.RandomShuffle, a2a.Repartition, o2o.Limit, nary.Union)
    if isinstance(op, passing):
        return t
    if isinstance(op, mo.Project) and not op.exprs:
        t = t.select(op.cols) if op.cols is not None else t
        rename = op.cols_rename or {}
        return t.rename_columns([rename.get(c, c) for c in t.column_names])
    if isinstance(op, mo.MapBatches):
        fn = op._fn
        if isinstance(fn, type):  # a callable class runs as an actor
            fn = fn(*(op._fn_constructor_args or ()), **(op._fn_constructor_kwargs or {}))
        batch = BlockAccessor.for_block(t).to_batch_format(op._batch_format)
        out = fn(batch, *(op._fn_args or ()), **(op._fn_kwargs or {}))
        if isinstance(out, pd.DataFrame):
            # Ray types a pandas block by its values, and a zero-row one
            # has none: keep pandas' dtypes, and give an object column
            # (no type at all) its input's type when the UDF kept it
            out = pa.Table.from_pandas(out, preserve_index=False)
            out = out.cast(pa.schema([
                t.schema.field(f.name)
                if pa.types.is_null(f.type) and f.name in t.column_names else f
                for f in out.schema
            ]))
        out = BlockAccessor.for_block(BlockAccessor.batch_to_block(out)).to_arrow()
        return out.slice(0, 0).replace_schema_metadata()
    raise TypeError(f"empty_like has no rule for Ray operator {op.name}")


def collect(ds, fn=None) -> pd.DataFrame:
    """The package's one driver sink: ``ds`` — mapped by ``fn`` over
    pandas batches, when given — as a pandas frame, typed by
    ``empty_like`` when it has no rows (Ray's ``to_pandas`` of an empty
    result has no columns)."""
    if fn is not None:
        ds = ds.map_batches(fn, batch_format="pandas")
    out = ds.to_pandas()
    return out if len(out) else empty_like(ds).to_pandas()


def materialize(ds):
    """``ds.materialize()`` for a result read more than once: when it
    has no rows, a one-block Dataset of ``empty_like(ds)``, so its
    readers still see the plan's columns and types."""
    import ray

    out = ds.materialize()
    return out if out.count() else ray.data.from_arrow(empty_like(ds))


def _filler(n: int, typ: pa.DataType) -> pa.Array:
    """``n`` non-null values of ``typ`` (zeros) for the other side's
    columns: a null would make an int column float on a sort reduce
    through pandas, and float64 cannot hold every int64 key."""
    try:
        return pc.cast(pa.array(np.zeros(n, np.int8)), typ)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return pa.nulls(n, typ)  # binary/nested: lossless through pandas


def hash_join(left, right, on: str, right_on: str, how: str = "inner"):
    """Hash join of two Datasets on one key column per side, as one
    keyed shuffle.

    Both sides are tagged with a side column, padded to one common
    schema (side 0's columns prefixed ``0.``, side 1's ``1.``) and
    unioned; one keyed shuffle routes each row by its own side's key
    (an int32 key meets the equal int64 key) and runs a pandas merge
    per partition; the partition count counts both sides' bytes.
    ``how`` is ``inner``, ``left_outer`` or ``left_anti`` (left rows
    with no match; only the right key column is shuffled).  Null keys never match, as in SQL.  The output
    has the left columns, then the right ones; a key named alike on
    both sides appears once, any other shared name is an error.  Both
    sides' columns come from their plans (``empty_like``), so neither
    side runs before the join does, and a sink types an empty
    result."""
    if how not in JOIN_TYPES:
        raise ValueError(f"how must be one of {JOIN_TYPES}, got {how!r}")
    lsch, rsch = empty_like(left).schema, empty_like(right).schema
    shared = {on} & {right_on}
    clash = (set(lsch.names) & set(rsch.names)) - shared
    if clash:
        raise ValueError(f"columns on both sides of the join: {sorted(clash)}")
    if how == "left_anti":
        rsch = pa.schema([rsch.field(right_on)])
        out_schema = lsch
    else:
        out_schema = pa.schema(list(lsch) + [f for f in rsch if f.name not in shared])
    sides = (lsch, rsch)
    union_schema = pa.schema(
        [("side", pa.int8())]
        + [(f"{s}.{f.name}", f.type) for s, sch in enumerate(sides) for f in sch]
    )

    def tag(side: int, key: str):
        def f(t: pa.Table) -> pa.Table:
            n = len(t)
            cols = [pa.array(np.full(n, side, np.int8))]
            for s, sch in enumerate(sides):
                cols += [
                    t[f.name].cast(f.type) if s == side else _filler(n, f.type)
                    for f in sch
                ]
            return pa.Table.from_arrays(cols, schema=union_schema)

        return f

    def side_frame(t: pa.Table, side: int, drop_null: str | None) -> pd.DataFrame:
        sch = sides[side]
        rows = t.filter(pc.equal(t["side"], side))
        # the cast restores types a sort reduce through pandas loses
        rows = rows.select([f"{side}.{f.name}" for f in sch]).rename_columns(sch.names)
        rows = rows.cast(sch)
        if drop_null:  # null keys never match; pandas would match them
            rows = rows.filter(pc.is_valid(rows[drop_null]))
        return rows.to_pandas()

    def join_part(t: pa.Table) -> pa.Table:
        lf = side_frame(t, 0, on if how == "inner" else None)
        rf = side_frame(t, 1, right_on)
        if how == "left_anti":
            hit = lf.merge(rf.drop_duplicates(), left_on=on, right_on=right_on,
                           how="left", indicator=True)["_merge"].to_numpy()
            out = lf[hit == "left_only"]
        else:
            out = lf.merge(rf, left_on=on, right_on=right_on,
                           how="inner" if how == "inner" else "left")
        # one Arrow schema for every partition: an int column stays int
        # (nullable) whether or not this partition had unmatched rows
        return pa.Table.from_pandas(out, schema=out_schema, preserve_index=False)

    def route(t: pa.Table, n: int) -> np.ndarray:
        side, part = t["side"].to_numpy(), np.zeros(len(t), np.int64)
        for s, key in enumerate((on, right_on)):
            m = side == s
            part[m] = hash_part([t[f"{s}.{key}"].filter(pa.array(m))], n)
        return part

    tagged = left.map_batches(tag(0, on), batch_format="pyarrow").union(
        right.map_batches(tag(1, right_on), batch_format="pyarrow")
    )
    return _shuffle(tagged, route, join_part, "pyarrow")
