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
and integer results are int64.  Typed-empty rule: when no partial row
comes back (Ray runs no UDF on an input with no rows), the result is
the per-batch function and the fold run once on the driver over a
zero-row table of ``ds.schema()`` — never a schema-less frame.

Shape: a map stage stamps each row with an int64 partition id
``part`` in ``[0, npart)`` (a key hash, or any key-complete routing a
caller already has); ``Dataset.sort`` with the KNOWN boundaries
``1 .. npart-1`` range-partitions on it, so each output block holds
exactly one partition; ``map_batches(batch_size=None)`` then calls
``fn`` once per key-complete partition.  This is the contract Ray's
own ``GroupedData.map_groups`` relies on (sort, then whole-block
batches), minus its boundary-sampling pass and its per-group split —
and unlike ``Dataset.join`` or key-based ``repartition`` (both the
hash-shuffle aggregator-actor operator in Ray 2.49) it starts no
actors.

Typed results: before the sort every non-empty input block appends
one pad row per partition (flagged in a ``_keyed_pad`` column), so no
sort partition is empty and ``fn`` runs on every partition — on an
empty, correctly typed frame where no real row landed.  An empty
partition therefore yields ``fn``'s typed empty result instead of the
schema-less block Ray's sort emits for it.  A caller whose input may
be empty altogether unions in one typed seed row its ``fn`` ignores
(``hash_join`` does).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import fnv1a64_batch, fnv1a64_fixed, hash_combine

_PAD = "_keyed_pad"
JOIN_TYPES = ("inner", "left_outer", "left_anti")


def ncpus() -> int:
    """Cluster CPU count (≥ 2): the default partition count of every
    keyed shuffle."""
    import ray

    try:
        return max(2, int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        return 8


def _key_hash(values: np.ndarray) -> np.ndarray:
    """FNV-1a/64 of one key column: integers hash their 8 bytes,
    anything else its string form, so equal keys hash equally in
    every block and on both sides of a join."""
    if values.dtype.kind in "iu":
        mat = np.ascontiguousarray(values.astype("<u8")).view(np.uint8)
        return fnv1a64_fixed(mat.reshape(len(values), 8))
    return fnv1a64_batch(values.astype("U"))


def hash_part(cols: list[np.ndarray], npart: int) -> np.ndarray:
    """int64 partition id in ``[0, npart)`` of the composite key whose
    columns are ``cols``."""
    h = _key_hash(cols[0])
    for c in cols[1:]:
        h = hash_combine(h, _key_hash(c))
    return (h % np.uint64(npart)).astype(np.int64)


def keyed_map(ds, part_col: str, npart: int, fn, batch_format: str = "pandas"):
    """Run ``fn`` once per partition of ``ds`` by ``part_col``.

    ``part_col`` holds ints in ``[0, npart)``; values outside fold into
    the first/last partition.  ``fn`` gets every row of its partition
    (``part_col`` included) as a pandas frame — or a ``pyarrow.Table``
    with ``batch_format="pyarrow"`` — and returns a frame or table.
    An empty partition of an input with rows calls ``fn`` on an empty,
    typed frame; on an input with no rows Ray runs no task, so ``fn``
    never runs and the result has no schema (``combine`` and ``top_k``
    build their typed empty on the driver instead)."""
    npart = max(int(npart), 2)

    def pad(t: pa.Table) -> pa.Table:
        # pad rows repeat the block's first row: typed and non-null, so
        # a sort reduce that goes through pandas (Ray merges through
        # whichever block type most of its inputs have) turns no int
        # column into float; pandas metadata would only make the sort's
        # schema unification fail to hash (and log) every block
        t = t.replace_schema_metadata()
        fill = t.take(np.zeros(npart, np.int64))
        i = t.schema.get_field_index(part_col)
        fill = fill.set_column(
            i, t.schema.field(i), pa.array(np.arange(npart), t.schema.field(i).type)
        )
        return pa.concat_tables(
            [
                t.append_column(_PAD, pa.array(np.zeros(len(t), bool))),
                fill.append_column(_PAD, pa.array(np.ones(npart, bool))),
            ]
        )

    def run(t: pa.Table):
        t = t.filter(pc.invert(t[_PAD])).drop_columns([_PAD])
        return fn(t.to_pandas() if batch_format == "pandas" else t)

    run.__name__ = getattr(fn, "__name__", "keyed_map")
    return (
        ds.map_batches(pad, batch_format="pyarrow")
        .sort(part_col, boundaries=list(range(1, npart)))
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
    ``keyed_map`` fold by key hash returning a materialized Dataset
    (a result too big for the driver).

    Typed empty: Ray skips every UDF when the input has no rows, so no
    partial row comes back; the result is then ``fn`` + group + fold
    run once on the driver over a zero-row table of ``ds.schema()`` —
    the same columns and types a non-empty input gives, zero rows
    (one row of nulls and zero counts with no ``keys``, as SQL)."""
    import ray

    keys = list(keys)
    if partitioned and not keys:
        raise ValueError("a global aggregate is one row: fold it on the driver")
    npart = ncpus()
    folds = {c: (c, _FOLD[op]) for c, (_src, op) in aggs.items()}

    def partial(t: pa.Table) -> pa.Table:
        if fn is not None:
            t = fn(t)
            if isinstance(t, pd.DataFrame):
                t = pa.Table.from_pandas(t, preserve_index=False)
        out = _group(t.replace_schema_metadata(), keys, aggs)
        if partitioned:
            cols = [
                pc.fill_null(out[k], _filler(1, out[k].type)[0]).to_numpy(
                    zero_copy_only=False
                )
                for k in keys
            ]
            out = out.append_column("part", pa.array(hash_part(cols, npart)))
        return out

    def fold(t: pa.Table) -> pa.Table:
        if partitioned:
            t = t.drop_columns(["part"])
        if any(op == "sum" and pa.types.is_floating(t[c].type)
               for c, (_src, op) in aggs.items()):
            t = t.sort_by([(c, "ascending") for c in t.column_names])
        return _group(t, keys, folds)

    def typed_empty() -> pa.Table:
        return fold(partial(arrow_schema(ds).empty_table()))

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    if partitioned:
        out = keyed_map(parts, "part", npart, fold, batch_format="pyarrow")
        out = out.materialize()
        return out if out.count() else ray.data.from_arrow(typed_empty())
    blocks = parts.iter_batches(batch_size=None, batch_format="pyarrow")
    tables = [t for t in blocks if t.num_rows]
    if not tables:
        return typed_empty().to_pandas()
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
    key is its own group.  Typed empty: when no row comes back (Ray
    runs no UDF on an input with no rows), both steps run once on the
    driver over a zero-row table of ``ds.schema()``."""
    keys = list(keys)
    by = [c for c, _ in order]
    asc = [d == "ascending" for _, d in order]
    npart = ncpus()

    def head(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(by, ascending=asc)
        return b.groupby(keys, sort=False, dropna=False).head(k)

    def partial(t: pa.Table) -> pd.DataFrame:
        if fn is not None:
            t = fn(t)
        b = head(t if isinstance(t, pd.DataFrame) else t.to_pandas())
        b = b.reset_index(drop=True)
        return b.assign(part=hash_part([b[c].to_numpy() for c in keys], npart))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return head(g).drop(columns=["part"])

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    out = keyed_map(parts, "part", npart, final).to_pandas()
    if not len(out):
        out = final(partial(arrow_schema(ds).empty_table()))
    out = out.sort_values(keys + by, ascending=[True] * len(keys) + asc)
    return out.reset_index(drop=True)


def with_hash_part(ds, keys: list, npart: int):
    """``ds`` plus an int64 ``part`` column hashed from ``keys``."""

    def addpart(b: pd.DataFrame) -> pd.DataFrame:
        part = hash_part([b[k].to_numpy() for k in keys], npart)
        return b.assign(part=part)

    return ds.map_batches(addpart, batch_format="pandas")


def arrow_schema(ds) -> pa.Schema:
    """``ds``'s schema as a ``pyarrow.Schema`` (runs ``ds`` to its first
    block when Ray cannot type it from the plan)."""
    s = ds.schema()
    return pa.schema(list(zip(s.names, s.types)))


def _filler(n: int, typ: pa.DataType) -> pa.Array:
    """``n`` non-null values of ``typ`` (zeros) for the other side's
    columns: a null would make an int column float on a sort reduce
    through pandas, and float64 cannot hold every int64 key."""
    try:
        return pc.cast(pa.array(np.zeros(n, np.int8)), typ)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return pa.nulls(n, typ)  # binary/nested: lossless through pandas


def hash_join(
    left, right, on: str, right_on: str, how: str = "inner", npart: int | None = None
):
    """Hash join of two Datasets on one key column per side, as one
    keyed shuffle.

    Both sides hash their key into ``part``, are tagged with a side
    column and padded to one common schema (side 0's columns prefixed
    ``0.``, side 1's ``1.``), and unioned; one ``keyed_map`` runs a
    pandas merge per partition.  ``how`` is ``inner``, ``left_outer``
    or ``left_anti`` (left rows with no match; only the right key
    column is shuffled).  Null keys never match, as in SQL.  The output
    has the left columns, then the right ones; a key named alike on
    both sides appears once, any other shared name is an error.  One
    typed seed row (a third side no partition joins) rides along, so
    every partition runs the merge and the output is typed even when
    both sides are empty.  Both
    schemas are read up front, so a side Ray cannot type from its plan
    alone (a ``map_batches`` output) runs to its first block:
    materialize such a side first."""
    import ray

    if how not in JOIN_TYPES:
        raise ValueError(f"how must be one of {JOIN_TYPES}, got {how!r}")
    npart = npart or ncpus()
    lsch, rsch = arrow_schema(left), arrow_schema(right)
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
        [("part", pa.int64()), ("side", pa.int8())]
        + [(f"{s}.{f.name}", f.type) for s, sch in enumerate(sides) for f in sch]
    )

    def tag(side: int, key: str | None):
        def f(t: pa.Table) -> pa.Table:
            n = len(t)
            part = (
                hash_part([t[key].to_numpy(zero_copy_only=False)], npart)
                if key else np.zeros(n, np.int64)
            )
            cols = [pa.array(part), pa.array(np.full(n, side, np.int8))]
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

    seed = ray.data.from_arrow(tag(2, None)(pa.table({"n": [0]})))
    tagged = left.map_batches(tag(0, on), batch_format="pyarrow").union(
        right.map_batches(tag(1, right_on), batch_format="pyarrow"), seed
    )
    return keyed_map(tagged, "part", npart, join_part, batch_format="pyarrow")
