"""The package's one keyed shuffle: every grouped finish and every join
runs as ``keyed_map`` on plain Ray tasks.

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
schema-less block Ray's sort emits for it.
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
    Empty partitions call ``fn`` on an empty, typed frame."""
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


def part_groupby(ds, keys: list, aggs: dict, npart: int | None = None):
    """Distributed grouped aggregate: hash the group keys into
    ``part``, then one vectorized pandas groupby per key-complete
    partition.  Exact for sum/max/min; ``aggs`` maps column ->
    "sum" | "max" | "min".  Routes around Ray's string-keyed
    ``Aggregate`` operator (measured ~6.9 s for 62 k partial rows at
    32 CPUs vs ~1 s for the partitioned shape)."""
    npart = npart or ncpus()
    keys = list(keys)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False).agg(
            **{c: (c, how) for c, how in aggs.items()}
        )

    return keyed_map(with_hash_part(ds, keys, npart), "part", npart, combine)


def with_hash_part(ds, keys: list, npart: int):
    """``ds`` plus an int64 ``part`` column hashed from ``keys``."""

    def addpart(b: pd.DataFrame) -> pd.DataFrame:
        part = hash_part([b[k].to_numpy() for k in keys], npart)
        return b.assign(part=part)

    return ds.map_batches(addpart, batch_format="pandas")


def _arrow_schema(ds) -> pa.Schema:
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
    both sides appears once, any other shared name is an error.  Both
    schemas are read up front, so a side Ray cannot type from its plan
    alone (a ``map_batches`` output) runs to its first block:
    materialize such a side first."""
    if how not in JOIN_TYPES:
        raise ValueError(f"how must be one of {JOIN_TYPES}, got {how!r}")
    npart = npart or ncpus()
    lsch, rsch = _arrow_schema(left), _arrow_schema(right)
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

    def tag(side: int, key: str):
        def f(t: pa.Table) -> pa.Table:
            n = len(t)
            part = hash_part([t[key].to_numpy(zero_copy_only=False)], npart)
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

    tagged = left.map_batches(tag(0, on), batch_format="pyarrow").union(
        right.map_batches(tag(1, right_on), batch_format="pyarrow")
    )
    return keyed_map(tagged, "part", npart, join_part, batch_format="pyarrow")
