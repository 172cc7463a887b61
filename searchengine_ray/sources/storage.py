"""Parquet reads planned from their footers, sized by bytes on disk.

``read_parquet`` is the package's one Ray Data parquet read: it sizes
the read's block count by bytes on disk (``blocks_for``) and plans its
read tasks from the files' parquet footers (``FooterParquet``): row
counts, the column-pruned Arrow schema and the pruned columns' sizes
are all stated there, so planning runs no Ray task and no dataset
discovery pass.  The crawl's own durable state (per-epoch crawl order,
content rows, hash index and actor snapshots) lives in its
``ckpt/epoch=N`` dirs, one commit point per epoch
(``pipelines/crawl.py``).
"""

from __future__ import annotations

import bisect
import itertools
import os

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

# bytes on disk per Ray Data block (and per keyed-shuffle partition)
BLOCK_BYTES = 32 << 20


def blocks_for(nbytes: int) -> int:
    """Blocks for ``nbytes`` of parquet on disk: one per started
    ``BLOCK_BYTES``, at least one."""
    return max(1, -(-nbytes // BLOCK_BYTES))


def disk_bytes(paths) -> int:
    """Total size on disk of ``paths`` (a parquet file or a list of
    them)."""
    if isinstance(paths, str):
        paths = [paths]
    return sum(os.path.getsize(p) for p in paths)


def read_blocks(paths) -> int:
    """Block count of a read of ``paths``: ``blocks_for`` their total
    size on disk."""
    return blocks_for(disk_bytes(paths))


def _read_piece(path: str, groups: list, offset: int, rows: int, columns) -> pa.Table:
    with pq.ParquetFile(path) as f:
        return f.read_row_groups(groups, columns=columns).slice(offset, rows)


def _read_pieces(pieces, columns, schema: pa.Schema):
    """One block: each ``(path, row groups, offset, rows)`` piece's row
    groups read ``columns``-pruned, then sliced (zero-copy) to its rows."""
    tables = [_read_piece(*piece, columns) for piece in pieces]
    if not tables:
        return [schema.empty_table()]
    return [pa.concat_tables(tables, promote_options="permissive")]


def _cuts(ends: list, nblocks: int) -> list:
    """``nblocks`` row ranges ``[a, b)`` over a row sequence whose row
    groups end at ``ends`` (``ends[0]`` is 0): even in rows, each cut
    snapped to a row-group boundary when there are enough of them."""
    total = ends[-1]
    cuts = [i * total // nblocks for i in range(nblocks + 1)]
    inner = sorted(set(ends) - {0, total})
    if len(inner) >= nblocks - 1:
        at = [-1]
        for i in range(1, nblocks):
            j = bisect.bisect_left(inner, cuts[i])
            at.append(min(max(j, at[-1] + 1), len(inner) - nblocks + i))
        cuts = [0] + [inner[j] for j in at[1:]] + [total]
    return list(zip(cuts[:-1], cuts[1:]))


class FooterParquet(Datasource):
    """Parquet files as ``nblocks`` read tasks, planned from their
    footers alone.

    The files' row groups, in order, form one row sequence; the cuts
    between tasks balance rows.  With at least ``nblocks`` non-empty row
    groups every cut falls on a row-group boundary, so a task reads
    whole row groups — of one file or of several small ones.  With
    fewer, a cut may fall inside a row group: each task reads only the
    row groups its rows overlap and keeps a zero-copy slice of them, so
    such a row group is read by every task that holds a part of it.  A
    task with no rows (zero-row files, or fewer rows than tasks) yields
    the schema's empty table.  Each task states its exact row count and
    the pruned columns' uncompressed footer bytes for its rows, so
    Ray's ``count`` and its memory budget need no run either."""

    def __init__(self, paths: list, columns, nblocks: int):
        self.paths = list(paths)
        self._columns = None if columns is None else list(columns)
        metas = [pq.read_metadata(p) for p in self.paths]
        self._schema = pa.unify_schemas(
            [self._pruned(m.schema.to_arrow_schema()) for m in metas],
            promote_options="permissive",
        )
        # per row group, in read order: (file index, group, rows, bytes),
        # and where each starts in the row sequence
        groups = [
            (f, g, m.row_group(g).num_rows, self._group_bytes(m.row_group(g)))
            for f, m in enumerate(metas)
            for g in range(m.num_row_groups)
        ]
        ends = list(itertools.accumulate((rows for _f, _g, rows, _b in groups), initial=0))
        self._tasks = [self._task(groups, ends, a, b) for a, b in _cuts(ends, nblocks)]

    def _pruned(self, schema: pa.Schema) -> pa.Schema:
        if self._columns is None:
            return schema
        return pa.schema([schema.field(c) for c in self._columns], metadata=schema.metadata)

    def _group_bytes(self, rg) -> int:
        cols = (rg.column(j) for j in range(rg.num_columns))
        return sum(c.total_uncompressed_size for c in cols
                   if self._columns is None
                   or c.path_in_schema.split(".")[0] in self._columns)

    def _task(self, groups, ends, a: int, b: int) -> ReadTask:
        pieces, nbytes = {}, 0
        k = bisect.bisect_right(ends, a) - 1  # the row group holding row a
        while k < len(groups) and ends[k] < b:
            f, g, rows, gbytes = groups[k]
            lo, hi = max(a, ends[k]), min(b, ends[k + 1])
            if lo < hi:
                path, gs, offset, n = pieces.get(f, (self.paths[f], [], lo - ends[k], 0))
                pieces[f] = (path, gs + [g], offset, n + hi - lo)
                nbytes += gbytes * (hi - lo) // rows
            k += 1
        pieces = list(pieces.values())
        columns, schema = self._columns, self._schema
        meta = BlockMetadata(num_rows=b - a, size_bytes=nbytes,
                             input_files=[p for p, *_ in pieces], exec_stats=None)
        return ReadTask(lambda: _read_pieces(pieces, columns, schema), meta, schema=schema)

    def estimate_inmemory_data_size(self) -> int:
        return sum(t.metadata.size_bytes for t in self._tasks)

    def get_read_tasks(self, parallelism: int) -> list:
        # the plan is fixed by the footers and ``nblocks``; Ray's own
        # parallelism (1 when it only infers the schema) changes nothing
        return self._tasks


def read_parquet(paths, columns=None):
    """Ray Data read of ``paths`` (a parquet file or a list of them),
    ``columns``-pruned, as ``read_blocks(paths)`` blocks planned from
    the files' footers (``FooterParquet``).

    The trade-off: every block is one Ray task per operator downstream,
    and each task costs a fixed few milliseconds of scheduling and
    argument/result handling whatever its size, while more blocks buy
    parallelism.  Ray's own planner splits every read into at least 2×
    the cluster's CPUs, so a 65 KB table pays for many tasks that each
    do almost nothing.  Here the count follows the data: one block per
    32 MiB on disk, so a test-scale table is one block and 100 GB is
    ~3,200.  32 MiB is the volume at which a block's decode and compute
    outweigh its task cost many times over, while the block, decoded
    (a few times its parquet size), stays under Ray Data's 128 MiB
    target block size, so Ray does not split it again; it is also the
    partition size of every keyed shuffle.  Reads get no floor at
    the CPU count: under 32 MiB the work a split spreads over more
    CPUs is smaller than the cost of the tasks it adds.  Nor a cap:
    Ray already runs no more tasks at once than there are CPUs.

    Ray's own ``read_parquet`` also starts a task at planning time to
    sample the files' in-memory size; the footers already state it, so
    this read plans with none."""
    import ray.data

    paths = [paths] if isinstance(paths, str) else list(paths)
    if not paths:
        raise ValueError("read_parquet needs at least one parquet file")
    nblocks = read_blocks(paths)
    return ray.data.read_datasource(FooterParquet(paths, columns, nblocks),
                                    override_num_blocks=nblocks)
