"""Parquet reads sized by bytes on disk.

``read_parquet`` is the package's one Ray Data parquet read: it sizes
the read's block count by bytes on disk (``blocks_for``).  The crawl's
own durable state (per-epoch crawl order, content rows, hash index and
actor snapshots) lives in its ``ckpt/epoch=N`` dirs, one commit point
per epoch (``pipelines/crawl.py``).
"""

from __future__ import annotations

import os

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


def read_parquet(paths, columns=None):
    """Ray Data read of ``paths`` (a parquet file or a list of them),
    ``columns``-pruned, as ``read_blocks(paths)`` blocks.

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
    Ray already runs no more tasks at once than there are CPUs."""
    import ray.data

    return ray.data.read_parquet(
        paths, columns=columns, override_num_blocks=read_blocks(paths)
    )
