"""Versioned table storage: parquet fragments plus JSON manifests.

The north rule stores content/frontier/seen state in versioned,
append-only tables (append + random access + versioning), replacing
the reference's hand-rolled append-only KV logs
(``KeyValueDB.hpp:68-504`` — key log + value log + in-RAM index rebuilt
by replay).  Each version is one parquet fragment plus a JSON manifest
(``_versions/v{n}.json`` listing its fragment lineage), committed by
atomic rename — append-only, time-travelable and resumable.

``VersionedTable`` exposes ``append(table) -> version``,
``read(version) -> pa.Table``, ``to_ray(version) -> ray.data.Dataset``
(streaming read of the fragment files — the 100 TB path),
``version_delta``, ``truncate_to``, ``count``, ``versions()`` and
``latest()``.

``read_parquet`` is the package's one Ray Data parquet read: it sizes
the read's block count by bytes on disk (``blocks_for``).
"""

from __future__ import annotations

import json
import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

# bytes on disk per Ray Data block (and per hash-join partition)
BLOCK_BYTES = 32 << 20


def blocks_for(nbytes: int) -> int:
    """Blocks for ``nbytes`` of parquet on disk: one per started
    ``BLOCK_BYTES``, at least one."""
    return max(1, -(-nbytes // BLOCK_BYTES))


def read_blocks(paths) -> int:
    """Block count of a read of ``paths`` (a parquet file or a list of
    them): ``blocks_for`` their total size on disk."""
    if isinstance(paths, str):
        paths = [paths]
    return blocks_for(sum(os.path.getsize(p) for p in paths))


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
    partition size of the catalog's hash joins.  Reads get no floor at
    the CPU count: under 32 MiB the work a split spreads over more
    CPUs is smaller than the cost of the tasks it adds.  Nor a cap:
    Ray already runs no more tasks at once than there are CPUs."""
    import ray.data

    return ray.data.read_parquet(
        paths, columns=columns, override_num_blocks=read_blocks(paths)
    )


class VersionedTable:
    def __init__(self, path: str):
        self.path = path
        os.makedirs(self._vdir, exist_ok=True)
        os.makedirs(os.path.join(path, "fragments"), exist_ok=True)

    # ---------------------------------------------------------- versions
    @property
    def _vdir(self) -> str:
        return os.path.join(self.path, "_versions")

    def versions(self) -> list[int]:
        out = []
        for f in os.listdir(self._vdir):
            if f.startswith("v") and f.endswith(".json"):
                out.append(int(f[1:-5]))
        return sorted(out)

    def latest(self) -> int | None:
        vs = self.versions()
        return vs[-1] if vs else None

    # ------------------------------------------------------------ append
    def append(self, table: pa.Table) -> int:
        prev = self.latest()
        version = (prev or 0) + 1
        frag = f"fragments/{version:08d}-{uuid.uuid4().hex[:8]}.parquet"
        pq.write_table(table, os.path.join(self.path, frag))
        manifest = {
            "version": version,
            "parent": prev,
            "fragment": frag,
            "num_rows": len(table),
            "fragments": (
                self._manifest(prev)["fragments"] if prev else []
            )
            + [frag],
        }
        tmp = os.path.join(self._vdir, f".v{version}.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, os.path.join(self._vdir, f"v{version}.json"))
        return version

    def _manifest(self, version: int) -> dict:
        with open(os.path.join(self._vdir, f"v{version}.json")) as f:
            return json.load(f)

    # -------------------------------------------------------------- read
    def _fragment_paths(self, version: int | None) -> list[str]:
        version = version or self.latest()
        if version is None:
            return []
        return [
            os.path.join(self.path, fr)
            for fr in self._manifest(version)["fragments"]
        ]

    def read(self, version: int | None = None) -> pa.Table:
        paths = self._fragment_paths(version)
        if not paths:
            return pa.table({})
        return pa.concat_tables(pq.read_table(p) for p in paths)

    def to_ray(self, version: int | None = None, columns=None):
        """Streaming Ray Data read over the version's fragments."""
        import ray.data

        paths = self._fragment_paths(version)
        if not paths:
            return ray.data.from_arrow(pa.table({}))
        return read_parquet(paths, columns=columns)

    def version_delta(self, version: int) -> pa.Table:
        """Rows appended BY this version (its own fragment) — the unit
        a per-epoch point-lookup index refers to."""
        m = self._manifest(version)
        return pq.read_table(os.path.join(self.path, m["fragment"]))

    def truncate_to(self, version: int | None) -> None:
        """Drop versions AFTER ``version`` (crash-recovery: appends that
        were never committed by the caller's atomic publish step): the
        dangling manifests are deleted, so their fragments become
        unreferenced."""
        for v in self.versions():
            if version is None or v > version:
                os.remove(os.path.join(self._vdir, f"v{v}.json"))

    def count(self, version: int | None = None) -> int:
        version = version or self.latest()
        if version is None:
            return 0
        total = 0
        for p in self._fragment_paths(version):
            total += pq.read_metadata(p).num_rows
        return total
