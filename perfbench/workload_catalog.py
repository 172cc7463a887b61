"""catalog: 8 SQL-checked catalog queries over fixed tables.

One op is one query; a pass runs all 8 in a fixed order and pulls each
result to pandas.  Set-up is Ray init plus one untimed warm-up pass.
Timed passes repeat until ``--seconds`` have passed, the last one
stopping part-way; each query's time is the median over its runs.
The tables are ``fixtures.CATALOG_DIR``; the seed does not change them.
Every result, warm-up included, must equal DuckDB on the query's
``oracle_sql()`` text, canonicalized as the tier-1 replica gate does.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pandas as pd

import probes
from common import Outcome, call_with_timeout
from fixtures import CATALOG_DIR

QUERIES = (
    "q01_pricing_summary",
    "q12_word_counts",
    "q16_minhash_pairs",
    "q26_brand_volume",
    "q49_heavy_tokens",
    "q73_span_removal",
    "q81_freq_spectrum",
    "q82_source_overlap",
)
_TABLES = ("lineitem", "part", "documents")


def _to_pandas(res) -> pd.DataFrame:
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = np.round(df[c].astype(np.float64), 9)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _equal(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    except AssertionError:
        return False
    return True


def _expected(sf_dir: str) -> dict[str, pd.DataFrame]:
    import duckdb

    from searchengine_ray.pipelines import queries as Q

    con = duckdb.connect()
    try:
        for t in _TABLES:
            path = os.path.join(sf_dir, f"{t}.parquet")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{path}'")
        sql = Q.oracle_sql()
        return {q: _canon(con.execute(sql[q]).df()) for q in QUERIES}
    finally:
        con.close()


def run(ctx) -> Outcome:
    from searchengine_ray.pipelines import queries as Q

    sf_dir = CATALOG_DIR
    want = _expected(sf_dir)
    if ctx.plant_mismatch:
        want[QUERIES[0]] = want[QUERIES[0]].iloc[1:].reset_index(drop=True)
    catalog = Q.queries()
    out = Outcome()
    wedged = False

    def one_pass(
        stop_at: float | None = None, settle: bool = True
    ) -> dict[str, float]:
        """Run every query once, or until ``stop_at`` (perf_counter
        seconds) → seconds per query that returned a correct result.
        With ``settle``, each query starts on a quiet Ray session."""
        nonlocal wedged
        times = {}
        for q in QUERIES:
            if stop_at is not None and time.perf_counter() >= stop_at:
                break
            out.attempted += 1
            if settle:
                probes.wait_quiet()
            try:
                t = time.perf_counter()
                got = call_with_timeout(
                    lambda: _to_pandas(catalog[q](sf_dir)), ctx.op_timeout()
                )
                s = time.perf_counter() - t
            except TimeoutError:
                out.failed += 1
                out.log.append(f"failed: {q}: timed out")
                wedged = True  # the Ray session may hold stuck tasks
                break
            except Exception as e:  # noqa: BLE001 - any failing op is counted
                out.failed += 1
                out.log.append(f"failed: {q}: {type(e).__name__}: {e}")
                continue
            if _equal(_canon(got), want[q]):
                times[q] = s
            else:
                out.failed += 1
                out.log.append(f"failed: {q}: result differs from DuckDB")
        return times

    import ray

    ray_init_s = ctx.init_ray()
    probes.wait_quiet()
    t = time.perf_counter()
    warm = one_pass(settle=False)
    warm_s = time.perf_counter() - t

    # per-query seconds over every timed query of the run
    samples = {q: [] for q in QUERIES}
    traced_samples = {q: [] for q in QUERIES}
    layer_rows = []
    # a traced run needs an untraced and a traced pass to compare
    min_passes = 2 if ctx.trace else 1
    end = time.perf_counter() + ctx.seconds
    n = 0
    while (
        not wedged
        and (n < min_passes or time.perf_counter() < end)
        and ctx.time_left() > 0
    ):
        traced = ctx.trace and n % 2 == 1
        n += 1
        cpu0 = probes.cpu_snapshot()
        w0 = time.time()
        # an untraced pass past the minimum stops where the window ends;
        # a traced pass runs whole, so its CPU and spans cover every query
        times = one_pass(end if n > min_passes and not traced else None)
        w1 = time.time()
        cpu = probes.cpu_by_group(cpu0, probes.cpu_snapshot())
        for q, s in times.items():
            (traced_samples if traced else samples)[q].append(s)
        if not times:
            continue
        out.log.append(
            f"pass {n}: {len(times)} queries, {sum(times.values()):.3f} s, "
            f"{1e3 * sum(cpu.values()) / len(times):.1f} CPU ms/query"
            + (" (traced)" if traced else "")
            + ": " + " ".join(f"{q[:3]} {v:.2f}" for q, v in times.items())
        )
        if traced and len(times) == len(QUERIES):
            probes.wait_for_spans()
            spans = probes.span_seconds(ray.timeline(), w0, w1)
            layer_rows.append(probes.ray_layers(cpu, spans))

    def pass_s(by_query) -> float | None:
        """Sum over the queries of each one's median seconds: the time
        of one typical pass."""
        if not all(by_query.values()):
            return None
        return sum(statistics.median(v) for v in by_query.values())

    if len(warm) == len(QUERIES):
        out.e2e["setup_s"] = ray_init_s + warm_s
    untraced = pass_s(samples)
    if untraced:
        out.e2e["items_per_s"] = len(QUERIES) / untraced
        out.info["catalog_s"] = (untraced, "s")
    traced_pass = pass_s(traced_samples)
    if layer_rows and traced_pass:
        for k in layer_rows[0]:
            out.layers[k] = statistics.median(r[k] for r in layer_rows)
        for q in QUERIES:
            out.layers[f"query.{q}_s"] = statistics.median(traced_samples[q])
        out.layers["trace.items_per_s"] = len(QUERIES) / traced_pass
        if untraced:
            out.layers["trace.overhead_per_s"] = (
                len(QUERIES) / traced_pass - len(QUERIES) / untraced
            )
    return out
