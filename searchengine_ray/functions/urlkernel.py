"""URL canonicalization / identity / filter kernels.

Reimplements the reference crawler's URL semantics (conformance
targets — every rule cites the reference file:line it mirrors):

* ``truncate_url``   — ``SearchEngine.h:779-799`` (``Model::truncateURL``):
  drop an ``http://`` scheme (``https`` is KEPT), strip leading and
  trailing ``/``, reject results shorter than 3 chars.
* ``key_string``     — ``SearchEngine.cpp? getMD5`` at
  ``SearchEngine.h:213-223``: the *hash identity* additionally strips a
  leading ``www.`` and any leading ``/`` before hashing.
* ``split_host``     — ``SearchEngine.h:225-245`` (``split``): host =
  text between scheme and first ``/`` (the reference's port parse is
  unreachable for ``host:port/path`` URLs — the host keeps the
  ``:port`` suffix; replicated).
* ``collision_domain`` — ``SearchEngine.h:696-718``
  (``hostCollisionHash``): keep the last two labels, peeling one extra
  label when an inner label is ``com``/``org`` (so ``a.example.com.cn``
  → ``example.com.cn``); the result is hashed (after ``www.`` strip)
  into the frontier partition key.
* ``filter_mask``    — ``SearchEngine.h:720-761`` (``filterURL``):
  length ∈ [4, 2048], extension blacklist (only when len > 4), host
  length > 2, ``.jp`` TLD drop.

Scalar functions are the readable spec (used by the oracle and by
property tests); ``*_batch`` functions are the vectorized
pyarrow/numpy versions used inside ``map_batches`` hot paths.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import fnv1a64, fnv1a64_batch

MAX_URL_LEN = 2048  # MAXURLLEN, SearchEngine.h:16
EXT_BLACKLIST = (
    ".js", ".ico", ".css", ".jpg", ".png", ".zip", ".gif", ".pdf", ".exe", ".rar",
)  # SearchEngine.h:724-735


# ---------------------------------------------------------------- scalar spec

def truncate_url(u: str) -> str | None:
    """Canonicalize one URL; None = reject. Mirrors SearchEngine.h:779-799."""
    if len(u) < 3:
        return None
    if len(u) >= 7 and u[:5] == "https":
        if u[5] != ":":
            return None
        return u.rstrip("/")  # https URLs keep their scheme
    p = 0
    if len(u) >= 7 and u[:4] == "http":
        if u[4] != ":":
            return None
        p = 5
    s = u[p:].lstrip("/").rstrip("/")
    if len(s) < 3:
        return None
    return s


def key_string(canon: str) -> str:
    """Hash-identity string of a canonical URL (SearchEngine.h:213-223)."""
    s = canon
    if len(s) > 4 and s[:4] == "www.":
        s = s[4:]
    return s.lstrip("/")


def url_hash(canon: str) -> int:
    return fnv1a64(key_string(canon))


def split_host(canon: str) -> str:
    """Host component incl. any :port (SearchEngine.h:225-245)."""
    s = canon
    if s[:7] == "http://":
        s = s[7:]
    elif s[:8] == "https://":
        s = s[8:]
    i = s.find("/")
    return s if i < 0 else s[:i]


def host_hash(host: str) -> int:
    """Host identity hash (reference: getMD5(host) — www. stripped)."""
    return fnv1a64(key_string(host))


@lru_cache(maxsize=65536)
def collision_domain(host: str) -> str:
    """Registered-domain-ish suffix used as politeness partition key
    (SearchEngine.h:696-718)."""
    i = len(host) - 1
    remaindots = 1
    while i >= 0:
        if host[i] == ".":
            if not remaindots:
                if host[i : i + 4].lower() in (".com", ".org"):
                    i -= 1
                    continue
                i += 1
                break
            remaindots -= 1
        i -= 1
    if i < 0:
        i = 0
    return host[i:]


def host_collision_hash(host: str) -> int:
    return fnv1a64(key_string(collision_domain(host)))


def filter_url(canon: str) -> tuple[bool, str]:
    """(accept, reject_reason) for one canonical URL (SearchEngine.h:720-761).

    Stateful parts of the reference predicate (per-host quota, shard
    admission caps, dedup) live in the frontier/host stages, not here.
    """
    n = len(canon)
    if n < 4 or n > MAX_URL_LEN:
        return False, "too_long" if n > MAX_URL_LEN else "too_short"
    if n > 4:
        for ext in EXT_BLACKLIST:
            if canon.endswith(ext):
                return False, "ext_blacklist"
    host = split_host(canon)
    if len(host) <= 2:
        return False, "bad_host"
    if len(host) > 3 and host.endswith(".jp"):
        return False, "bad_host"
    return True, ""


# ------------------------------------------------------------- batch kernels

def truncate_batch(urls: pa.Array | list) -> tuple[pa.Array, np.ndarray]:
    """Vectorized ``truncate_url``: (canonical strings, valid mask).

    Invalid rows keep an empty string in the output array.
    """
    arr = urls if isinstance(urls, pa.Array) else pa.array(urls, type=pa.string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return arr, np.zeros(0, bool)
    ln = pc.utf8_length(arr).to_numpy(zero_copy_only=False)
    is_https = pc.and_(
        pc.equal(pc.utf8_slice_codeunits(arr, 0, 5), "https"), pc.greater_equal(ln, 7)
    )
    https_ok = pc.and_(is_https, pc.equal(pc.utf8_slice_codeunits(arr, 5, 6), ":"))
    starts_http = pc.and_(
        pc.equal(pc.utf8_slice_codeunits(arr, 0, 4), "http"),
        pc.and_(pc.greater_equal(ln, 7), pc.invert(is_https)),
    )
    http_ok = pc.and_(starts_http, pc.equal(pc.utf8_slice_codeunits(arr, 4, 5), ":"))

    https_m = https_ok.to_numpy(zero_copy_only=False)
    http_m = http_ok.to_numpy(zero_copy_only=False)
    bad_scheme = pc.or_(
        pc.and_(is_https, pc.invert(https_ok)), pc.and_(starts_http, pc.invert(http_ok))
    ).to_numpy(zero_copy_only=False)

    # strip scheme for http rows; then lstrip '/' for all non-https rows
    stripped = pc.if_else(http_ok, pc.utf8_slice_codeunits(arr, 5, np.iinfo(np.int32).max), arr)
    no_lead = pc.utf8_ltrim(stripped, characters="/")
    body = pc.if_else(https_ok, arr, no_lead)
    canon = pc.utf8_rtrim(body, characters="/")

    out_len = pc.utf8_length(canon).to_numpy(zero_copy_only=False)
    valid = np.where(
        https_m, True, np.where(bad_scheme, False, (out_len >= 3) & (ln >= 3))
    )
    valid &= ~bad_scheme
    valid &= ln >= 3
    canon = pc.if_else(pa.array(valid), canon, "")
    return canon, valid


def key_string_batch(canon: pa.Array) -> pa.Array:
    ln = pc.utf8_length(canon)
    www = pc.and_(
        pc.equal(pc.utf8_slice_codeunits(canon, 0, 4), "www."), pc.greater(ln, 4)
    )
    stripped = pc.if_else(
        www, pc.utf8_slice_codeunits(canon, 4, np.iinfo(np.int32).max), canon
    )
    return pc.utf8_ltrim(stripped, characters="/")


def url_hash_batch(canon: pa.Array) -> np.ndarray:
    return fnv1a64_batch(key_string_batch(canon))


def split_host_batch(canon: pa.Array) -> pa.Array:
    http = pc.equal(pc.utf8_slice_codeunits(canon, 0, 7), "http://")
    https = pc.equal(pc.utf8_slice_codeunits(canon, 0, 8), "https://")
    s = pc.if_else(
        http,
        pc.utf8_slice_codeunits(canon, 7, np.iinfo(np.int32).max),
        pc.if_else(
            https, pc.utf8_slice_codeunits(canon, 8, np.iinfo(np.int32).max), canon
        ),
    )
    # host = prefix up to the first '/' (vectorized split, keep part 0)
    return pc.list_element(pc.split_pattern(s, "/", max_splits=1), 0)


def host_hash_batch(hosts: pa.Array) -> np.ndarray:
    return fnv1a64_batch(key_string_batch(hosts))


def collision_hash_batch(hosts: pa.Array) -> np.ndarray:
    """Per-batch: collision-domain per distinct host (cached), hashed,
    then gathered back to every row."""
    d = hosts.dictionary_encode()
    domains = [collision_domain(h) for h in d.dictionary.to_pylist()]
    return fnv1a64_batch(pa.array(domains, pa.string()))[d.indices.to_numpy()]


def filter_mask_batch(canon: pa.Array, hosts: pa.Array) -> np.ndarray:
    """Vectorized ``filter_url``: the accept mask.  ``hosts`` is
    ``split_host_batch(canon)``, which the caller already holds for its
    shard key.  A URL is rejected when it is under 4 or over
    ``MAX_URL_LEN`` characters, ends in a blacklisted extension (checked
    only past 4 characters, as the reference does) or has a bad host."""
    ln = pc.utf8_length(canon).to_numpy(zero_copy_only=False)
    ext_bad = np.zeros(len(canon), bool)
    for ext in EXT_BLACKLIST:
        ext_bad |= pc.ends_with(canon, ext).to_numpy(zero_copy_only=False)
    hln = pc.utf8_length(hosts).to_numpy(zero_copy_only=False)
    bad_host = (hln <= 2) | (
        (hln > 3) & pc.ends_with(hosts, ".jp").to_numpy(zero_copy_only=False)
    )
    return (ln >= 4) & (ln <= MAX_URL_LEN) & ~(ext_bad & (ln > 4)) & ~bad_host
