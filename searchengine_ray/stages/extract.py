"""HTML shortening + link extraction (reference M8/M9/M10).

* ``shorten_html`` mirrors ``shortenData`` (``SearchEngine.cpp:136-256``)
  + ``removeComment`` (``SearchEngine.cpp:116-134``): drop comments,
  ``<script>``/``<style>`` bodies; the reference additionally strips
  non-href attributes (a size optimization we don't need — extraction
  only looks at ``href="`` patterns).
* ``extract_links`` mirrors ``getURLs`` (``SearchEngine.cpp:40-114``):
  only the four patterns ``href="//``, ``href="http://``,
  ``href="https://``, ``href="/`` count (case-sensitive, double-quote
  only); same-host detection by prefix-compare at the first
  ``/``/``:``/``?``; https re-prefixing rules preserved; per-page
  dedup on the md5-identity string of the *raw* candidate
  (``SearchEngine.cpp:101-104`` — i.e. ``www.``/leading-``/`` stripped
  but NOT truncated).  The dedup compares that identity key string
  itself, not a hash of it: no per-link hashing on the fetch hot path,
  and no way for two distinct links to collide.
* ``get_title`` mirrors ``getTitlefromContent``
  (``SearchEngine.cpp:959-991``): first ``<title>…</title>``, control
  chars cleaned, capped at 255 chars.
"""

from __future__ import annotations

import re

from ..functions.urlkernel import key_string

_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)
_SCRIPT_RE = re.compile(r"<script\b.*?</script\s*>", re.S | re.I)
_STYLE_RE = re.compile(r"<style\b.*?</style\s*>", re.S | re.I)
_HREF_RE = re.compile(r'href="([^"]*)"')
_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title\s*>", re.S | re.I)


def shorten_html(html: str) -> str:
    html = _COMMENT_RE.sub("", html)
    html = _SCRIPT_RE.sub("", html)
    html = _STYLE_RE.sub("", html)
    return html


def get_title(html: str, cap: int = 255) -> str:
    m = _TITLE_RE.search(html)
    if not m:
        return ""
    title = "".join(ch for ch in m.group(1) if ch >= " ")
    return title.strip()[:cap]


def _samehost(u: str, host: str) -> bool:
    # the reference tests the prefix at EVERY '/',':','?' until a match
    # (SearchEngine.cpp:61-64) — e.g. "a.com:80/x" vs host "a.com:80"
    # matches at the '/' even though the ':' prefix didn't.  A match at
    # position i needs u[:i] == host, i.e. i == len(host), so only that
    # one position can match.
    n = len(host)
    return u.startswith(host) and (len(u) == n or u[n] in "/:?")


def extract_links(shortened_html: str, host: str, https: bool) -> list[str]:
    """Raw link candidates in document order (first occurrence wins)."""
    out: list[str] = []
    seen: set[str] = set()
    for m in _HREF_RE.finditer(shortened_html):
        val = m.group(1)
        if val.startswith("//"):
            u = val[2:]
            link_https = False
            same = _samehost(u, host)
        elif val.startswith("https://"):
            u = val[8:]
            link_https = True
            same = _samehost(u, host)
        elif val.startswith("http://"):
            u = val[7:]
            link_https = False
            same = _samehost(u, host)
        elif val.startswith("/"):
            u = host + "/" + val[1:]
            link_https = False
            same = True
        else:
            continue  # other href forms are ignored (SearchEngine.cpp:40-46)
        if not u:
            continue
        if (same and https) or (not same and link_https):
            u = "https://" + u
        k = key_string(u)  # getMD5-identity (SearchEngine.h:213-223)
        if k in seen:
            continue
        seen.add(k)
        out.append(u)
    return out
