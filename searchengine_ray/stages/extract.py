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
# one match per href="..."; group 1 is the counted form (empty for
# any other form), group 2 the rest of the value
_HREF_RE = re.compile(r'href="(//|https://|http://|/)?([^"]*)"')
_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title\s*>", re.S | re.I)
_CONTROL = dict.fromkeys(range(ord(" ")))  # str.translate: drop chars < " "


def shorten_html(html: str) -> str:
    html = _COMMENT_RE.sub("", html)
    html = _SCRIPT_RE.sub("", html)
    html = _STYLE_RE.sub("", html)
    return html


def get_title(html: str, cap: int = 255) -> str:
    m = _TITLE_RE.search(html)
    if not m:
        return ""
    return m.group(1).translate(_CONTROL).strip()[:cap]


def extract_links(shortened_html: str, host: str, https: bool) -> list[str]:
    """Raw link candidates in document order (first occurrence wins).

    Same-host is the reference's prefix test at every '/', ':', '?'
    until a match (``SearchEngine.cpp:61-64``): a match at position i
    needs ``u[:i] == host``, so only ``i == len(host)`` can match."""
    out: list[str] = []
    seen: set[str] = set()
    n = len(host)
    for form, u in _HREF_RE.findall(shortened_html):
        if form == "/":
            u = host + "/" + u
            if https:  # same host
                u = "https://" + u
        elif not form or not u:
            continue  # other href forms are ignored (SearchEngine.cpp:40-46)
        else:
            same = u.startswith(host) and (len(u) == n or u[n] in "/:?")
            if same and https or not same and form == "https://":
                u = "https://" + u
        k = key_string(u)  # getMD5-identity (SearchEngine.h:213-223)
        if k in seen:
            continue
        seen.add(k)
        out.append(u)
    return out
