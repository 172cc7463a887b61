"""Link-extraction conformance (the four href patterns of
SearchEngine.cpp:40-114) + shorten/comment removal."""

from searchengine_ray.stages.extract import (
    extract_links,
    get_title,
    shorten_html,
)


def test_four_patterns():
    html = (
        '<a href="//other.com/a">x</a>'
        '<a href="http://third.org/b">x</a>'
        '<a href="https://secure.net/c">x</a>'
        '<a href="/rel">x</a>'
    )
    links = extract_links(html, "me.com", https=False)
    assert links == [
        "other.com/a",
        "third.org/b",
        "https://secure.net/c",
        "me.com/rel",
    ]


def test_samehost_https_promotion():
    # on an https page, same-host links get the https:// prefix back
    html = '<a href="/rel">x</a><a href="//me.com/p">y</a><a href="//other.com/q">z</a>'
    links = extract_links(html, "me.com", https=True)
    assert links == ["https://me.com/rel", "https://me.com/p", "other.com/q"]


def test_https_link_to_samehost_on_http_page_loses_scheme():
    # quirk preserved: samehost=true + http page → no prefix
    html = '<a href="https://me.com/p">x</a>'
    assert extract_links(html, "me.com", https=False) == ["me.com/p"]


def test_ignored_forms():
    html = (
        "<a href='//single.com/q'>x</a>"      # single quotes → ignored
        '<a href="relative/path">x</a>'        # no leading / → ignored
        '<a href="mailto:a@b.c">x</a>'
        '<a HREF="//upper.com/x">x</a>'        # case-sensitive → ignored
    )
    assert extract_links(html, "me.com", False) == []


def test_per_page_dedup_is_md5_identity():
    # www. and leading-/ stripped before the per-page dedup key
    html = '<a href="//www.a.com/x">1</a><a href="//a.com/x">2</a>'
    assert extract_links(html, "me.com", False) == ["www.a.com/x"]


def test_shorten_removes_decoys():
    html = (
        '<!-- href="http://comment.com/x" -->'
        '<script>href="http://script.com/y"</script>'
        '<style>href="http://style.com/z"</style>'
        '<a href="//real.com/ok">x</a>'
    )
    assert extract_links(shorten_html(html), "me.com", False) == ["real.com/ok"]


def test_title():
    assert get_title("<html><title>Hi\x01 there</title></html>") == "Hi there"
    assert get_title("<p>no title</p>") == ""
    assert len(get_title("<title>" + "x" * 400 + "</title>")) == 255


def test_title_drops_every_control_character():
    title = "".join(chr(c) for c in range(32)) + "A\tB\nC\x1fD\x7f E é 香"
    html = f"<title>  {title}\r\n</title>"
    # below " " goes (tab and newline too); DEL and non-ASCII stay
    assert get_title(html) == "ABCD\x7f E é 香"
    assert get_title("<title>\x00\x01\x02</title>") == ""
