"""``ingest._chunks`` against ``conftest.reference_rows``, the row-by-row reader.

``_chunks`` splits chunks of plain lines, with LF or CRLF ends, on "," and
hands the rest of the file to ``csv.reader`` from the first chunk that is
not plain. Whatever the file holds and wherever a chunk ends, it must give
the same line numbers, the same rows and the same first error as the
reference.
"""

from __future__ import annotations

import csv
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_rows
from geostress import ingest
from geostress.errors import StressError

HEADER = ["geo_id", "name", "channel"]

# Physical lines that a plain chunk may not hold, or that csv.reader reads
# otherwise than a split on ",", each with its own line end.
_CASES = {
    "quoted": b'"a,1","b""2",c\n',
    "quoted-break": b'"q\n1",b,c\n',
    "quoted-crlf-break": b'a,"q\r\n1",c\n',
    "cr": b"a,b,c\r",
    "crlf": b"a,b,c\r\n",
    "nul": b"a\x00,b,c\n",
    "blank": b"\n",
    "blank-crlf": b"\r\n",
    "short": b"a,b\n",
    "wide": b"a,b,c,d\n",
    "vt-ff": b"a\x0b1,b\x0c2,c\n",
    "nel-ls": "a\x851,b 2,c\n".encode(),
    "limit-field": b"a," + b"x" * 30 + b",c\n",  # the longest field the reader takes at limit 30
    "long-field": b"a," + b"x" * 31 + b",c\n",
    "not-utf-8": b"a,\xff,c\n",
}


def _plain_line(k: int) -> bytes:
    return (f"g{k},,{k}\n" if k % 11 == 0 else f"g{k},x{k % 5},{k}\n").encode()


@st.composite
def _files(draw) -> bytes:
    """The header and plain lines, a few of ``_CASES`` placed among them
    (some past the first chunk), and at times a last line with no line end
    and an empty last field."""
    n = draw(st.integers(0, 12) | st.integers(4090, 4100))
    lines = [_plain_line(k) for k in range(n)]
    for where, case in draw(st.lists(st.tuples(st.integers(0), st.sampled_from(sorted(_CASES))),
                                     max_size=3)):
        lines.insert(where % (len(lines) + 1), _CASES[case])
    if draw(st.booleans()):
        lines.append(b"g,x,")
    return b"".join([",".join(HEADER).encode() + b"\n", *lines])


# Whole-file shapes of spreadsheet exports: CRLF throughout, every field quoted, or both.
_SHAPES = {
    "crlf": ("\r\n", csv.QUOTE_MINIMAL),
    "quote-all": ("\n", csv.QUOTE_ALL),
    "quote-all-crlf": ("\r\n", csv.QUOTE_ALL),
}


@st.composite
def _shaped_files(draw) -> bytes:
    """The header and the plain lines' rows written in one of ``_SHAPES``, a
    few of ``_CASES`` placed among them, and at times a last row with no line
    end and an empty last field."""
    terminator, quoting = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=terminator, quoting=quoting)
    writer.writerow(HEADER)
    n = draw(st.integers(0, 12) | st.integers(4090, 4100))
    writer.writerows(_plain_line(k).decode().rstrip("\n").split(",") for k in range(n))
    lines = out.getvalue().encode().splitlines(keepends=True)
    for where, case in draw(st.lists(st.tuples(st.integers(0), st.sampled_from(sorted(_CASES))),
                                     max_size=3)):
        lines.insert(1 + where % len(lines), _CASES[case])
    if draw(st.booleans()):
        last = io.StringIO()
        csv.writer(last, lineterminator="", quoting=quoting).writerow(["g", "x", ""])
        lines.append(last.getvalue().encode())
    return b"".join(lines)


def _outcome(rows):
    got = []
    try:
        got.extend(rows)
    except StressError as exc:
        return got, (type(exc), str(exc))
    return got, None


def _chunked_rows(data: bytes):
    for linenos, columns in ingest._chunks(io.BytesIO(data), "f.csv", HEADER):
        assert len(columns) == len(HEADER) and len(set(map(len, columns))) == 1
        yield from zip(linenos, map(list, zip(*columns)))


@settings(max_examples=600, deadline=None)
@given(data=_files() | _shaped_files(), chunk_rows=st.sampled_from([1, 3, 4096]),
       limit=st.sampled_from([None, 30]))
def test_chunks_read_as_the_reference_does(data, chunk_rows, limit):
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)  # so a 31-character field is over-long
    try:
        expected = _outcome(reference_rows(io.BytesIO(data), "f.csv", HEADER))
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
            assert _outcome(_chunked_rows(data)) == expected
    finally:
        csv.field_size_limit(old)
