"""``gateway._read_reply`` against ``http.client.HTTPResponse`` over the same bytes.

``http.client`` is the in-test oracle: over generated well-formed replies the
two must agree on the status, the body and keep-alive.  A mutated or cut
reply must give a reply or an ``OSError`` (``_BadReply`` is one), never
another exception; the bytes come from a ``BytesIO``, so a reply cut short
meets the end of the stream, and a loop that did not stop there would hang
the test.  Where the two parse on purpose differently, a test below names
the case and the reason.
"""

import http.client
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext.gateway import _MAXBODY, _BadReply, _read_reply


class FakeSocket:
    """What ``HTTPResponse`` reads from: one buffered reader over the bytes."""

    def __init__(self, data: bytes):
        self.data = data

    def makefile(self, mode, *args, **kwargs):
        return io.BufferedReader(io.BytesIO(self.data))


def ours(data: bytes):
    return _read_reply(io.BufferedReader(io.BytesIO(data)))


def oracle(data: bytes):
    response = http.client.HTTPResponse(FakeSocket(data), method="POST")
    response.begin()
    keep = not response.will_close  # read before the body: reading a close-delimited body closes the response
    return response.status, response.read(), keep


def cased(name: str, mask: int) -> str:
    """``name`` with the letters whose bit is set in ``mask`` in upper case, the rest in lower case."""
    return "".join(c.upper() if mask >> k & 1 else c.lower() for k, c in enumerate(name))


# fields that no framing or keep-alive rule reads (Keep-Alive and Proxy-Connection are kept out: see below)
OTHERS = st.sampled_from([("content-type", "application/json"), ("server", "stub/1.0"), ("x-request-id", "a1b2"),
                          ("date", "Tue, 20 Oct 2026 10:00:00 GMT"), ("vary", ""), ("x-empty", "")])


@st.composite
def fields(draw, framing):
    """Header lines: ``framing``'s own fields among a few others, each name in a random case, in a random order."""
    lines = draw(st.permutations(framing + draw(st.lists(OTHERS, max_size=4))))
    space = draw(st.sampled_from(["", " ", "  "]))
    masks = draw(st.lists(st.integers(0, 2**20), min_size=len(lines), max_size=len(lines)))
    return "".join(f"{cased(name, mask)}:{space}{value}\r\n" for (name, value), mask in zip(lines, masks)).encode()


@st.composite
def chunked(draw, body: bytes):
    """``body`` in chunks, with chunk extensions, sizes in either case of hex and with leading zeros, and trailers."""
    cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
    out = b""
    for start, end in zip([0, *cuts], [*cuts, len(body)]):
        if end > start:
            size = draw(st.sampled_from(["%x", "%X", "00%x"])) % (end - start)
            ext = draw(st.sampled_from(["", ";name=value", ' ; a="b"']))
            out += f"{size}{ext}\r\n".encode() + body[start:end] + b"\r\n"
    return out + b"0\r\n" + draw(fields([])) + b"\r\n"  # the trailer section


@st.composite
def replies(draw, interim=st.just(100)):
    """A well-formed reply as ``(interim, final)``: 0-2 interim replies whose status ``interim``
    draws, then the final reply."""
    out = b""
    for code in draw(st.lists(interim, max_size=2)):
        out += f"HTTP/1.1 {code} Interim\r\n".encode() + draw(fields([])) + b"\r\n"
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    status = draw(st.sampled_from([200, 201, 204, 304, 400, 401, 404, 429, 500, 503]))
    reason = draw(st.sampled_from(["", " OK", " Some Reason"]))
    body = b"" if status in (204, 304) else draw(st.binary(max_size=300))
    framing = []
    connection = draw(st.sampled_from([None, "close", "keep-alive", "Keep-Alive", "upgrade, close"]))
    if connection:
        framing.append(("connection", connection))
    how = draw(st.sampled_from(["length", "length twice", "chunked", "chunked with a length", "close"]))
    if how.startswith("length"):
        framing += [("content-length", str(len(body)))] * (2 if how == "length twice" else 1)
        payload = body
    elif how.startswith("chunked"):
        framing.append(("transfer-encoding", draw(st.sampled_from(["chunked", "Chunked"]))))
        if how == "chunked with a length":
            framing.append(("content-length", str(len(body) + 7)))  # a chunked body's length is its framing's
        payload = draw(chunked(body))
    else:
        payload = body  # the body ends where the stream does
    head = f"{version} {status}{reason}\r\n".encode() + draw(fields(framing)) + b"\r\n"
    return out, head + payload


class TestAgainstHttpClient:
    @given(replies())
    @settings(max_examples=150, deadline=None)
    def test_well_formed_replies_read_as_http_client_reads_them(self, reply):
        data = b"".join(reply)
        assert ours(data) == oracle(data)

    @given(replies(), st.binary(min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_a_reply_with_a_length_ends_where_its_length_says(self, reply, rest):
        # what follows on a kept connection is the next reply's, and neither reads it
        data = b"".join(reply)
        head = reply[1].split(b"\r\n\r\n", 1)[0].lower()
        if b"content-length" in head and b"transfer-encoding" not in head:
            assert ours(data + rest) == oracle(data + rest) == oracle(data)

    @pytest.mark.parametrize("trailer", [b"", b"X-Trailer: 1\r\n"])
    def test_a_chunked_body_whose_stream_ends_in_its_trailer_section_is_whole(self, trailer):
        # the last chunk has come, so the body is whole: a trailer section cut before its empty line
        # ends where the stream does, for both, unlike a cut head
        data = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n" + trailer
        assert ours(data) == oracle(data) == (200, b"hello", True)


def mutated(data: bytes, draw):
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(["cut", "flip", "insert", "delete"]))
        if how == "cut":
            data = data[:at]
        elif how == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif how == "insert":
            data = data[:at] + draw(st.sampled_from([b"\r\n", b":", b";", b"0", b"f" * 12, b" ", b"\x00"])) + data[at:]
        else:
            data = data[:at] + data[at + 1:]
    return data


class TestDamagedReplies:
    @given(replies(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_mutated_or_cut_reply_is_a_reply_or_a_read_error(self, reply, draw):
        damaged = mutated(b"".join(reply), draw.draw)
        try:
            status, body, keep = ours(damaged)
        except OSError:
            return  # _BadReply, or a read error
        assert 100 <= status <= 999 and isinstance(body, bytes) and len(body) <= _MAXBODY

    @given(replies())
    @settings(max_examples=50, deadline=None)
    def test_a_reply_cut_anywhere_in_its_head_is_a_bad_reply(self, reply):
        interim, final = reply
        data = interim + final
        for cut in range(len(interim) + final.index(b"\r\n\r\n") + 4):
            with pytest.raises(_BadReply):
                ours(data[:cut])


class TestDeliberateDifferences:
    """The cases where ``_read_reply`` and ``http.client`` differ on purpose."""

    @given(replies(interim=st.sampled_from([100, 102, 103])))
    @settings(max_examples=50, deadline=None)
    def test_every_interim_reply_is_skipped(self, reply):
        # http.client skips only 100 Continue and returns a 102 or 103 as the final reply, with no body;
        # RFC 9110, 15.2 says a client reads past every 1xx reply to the final one
        interim, final = reply
        assert ours(interim + final) == oracle(final)

    @pytest.mark.parametrize("length, read", [(b"-1", False), (b"abc", False), (b"1e3", False), (b"+4", True)])
    def test_a_content_length_that_is_not_digits_is_refused(self, length, read):
        # http.client reads a length it cannot parse, or a negative one, as none, and so reads the body to the
        # end of the stream, and it takes a sign; a bad length means the framing cannot be trusted
        # (RFC 9112, 6.3), so the reply is refused and asked again
        data = b"HTTP/1.1 200 OK\r\nContent-Length: " + length + b"\r\n\r\nbody"
        assert oracle(data) == (200, b"body", read)
        with pytest.raises(_BadReply, match="bad Content-Length"):
            ours(data)

    def test_a_head_cut_at_a_line_end_is_refused(self):
        # http.client takes the end of the stream for the end of the head; a head must end in an empty
        # line, so a reply cut before it is refused and asked again, not read as a reply with no body
        data = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        assert oracle(data) == (200, b"", False)
        with pytest.raises(_BadReply, match="before the end of the reply head"):
            ours(data)

    def test_differing_content_lengths_are_refused(self):
        # http.client takes the first; RFC 9112, 6.3 calls differing values an unrecoverable framing error
        data = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nbody"
        assert oracle(data)[1] == b"bo"
        with pytest.raises(_BadReply, match="differing Content-Length"):
            ours(data)

    @pytest.mark.parametrize("header", [b"Keep-Alive: timeout=5", b"Proxy-Connection: keep-alive"])
    def test_an_http_1_0_reply_is_kept_only_by_its_connection_field(self, header):
        # http.client also keeps an HTTP/1.0 connection for these two fields, which RFC 9112 (9.3) no longer names
        data = b"HTTP/1.0 200 OK\r\n" + header + b"\r\nContent-Length: 2\r\n\r\nok"
        assert oracle(data) == (200, b"ok", True)
        assert ours(data) == (200, b"ok", False)

    @pytest.mark.parametrize("size", [b"0x5", b"+5"])
    def test_a_chunk_size_that_is_not_hex_digits_is_refused(self, size):
        # http.client reads the size with int(size, 16), which also takes a sign or a 0x prefix
        data = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + size + b"\r\nhello\r\n0\r\n\r\n"
        assert oracle(data)[1] == b"hello"
        with pytest.raises(_BadReply, match="bad chunk size"):
            ours(data)

    def test_a_body_over_the_cap_is_refused_before_it_is_read(self):
        # http.client would try to read it all
        data = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (_MAXBODY + 1)
        with pytest.raises(_BadReply, match="reply body of more than"):
            ours(data)
