import csv
import dataclasses
import io
import itertools
import json
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodwatch import packet_text, traffic
from floodwatch.errors import InputError
from floodwatch.traffic import (
    FEATURE_NAMES,
    AttackInterval,
    AttackKind,
    PROTOCOLS,
    Packets,
    Scenario,
    feature_matrix,
    fit_normalizer,
    generate_traffic,
    normalize,
    parse_ip,
    parse_packets,
    preset_scenario,
    preprocess,
    read_labels_csv,
    split_packets,
    windowize,
    write_labels_csv,
    write_packets_csv,
)
from oracles import (
    naive_entropy_normalized,
    naive_format_timestamp,
    naive_parse_packets,
    naive_window_features,
    naive_write_packets_csv,
    packets_of,
)

HEADER = "timestamp,src_ip,dst_ip,protocol,length,syn"


def window_features(rows):
    """Features of window 0 of packet ``rows`` (all stamped in [0, 1)), by name."""
    row = feature_matrix(windowize(packets_of(rows), 1.0))[0]
    return dict(zip(FEATURE_NAMES, row))


def _parse_lines(lines):
    """parse_packets on the bytes of ``lines``, each ended by LF."""
    return parse_packets(io.BytesIO(_as_text(lines, ("\n",)).encode()))


def test_parse_packets_header_only():
    assert len(_parse_lines([HEADER])) == 0


def test_parse_packets_single_tcp_syn_row():
    packets = _parse_lines([HEADER, "0.25,10.0.0.1,192.168.0.1,TCP,64,1"])
    assert packets == packets_of([(0.25, parse_ip("10.0.0.1"), parse_ip("192.168.0.1"),
                                   "TCP", 64, True)])


def test_parse_packets_unknown_protocol_names_line():
    rows = [HEADER,
            "0.1,10.0.0.1,192.168.0.1,TCP,64,0",
            "0.2,10.0.0.1,192.168.0.1,GRE,64,0"]
    with pytest.raises(InputError, match="line 3"):
        _parse_lines(rows)


def test_parse_packets_rejects_bad_header():
    with pytest.raises(InputError):
        _parse_lines(["time,src,dst,proto,len,syn"])


def _outcome(parse, source):
    """The Packets that ``parse`` reads from ``source`` (the oracle's rows
    are turned into one), or the line number an InputError names."""
    try:
        parsed = parse(source)
    except InputError as exc:
        return int(re.match(r"line (\d+):", str(exc)).group(1))
    return parsed if isinstance(parsed, Packets) else packets_of(parsed)


_GOOD_FIELDS = (st.sampled_from(["0", "0.25", "1e3", "17.5", "-0.0"]),
                st.sampled_from(["10.0.0.1", "192.168.0.1", "0.0.0.0", "255.255.255.255"]),
                st.sampled_from(["100.64.1.2", "10.0.0.1"]),
                st.sampled_from(["TCP", "UDP", "ICMP"]),
                st.sampled_from(["1", "64", "1500", "9223372036854775807"]),
                st.sampled_from(["0", "1"]))
_ANY_FIELDS = (
    st.one_of(_GOOD_FIELDS[0], st.floats().map(repr), st.sampled_from(
        ["nan", "inf", "-inf", "-1", "+5", " 5", "1e400", "1_0", "", "x"])),
    st.one_of(_GOOD_FIELDS[1], st.sampled_from(
        ["1.2.3", "1.2.3.4.5", "1.2.3.256", "01.2.3.4", " 1.2.3.4", "1.2.3.-4",
         "1.2.3.\u00b2", "1..3.4", ""])),
    _GOOD_FIELDS[2],
    st.sampled_from(["TCP", "UDP", "ICMP", "GRE", "tcp", " TCP", ""]),
    st.one_of(_GOOD_FIELDS[4], st.integers(-3, 2 ** 64).map(str), st.sampled_from(
        ["+5", " 5", "5 ", "0", "-3", "9223372036854775808", "1e3", "1_000", "x", ""])),
    st.sampled_from(["0", "1", "2", " 1", "", "true"]),
)
_ROW_TEXT = st.one_of(
    st.tuples(*_GOOD_FIELDS).map(",".join),
    st.tuples(*_GOOD_FIELDS).map(",".join),
    st.tuples(*_ANY_FIELDS).map(",".join),
    st.just(""),
    st.lists(_GOOD_FIELDS[0], max_size=8).map(",".join),
    st.text(st.characters(blacklist_characters="\r\n\x00", blacklist_categories=("Cs",)),
            max_size=20),
)


# line ends taken in turn, a lone CR among them
_LINE_ENDS = (("\r\n",), ("\n",), ("\n", "\r\n"), ("\r\n", "\r", "\n"), ("\r",))
_BLOCKS = (1, 7, 40, traffic.PARSE_BLOCK_CHARS)


def _as_text(lines, ends, final=True):
    """``lines`` joined with ``ends`` in turn, the last line end dropped
    unless ``final``."""
    text = "".join(line + ends[k % len(ends)] for k, line in enumerate(lines))
    return text if final else text[:-len(ends[(len(lines) - 1) % len(ends)])]


# one directory for the files that _byte_outcome writes, removed at exit
_FILES = tempfile.TemporaryDirectory()


def _byte_outcome(data: bytes):
    """_outcome of parse_packets on a real file of ``data`` opened as bytes."""
    path = os.path.join(_FILES.name, "packets.csv")
    with open(path, "wb") as handle:
        handle.write(data)
    with open(path, "rb") as handle:
        return _outcome(parse_packets, handle)


def _bytes_match_oracle(text, block):
    # the oracle reads the text split into lines at CR, LF and CRLF, as
    # open_text opens a file; parse_packets reads its UTF-8 bytes from a
    # file in reads a third of a block long, which make the reads that
    # fill one
    read = min(traffic._READ_CHARS, max(1, block // 3))
    expected = _outcome(naive_parse_packets, io.StringIO(text, newline=""))
    with (mock.patch.object(traffic, "PARSE_BLOCK_CHARS", block),
          mock.patch.object(traffic, "_READ_CHARS", read)):
        return _byte_outcome(text.encode()) == expected


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_ROW_TEXT, max_size=12), ends=st.sampled_from(_LINE_ENDS),
       final=st.booleans(), block=st.sampled_from(_BLOCKS))
@example(rows=["0.5,10.0.0.1,192.168.0.1,TCP,64,1", "", "1.5,10.0.0.2,192.168.0.1,UDP,+5,0",
               "2.5,10.0.0.2,192.168.0.1,ICMP, 5,0"], ends=("\r\n",), final=True, block=40)
@example(rows=["0,10.0.0.1,192.168.0.1,TCP,64,0", "nan,10.0.0.1,192.168.0.1,TCP,64,0"],
         ends=("\n",), final=False, block=7)
@example(rows=["inf,10.0.0.1,192.168.0.1,TCP,64,0"], ends=("\r\n",), final=True,
         block=traffic.PARSE_BLOCK_CHARS)
@example(rows=["0,10.0.0.1,192.168.0.1,TCP,9223372036854775808,0"], ends=("\n",),
         final=True, block=1)
@example(rows=["", "", "0,10.0.0.1,192.168.0.1,TCP,64,0", "0,10.0.0.1,192.168.0.256,TCP,64,0"],
         ends=("\n", "\r\n"), final=True, block=40)
def test_parse_packets_matches_row_oracle(rows, ends, final, block):
    # same rows, or an InputError naming the same line, at every block size
    assert _bytes_match_oracle(_as_text([HEADER, *rows], ends, final), block)


_GOOD_ROW = "0.5,10.0.0.1,192.168.0.1,TCP,64,1"
_OTHER_ROW = "1.5,10.0.0.2,192.168.0.1,UDP,512,0"


_EDGE_ROWS = {
    "quoted field": [_GOOD_ROW, '2.5,"10.0.0.3",192.168.0.1,ICMP,64,0'],
    "line end in quotes": ['"0.5\n",10.0.0.1,192.168.0.1,TCP,64,0', _OTHER_ROW],
    "lone CR between rows": [_GOOD_ROW + "\r" + _OTHER_ROW],
    "lone CR in a timestamp": ["0.5\r,10.0.0.1,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "lone CR in a length": ["0.5,10.0.0.1,192.168.0.1,TCP, 64\r,1", _OTHER_ROW],
    "lone CR before a CRLF": [_GOOD_ROW + "\r", _OTHER_ROW, _GOOD_ROW.replace("TCP", "GRE")],
    "NUL": [_GOOD_ROW, "0.5,10.0.0.1\0,192.168.0.1,TCP,64,1"],
    "blank line": [_GOOD_ROW, "", _OTHER_ROW],
    "largest length": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCP,9223372036854775807,1"],
    "length past 64 bits": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCP,9223372036854775808,1"],
    "signed and spaced lengths": ["0.5,10.0.0.1,192.168.0.1,TCP, 5,1",
                                  "1.5,10.0.0.2,192.168.0.1,UDP,+5,0"],
    "underscore timestamp": ["1_0,10.0.0.1,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "nan timestamp": [_GOOD_ROW, "nan,10.0.0.1,192.168.0.1,TCP,64,1"],
    "non-ASCII digit": ["0.5,10.0.0.\u0663,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "7 fields then 5": [_GOOD_ROW + ",1", _OTHER_ROW[:-2]],
    "5 fields": [_GOOD_ROW, _OTHER_ROW[:-2]],
    "wide address": ["0.5,0000000010.0.0.1,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "wide timestamp": ["0" * 40 + ".5,10.0.0.1,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "field over the csv limit": [_GOOD_ROW, "x" * 200_000 + ",1,2,3,4,5"],
    "bad row before a field over the csv limit": [_GOOD_ROW.replace("TCP", "GRE"), _OTHER_ROW,
                                                  "x" * 200_000 + ",1,2,3,4,5"],
    "octet 256": [_GOOD_ROW, "0.5,10.0.0.256,192.168.0.1,TCP,64,1"],
    "four-digit octet": [_GOOD_ROW, "0.5,0010.0.0.1,192.168.0.1,TCP,64,1"],
    "empty octet": [_GOOD_ROW, "0.5,1..2.3,192.168.0.1,TCP,64,1"],
    "three octets": [_GOOD_ROW, "0.5,10.0.1,192.168.0.1,TCP,64,1"],
    "five octets": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1.7,TCP,64,1"],
    "letter in an octet": [_GOOD_ROW, "0.5,10.0.0.1a,192.168.0.1,TCP,64,1"],
    "dash between octets": [_GOOD_ROW, "0.5,10.0.0-1,192.168.0.1,TCP,64,1"],
    "protocol GRE": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,GRE,64,1"],
    "protocol TC": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TC,64,1"],
    "protocol TCPX": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCPX,64,1"],
    "9-byte protocol": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,ICMPICMPI,64,1"],
    "length 0": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCP,0,1"],
    "19-digit length": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCP,1000000000000000000,1"],
    "19-digit length past 64 bits": [_GOOD_ROW,
                                     "0.5,10.0.0.1,192.168.0.1,TCP,9999999999999999999,1"],
    "20-digit length": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCP,00000000000000000064,1"],
    "syn 2": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCP,64,2"],
    "syn 01": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCP,64,01"],
}


@pytest.mark.parametrize("rows", _EDGE_ROWS.values(), ids=_EDGE_ROWS.keys())
def test_parse_packets_edge_rows_match_row_oracle(rows):
    lines = [HEADER, *rows]
    for ends, final, block in itertools.product((*_LINE_ENDS[:3], ("\r",)), [True, False],
                                                _BLOCKS):
        assert _bytes_match_oracle(_as_text(lines, ends, final), block)


@pytest.mark.parametrize("header, parses", [
    ('"timestamp",src_ip,dst_ip,protocol,length,syn', True),
    ("\ufeff" + HEADER, False),
    (HEADER + ",", False),
    (HEADER.replace("syn", '"syn\r\n"'), False),
], ids=["quoted name", "byte order mark", "trailing comma", "quoted line end"])
def test_header_fallback_matches_row_oracle(header, parses):
    # a header whose bytes are not PACKET_CSV_HEADER's is read by csv.reader
    text = _as_text([header, _GOOD_ROW, _OTHER_ROW], ("\r\n",))
    with mock.patch.object(traffic, "_parse_csv", wraps=traffic._parse_csv) as fallback:
        if parses:
            assert _byte_outcome(text.encode()) == _outcome(naive_parse_packets,
                                                            io.StringIO(text, newline=""))
        else:
            with pytest.raises(InputError, match="^bad header"):
                naive_parse_packets(io.StringIO(text, newline=""))
            with pytest.raises(InputError, match="^bad header"):
                parse_packets(io.BytesIO(text.encode()))
    assert fallback.call_count == 1


def test_lone_cr_line_ends_cut_blocks():
    # lines ended by a lone CR cut the bytes into blocks as LF does. Reads
    # come in whole pieces of _READ_CHARS bytes until PARSE_BLOCK_CHARS
    # are in hand, and a block ends at the last line end read, so it holds
    # at most PARSE_BLOCK_CHARS + _READ_CHARS - 1 bytes. The bytes after
    # that line end start the next block; where they alone reach
    # PARSE_BLOCK_CHARS they are one line, at most all of it but the last
    # byte of its line end, and the block grows a read at a time.
    block, read = 7, 3
    lines = [HEADER, *[_GOOD_ROW, _OTHER_ROW] * 20]
    data = _as_text(lines, ("\r",)).encode()
    s = traffic._Scratch()
    with (mock.patch.object(traffic, "PARSE_BLOCK_CHARS", block),
          mock.patch.object(traffic, "_READ_CHARS", read)):
        blocks = [bytes(s.data[traffic._TS_WIDTH:traffic._TS_WIDTH + size])
                  for size in traffic._byte_blocks(io.BytesIO(data), s)]
    assert b"".join(blocks) == data
    longest = max(map(len, lines)) + 1
    assert max(map(len, blocks)) <= max(block + read - 1, longest - 1 + read)
    assert _bytes_match_oracle(data.decode(), block)


def test_parse_packets_keeps_a_lowered_csv_field_limit():
    lines = [HEADER, "0.5,10.0.0.1,10.0.0.1,TCP,64,1", _GOOD_ROW]
    limit = csv.field_size_limit(10)
    try:
        for block in _BLOCKS:
            assert _bytes_match_oracle(_as_text(lines, ("\n",)), block)
    finally:
        csv.field_size_limit(limit)


class _Trickle(io.RawIOBase):
    """A binary file of ``data`` whose readinto hands out at most ``step``
    bytes a call, as a pipe may."""

    def __init__(self, data: bytes, step: int):
        super().__init__()
        self.data, self.step, self.pos = data, step, 0

    def readable(self):
        return True

    def readinto(self, view):
        chunk = self.data[self.pos:self.pos + min(self.step, len(view))]
        view[:len(chunk)] = chunk
        self.pos += len(chunk)
        return len(chunk)


def test_crlf_split_across_reads():
    # reads of 4 bytes end between the CR and the LF of the header (43
    # bytes) and of some rows, and a trickling file splits them further; a
    # CRLF taken for two line ends would shift the line named for the bad
    # last row
    good = [HEADER, *[_GOOD_ROW, _OTHER_ROW] * 3]
    for rows in (good, [*good, _GOOD_ROW.replace("TCP", "GRE")]):
        text = _as_text(rows, ("\r\n",))
        data = text.encode()
        assert data[43:45] == b"\r\n"
        expected = _outcome(naive_parse_packets, io.StringIO(text, newline=""))
        for block, step in itertools.product((4, 8, 40), (1, 3, 4, 1000)):
            with (mock.patch.object(traffic, "PARSE_BLOCK_CHARS", block),
                  mock.patch.object(traffic, "_READ_CHARS", 4)):
                assert _outcome(parse_packets, _Trickle(data, step)) == expected


def test_long_line_is_searched_once():
    # a line much longer than a block is read a piece at a time; each
    # search for a line end covers only the bytes not searched before
    data = (HEADER + "\n" + _GOOD_ROW + "\n").encode() + b"x" * (1 << 20) + b",1,2,3,4,5\n"
    searched = []

    def line_end(buffer, lo, hi):
        searched.append(hi - lo)
        return traffic_line_end(buffer, lo, hi)

    traffic_line_end = traffic._line_end
    with (mock.patch.object(traffic, "PARSE_BLOCK_CHARS", 4096),
          mock.patch.object(traffic, "_READ_CHARS", 1024),
          mock.patch.object(traffic, "_line_end", line_end)):
        assert _outcome(parse_packets, io.BytesIO(data)) == 3
    assert sum(searched) < 2 * len(data)


@pytest.mark.parametrize("good_rows, named", [(10, 2), (3000, 2), (20000, 2), (3000, None)])
def test_bad_row_before_non_utf8_bytes(tmp_path, good_rows, named):
    # the first bad line in file order is reported, whatever the reads: a
    # bad row 10 rows, 3000 rows (about 100 KB, one block) or 20000 rows
    # (several blocks) before bytes that are not UTF-8 is named, and the
    # bytes are reported when they come before the bad row (named None)
    rows = [HEADER.encode(), *[_OTHER_ROW.encode()] * good_rows, b"ok \xff"]
    rows.insert(len(rows) if named is None else 1, _GOOD_ROW.replace("TCP", "GRE").encode())
    path = tmp_path / "bad.csv"
    path.write_bytes(b"".join(row + b"\r\n" for row in rows))
    for read in (64, traffic._READ_CHARS):
        with mock.patch.object(traffic, "_READ_CHARS", read), open(path, "rb") as handle:
            if named is None:
                with pytest.raises(UnicodeDecodeError, match="invalid start byte"):
                    parse_packets(handle)
            else:
                with pytest.raises(InputError, match=f"^line {named}: unknown protocol"):
                    parse_packets(handle)


def test_non_utf8_bytes_after_good_rows_raise(tmp_path):
    # good rows in several blocks, then a sequence that the file's end cuts short
    packets, _ = generate_traffic(preset_scenario("syn10"), np.random.default_rng(4))
    path = tmp_path / "cut.csv"
    write_packets_csv(path, packets)
    path.write_bytes(path.read_bytes() + "\u0663".encode()[:1])
    with open(path, "rb") as handle, pytest.raises(UnicodeDecodeError, match="end of data"):
        parse_packets(handle)


@pytest.mark.parametrize("data, expected", [
    (b"", "empty input: missing CSV header"),
    (HEADER.encode(), 0),
    (HEADER.encode() + b"\r\n", 0),
    ((HEADER + "\n" + _GOOD_ROW).encode(), 1),
    ((HEADER + "\r\n" + _GOOD_ROW + "\r\n" + _OTHER_ROW).encode(), 2),
    ((HEADER + "\r" + _GOOD_ROW + "\r" + _OTHER_ROW).encode(), 2),
], ids=["empty file", "header only", "header and CRLF", "no final line end",
        "no final CRLF", "lone CR line ends"])
def test_short_files_on_both_paths(data, expected):
    # from memory, and from a file that the oracle reads too
    if isinstance(expected, str):
        with pytest.raises(InputError, match=expected):
            parse_packets(io.BytesIO(data))
    else:
        assert len(parse_packets(io.BytesIO(data))) == expected
        assert _byte_outcome(data) == _outcome(naive_parse_packets,
                                               io.StringIO(data.decode(), newline=""))


# floods from a pool of 2**24 spoofed sources: almost every address is new
_SPOOFED = Scenario(duration=60.0, baseline_rate=30.0,
                    attacks=[AttackInterval(0.0, 60.0, AttackKind.UDP_FLOOD, 4.0, 2**24)])


def test_plain_capture_bypasses_csv_reader(tmp_path):
    path = tmp_path / "packets.csv"
    for scenario in (preset_scenario("mixed"), _SPOOFED):
        packets, _ = generate_traffic(scenario, np.random.default_rng(5))
        write_packets_csv(path, packets)
        for block in (1 << 12, traffic.PARSE_BLOCK_CHARS):
            with (mock.patch.object(traffic, "PARSE_BLOCK_CHARS", block),
                  mock.patch.object(traffic, "_check_row", side_effect=AssertionError),
                  open(path, "rb") as handle):
                assert parse_packets(handle) == packets


def test_parse_memory_is_bounded_by_the_block(tmp_path):
    # syn10 spans about 11 blocks; beyond the columns it returns, a parse
    # holds the block's bytes and one block's kernel arrays at a time
    packets, _ = generate_traffic(preset_scenario("syn10"), np.random.default_rng(0))
    path = tmp_path / "packets.csv"
    write_packets_csv(path, packets)
    assert path.stat().st_size > 10 * traffic.PARSE_BLOCK_CHARS
    with open(path, "rb") as handle:
        tracemalloc.start()
        try:
            parsed = parse_packets(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert parsed == packets
    columns = sum(column.nbytes for column in parsed.columns())
    assert peak - columns <= 16 * traffic.PARSE_BLOCK_CHARS


def test_capture_without_plain_blocks_parses_as_plain(tmp_path):
    # a blank line after every 100th row leaves no block plain, so each
    # row of the file goes through csv.reader and _check_row
    packets, _ = generate_traffic(preset_scenario("mixed"), np.random.default_rng(1))
    path = tmp_path / "packets.csv"
    write_packets_csv(path, packets)
    with open(path, newline="") as handle:
        header, *rows = handle.read().splitlines(keepends=True)
    lines = [header, *(row + "\r\n" * (k % 100 == 99) for k, row in enumerate(rows))]
    path.write_text("".join(lines), newline="")
    with (mock.patch.object(traffic, "_check_row", wraps=traffic._check_row) as check,
          open(path, "rb") as handle):
        assert parse_packets(handle) == packets
    assert check.call_count == len(packets)


def _parsed_stamps(stamps):
    """The ts column of a file whose rows carry ``stamps``."""
    rows = (f"{stamp},10.0.0.1,192.168.0.1,TCP,64,0" for stamp in stamps)
    return _parse_lines([HEADER, *rows]).ts


def _digit_string(digits, dot):
    return digits if dot is None else digits[:dot] + "." + digits[dot:]


def _digits_with_dot(sizes):
    """Strings of a number of digits drawn from ``sizes``, with a dot
    anywhere in them or none."""
    return sizes.flatmap(lambda size: st.builds(
        _digit_string, st.text("0123456789", min_size=size, max_size=size),
        st.none() | st.integers(0, size)))


def _halfway(m, e):
    """(2m+1) * 2**(e-1), halfway between the doubles m * 2**e and
    (m+1) * 2**e, written out in full."""
    if e >= 1:
        return str((2 * m + 1) << (e - 1))
    places = 1 - e                              # (2m+1) * 5**places / 10**places
    digits = str((2 * m + 1) * 5**places).rjust(places + 1, "0")
    return digits[:-places] + "." + digits[-places:]


_STAMPS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
    _digits_with_dot(st.integers(1, 19)),
    _digits_with_dot(st.integers(20, 31)),
    st.builds(str.__add__, st.text("0", min_size=1, max_size=12),
              _digits_with_dot(st.integers(1, 19))),
    st.builds(_halfway, st.integers(2**52, 2**53 - 1), st.integers(-70, 12)),
    st.sampled_from(["5e-05", "1E3", "1.", ".5", "-0.0", "+1", "1_0"]),
)


@settings(max_examples=300, deadline=None)
@given(stamps=st.lists(_STAMPS, min_size=1, max_size=60))
@example(stamps=["17.53832141", ".1618207698", "4503599627370496.25", "9007199254740993",
                 "0.00012345678901234567", "0000000000000000000000000000001.5"])
@example(stamps=[digits[:len(digits) - k] + "." * (k > 0) + digits[len(digits) - k:]
                 for d in (2**53 - 1, 2**53, 2**53 + 1) for k in (0, 6, 22, 23)
                 for digits in [str(d).rjust(k + 1, "0")]]
         + ["0.30000000000000004", "3599.9999999999995"])
def test_parsed_timestamps_are_float_bit_for_bit(stamps):
    # the second example holds the edges of the float64 fast path, D =
    # 2**53 - 1, 2**53 and 2**53 + 1 with k = 0, 6, 22 and 23 digits after
    # the dot, and two 17-digit reprs
    expected = np.array([float(stamp) for stamp in stamps])
    npt.assert_array_equal(_parsed_stamps(stamps).view(np.uint64), expected.view(np.uint64))


def _float_calls(path):
    """The Packets of the file at ``path`` and how many values ``float``
    converted on the way."""
    with (mock.patch.object(traffic, "float", wraps=float, create=True) as convert,
          open(path, "rb") as handle):
        return parse_packets(handle), convert.call_count


# The one-hour benchmark capture (gen seed 1001).
_HOUR_SCENARIO = Scenario.from_dict({
    "duration": 3600.0, "baseline_rate": 100.0, "diurnal_amplitude": 0.1,
    "attacks": [{"start": 300.0 + 600.0 * k, "end": 330.0 + 600.0 * k, "kind": kind,
                 "multiplier": 8.0, "source_pool": 400}
                for k, kind in enumerate(["syn_flood", "udp_flood", "icmp_flood"] * 2)]})


@pytest.mark.parametrize("name, seed", [("quiet", 0), ("syn10", 2), ("mixed", 1),
                                        ("hour", 1001)])
def test_generated_timestamps_reach_neither_repr_nor_float(tmp_path, name, seed):
    scenario = _HOUR_SCENARIO if name == "hour" else preset_scenario(name)
    packets, _ = generate_traffic(scenario, np.random.default_rng(seed))
    if name == "hour":
        assert len(packets) == 504721
    path = tmp_path / "packets.csv"
    with mock.patch.object(packet_text, "repr", wraps=repr, create=True) as spelled:
        write_packets_csv(path, packets)
    parsed, calls = _float_calls(path)
    npt.assert_array_equal(parsed.ts.view(np.uint64), packets.ts.view(np.uint64))
    assert parsed == packets
    assert (spelled.call_count, calls) == (0, 0)


def _written_rows(packets) -> list:
    """The fields of the rows that the writer writes for ``packets``."""
    text = packet_text.chunk_bytes(packets)
    return [line.split(b",") for line in text.split(b"\r\n")[:-1]]


def test_ip_round_trip():
    texts = ["0.0.0.0", "10.0.0.1", "192.168.0.1", "255.255.255.255"]
    addresses = [parse_ip(text) for text in texts]
    assert addresses == [0, 0x0A000001, 0xC0A80001, 0xFFFFFFFF]
    rows = _written_rows(Packets(np.ones(4), addresses, addresses[::-1], np.zeros(4, np.uint8),
                                 np.ones(4, np.int64), np.zeros(4, bool)))
    assert [row[1:3] for row in rows] == [[a.encode(), b.encode()]
                                          for a, b in zip(texts, texts[::-1])]


def _tcp_at(*stamps):
    """One 100-byte TCP packet from address 1 to 2 at each of ``stamps``."""
    return packets_of((ts, 1, 2, "TCP", 100, False) for ts in stamps)


def test_windowize_empty():
    assert len(windowize(packets_of([]), 1.0)) == 0


def test_windowize_two_windows():
    out = windowize(_tcp_at(0.5, 1.5), 1.0)
    assert [(idx, len(bucket)) for idx, bucket in out] == [(0, 1), (1, 1)]


def test_windowize_keeps_empty_middle_window():
    out = windowize(_tcp_at(0.1, 2.9), 1.0)
    assert [(idx, len(bucket)) for idx, bucket in out] == [(0, 1), (1, 0), (2, 1)]


def test_windowize_partitions_and_sorts():
    rng = np.random.default_rng(0)
    stamps = rng.uniform(0, 10, 200)
    out = windowize(_tcp_at(*stamps), 1.0)
    flattened = np.concatenate([bucket.ts for _, bucket in out])
    npt.assert_array_equal(flattened, np.sort(stamps))
    for idx, bucket in out:
        assert (bucket.ts // 1.0 == idx).all()


def test_extract_features_empty_window():
    # window 1 of packets at 0.1 and 2.9 holds no packet
    npt.assert_array_equal(feature_matrix(windowize(_tcp_at(0.1, 2.9), 1.0))[1], np.zeros(8))


def test_extract_features_single_source_entropy_zero():
    rows = [(0.1, 7, 2, "TCP", 100, False)] * 4
    assert window_features(rows)["src_ip_entropy"] == 0.0


def test_extract_features_hand_computed_entropy():
    # src counts {2,1,1}: raw entropy 1.5 bits, normalized 1.5/log2(3)
    rows = [(0.1, 1, 2, "TCP", 100, False), (0.2, 1, 2, "TCP", 100, False),
            (0.3, 2, 2, "TCP", 100, False), (0.4, 3, 2, "TCP", 100, False)]
    feats = window_features(rows)
    assert feats["src_ip_entropy"] == pytest.approx(1.5 / np.log2(3), abs=1e-12)
    assert feats["src_ip_entropy"] == pytest.approx(
        naive_entropy_normalized([2, 1, 1]), abs=1e-12)


def test_extract_features_counts_and_fractions():
    rows = [(0.1, 1, 2, "TCP", 100, True), (0.2, 1, 2, "TCP", 200, False),
            (0.3, 1, 2, "UDP", 300, False), (0.4, 1, 2, "ICMP", 400, False)]
    feats = window_features(rows)
    assert feats["packet_count"] == 4
    assert feats["byte_count"] == 1000
    assert feats["mean_packet_size"] == 250
    assert feats["syn_fraction"] == 0.25
    assert feats["udp_fraction"] == 0.25
    assert feats["icmp_fraction"] == 0.25


def test_extract_features_permutation_invariant():
    rng = np.random.default_rng(5)
    rows = [(float(t), int(rng.integers(1, 5)), 2, "UDP", int(rng.integers(64, 1500)), False)
            for t in rng.uniform(0, 1, 30)]
    shuffled = list(rows)
    rng.shuffle(shuffled)
    npt.assert_array_equal(list(window_features(rows).values()),
                           list(window_features(shuffled).values()))


def _oracle_matrix(packets, window_len=1.0):
    buckets = {}
    for ts, src, dst, proto, length, syn in zip(*(c.tolist() for c in packets.columns())):
        buckets.setdefault(int(ts // window_len), []).append(
            (ts, src, dst, PROTOCOLS[proto], length, syn))
    return np.array([naive_window_features(buckets.get(k, []))
                     for k in range(max(buckets) + 1)])


@pytest.mark.parametrize("variant", ["generated", "shuffled", "syn on every protocol"])
def test_feature_matrix_matches_counter_oracle(variant):
    packets, _ = generate_traffic(preset_scenario("mixed"), np.random.default_rng(1))
    rng = np.random.default_rng(0)
    if variant == "shuffled":
        packets = packets[rng.permutation(len(packets))]
    elif variant == "syn on every protocol":   # a parsed capture may flag UDP/ICMP
        packets.syn = rng.random(len(packets)) < 0.5
    matrix = feature_matrix(windowize(packets, 1.0))
    expected = _oracle_matrix(packets)
    exact = [0, 1, 2, 5, 6, 7]          # counts, bytes, mean size, fractions
    npt.assert_array_equal(matrix[:, exact], expected[:, exact])
    npt.assert_allclose(matrix[:, 3:5], expected[:, 3:5], rtol=0, atol=1e-12)
    if variant == "shuffled":
        npt.assert_array_equal(
            matrix, feature_matrix(windowize(packets[np.argsort(packets.ts)], 1.0)))


def test_feature_matrix_sums_lengths_past_int64():
    # byte sums of 2**63 - 1 byte packets are float sums, not wrapped int64
    # ones; windows 1, 2 and 4 are empty
    top = 2**63 - 1
    packets = packets_of([
        (0.1, 1, 2, "TCP", top, False), (0.2, 2, 2, "TCP", top, False),
        (3.1, 1, 2, "TCP", top, False), (3.2, 1, 2, "UDP", 5, False),
        (5.5, 3, 2, "ICMP", top, False)])
    matrix = feature_matrix(windowize(packets, 1.0))
    expected = _oracle_matrix(packets)
    assert matrix.shape == (6, 8)
    npt.assert_array_equal(matrix[:, 1], [float(2 * top), 0, 0, float(top + 5), 0, float(top)])
    npt.assert_array_equal(matrix[:, [0, 1, 2, 5, 6, 7]], expected[:, [0, 1, 2, 5, 6, 7]])
    npt.assert_allclose(matrix[:, 3:5], expected[:, 3:5], rtol=0, atol=1e-12)


def test_fit_normalizer_extrapolates():
    matrix = np.array([[0.0, 3.0], [10.0, 3.0], [5.0, 3.0]])
    norm = fit_normalizer(matrix)
    out = normalize(norm, np.array([10.0, 3.0]))
    assert out[0] == 1.0
    assert out[1] == 0.5  # constant dimension
    assert normalize(norm, np.array([-5.0, 3.0]))[0] == -0.5
    assert normalize(norm, np.array([99.0, 3.0]))[0] == 9.9


def test_fit_normalizer_maps_training_rows_into_unit_box():
    rng = np.random.default_rng(77)
    matrix = rng.normal(0, 10, size=(50, 8))
    norm = fit_normalizer(matrix)
    for row in matrix:
        out = normalize(norm, row)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_preprocess_standardizes_training_data():
    rng = np.random.default_rng(3)
    matrix = rng.uniform(0, 50, size=(40, 8))
    norm = fit_normalizer(matrix)
    unit = np.vstack([normalize(norm, row) for row in matrix])
    standardized = np.vstack([preprocess(norm, row) for row in matrix])
    npt.assert_allclose(standardized.mean(axis=0), 0.0, atol=1e-9)
    npt.assert_allclose(standardized.std(axis=0), 1.0, atol=1e-6)
    npt.assert_allclose(unit.mean(axis=0), norm.unit_mean, atol=1e-12)


def test_generate_traffic_no_attack_means_no_attack_labels():
    scenario = Scenario(duration=30.0, baseline_rate=50.0)
    _, labels = generate_traffic(scenario, np.random.default_rng(0))
    assert not any(labels)


def test_generate_traffic_deterministic():
    scenario = preset_scenario("syn10")
    recs_a, labels_a = generate_traffic(scenario, np.random.default_rng(9))
    recs_b, labels_b = generate_traffic(scenario, np.random.default_rng(9))
    assert recs_a == recs_b
    assert labels_a == labels_b


def test_generate_traffic_rejects_too_many_windows():
    # ~2000 packets spread over 2e6 one-second windows: over MAX_WINDOWS
    scenario = Scenario(duration=2e6, baseline_rate=1e-3)
    with pytest.raises(InputError, match="last timestamp"):
        generate_traffic(scenario, np.random.default_rng(0))


def test_generate_traffic_sorted_and_in_range():
    scenario = preset_scenario("mixed")
    packets, _ = generate_traffic(scenario, np.random.default_rng(4))
    assert (np.diff(packets.ts) >= 0).all()
    assert 0.0 <= packets.ts[0] and packets.ts[-1] < scenario.duration
    assert ((64 <= packets.length) & (packets.length <= 1500)).all()


@settings(max_examples=60, deadline=None)
@given(duration=st.floats(1e-3, 1e5), count=st.floats(1.0, 5000.0),
       amplitude=st.floats(0.0, 1.0), flood=st.none() | st.floats(0.0, 0.9),
       seed=st.integers(0, 2**32 - 1))
def test_generated_timestamps_are_whole_microseconds_in_order(duration, count, amplitude,
                                                              flood, seed):
    attacks = [] if flood is None else [
        AttackInterval(flood * duration, duration, AttackKind.UDP_FLOOD, 4.0, 100)]
    scenario = Scenario(duration=duration, baseline_rate=count / duration,
                        diurnal_amplitude=amplitude, attacks=attacks)
    ts = generate_traffic(scenario, np.random.default_rng(seed))[0].ts
    npt.assert_array_equal(ts.view(np.uint64), (np.rint(ts * 1e6) / 1e6).view(np.uint64))
    assert np.all(ts[:-1] <= ts[1:])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_timestamp_rounds_onto_the_end(seed):
    # a SYN flood at 1e7 packets/s over all of 0.01 s: some times lie within
    # half a microsecond of the end, and none may round onto it and open a
    # second window
    flood = AttackInterval(0.0, 0.01, AttackKind.SYN_FLOOD, 1000.0, 500)
    scenario = Scenario(duration=0.01, baseline_rate=1e4, attacks=[flood])
    packets, labels = generate_traffic(scenario, np.random.default_rng(seed), window_len=0.01)
    assert packets.ts.max() < scenario.duration
    assert labels == [True]


def test_generate_traffic_rate_accuracy():
    # empirical no-attack rate within 10% of baseline for most seeds
    scenario = Scenario(duration=300.0, baseline_rate=80.0)
    hits = 0
    for seed in range(5):
        packets, _ = generate_traffic(scenario, np.random.default_rng(seed))
        rate = len(packets) / scenario.duration
        hits += abs(rate - scenario.baseline_rate) <= 0.1 * scenario.baseline_rate
    assert hits >= 3


def test_generate_traffic_flood_rate_dominates():
    # SynFlood at multiplier 10: attack-window rate >= 5x normal rate
    hits = 0
    for seed in range(5):
        packets, labels = generate_traffic(preset_scenario("syn10"),
                                           np.random.default_rng(seed))
        counts = np.zeros(len(labels))
        for idx, bucket in windowize(packets, 1.0):
            counts[idx] = len(bucket)
        labels = np.array(labels)
        hits += counts[labels].mean() >= 5.0 * counts[~labels].mean()
    assert hits == 5


def test_generate_traffic_attack_label_matches_interval():
    scenario = preset_scenario("syn10")
    _, labels = generate_traffic(scenario, np.random.default_rng(2))
    attack = scenario.attacks[0]
    for idx, flagged in enumerate(labels):
        overlaps = idx < attack.end and idx + 1 > attack.start
        assert flagged == overlaps


def test_feature_fractions_bounded_on_generated_traffic():
    packets, _ = generate_traffic(preset_scenario("mixed"), np.random.default_rng(1))
    matrix = feature_matrix(windowize(packets, 1.0))
    assert matrix.shape[1] == len(FEATURE_NAMES)
    frac = matrix[:, 3:]  # entropies and protocol fractions
    assert np.all(frac >= 0.0) and np.all(frac <= 1.0)


def test_packet_csv_round_trip(tmp_path):
    packets, _ = generate_traffic(Scenario(duration=5.0, baseline_rate=40.0),
                                  np.random.default_rng(11))
    path = tmp_path / "packets.csv"
    write_packets_csv(path, packets)
    with open(path, "rb") as handle:
        again = parse_packets(handle)
    assert again == packets


def _edge_packets():
    # every combination of the extreme column values, all protocols and flags
    rows = list(itertools.product([0.0, 5e-05, 1e16, 3599.9999999999995],
                                  [0, 0xFFFFFFFF], [0xFFFFFFFF, 0], range(3),
                                  [1, 2 ** 63 - 1], [False, True]))
    return Packets(*zip(*rows))


def _same_bytes_as_oracle(directory, packets, chunk):
    ours, oracle = directory / "ours.csv", directory / "oracle.csv"
    with mock.patch.object(traffic, "WRITE_CHUNK_ROWS", chunk):
        write_packets_csv(ours, packets)
    naive_write_packets_csv(oracle, packets)
    return ours.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("chunk", [1, 3, traffic.WRITE_CHUNK_ROWS])
@pytest.mark.parametrize("packets", [packets_of([]), _edge_packets()],
                         ids=["empty", "edges"])
def test_write_packets_csv_matches_writer_oracle(tmp_path, packets, chunk):
    assert _same_bytes_as_oracle(tmp_path, packets, chunk)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(), st.integers(0, 2 ** 32 - 1),
                               st.integers(0, 2 ** 32 - 1), st.integers(0, 2),
                               st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans()),
                     max_size=20),
       chunk=st.sampled_from([1, 3, traffic.WRITE_CHUNK_ROWS]))
def test_write_packets_csv_matches_writer_oracle_on_random_columns(tmp_path_factory,
                                                                   rows, chunk):
    packets = Packets(*zip(*rows)) if rows else packets_of([])
    assert _same_bytes_as_oracle(tmp_path_factory.mktemp("write"), packets, chunk)


def _stepped(value, steps: int) -> float:
    """``value`` moved by ``steps`` doubles, toward +inf when positive."""
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, np.inf if steps > 0 else -np.inf))
    return value


# finite doubles, leaning on the microsecond grid and its edges: grid
# values u / 10**6 up to and past u = 2**53, powers of two (down to the
# subnormals) and of ten, whole numbers and short decimals, each with its
# near neighbours
_SPECIAL_STAMPS = st.one_of(
    st.integers(0, 2 ** 54).map(lambda u: u / 10 ** 6),
    st.integers(-1074, 1023).map(lambda k: float(np.ldexp(1.0, k))),
    st.integers(-8, 20).map(lambda k: float(f"1e{k}")),
    st.integers(0, 2 ** 54).map(float),
    st.tuples(st.floats(0, 1e6), st.integers(0, 12)).map(lambda pair: round(*pair)),
)
_STAMPS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(_SPECIAL_STAMPS, st.integers(-3, 3), st.booleans()).map(
        lambda drawn: _stepped(-drawn[0] if drawn[2] else drawn[0], drawn[1])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_STAMPS, min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-6, 5e-7, 2 ** 53 / 1e6,
          (2 ** 53 - 1) / 1e6, 2 ** 53 / 1e6 + 0.5, -1.5, 1e300, 0.1, 3599.999999,
          3599.9999999999995, 1e16])
def test_written_timestamps_read_back_bit_for_bit(values):
    # a value on the microsecond grid is spelled with six places, any other
    # as its repr, and float reads either back as the very same double
    n = len(values)
    rows = _written_rows(Packets(values, np.ones(n), np.ones(n), np.zeros(n), np.ones(n),
                                 np.zeros(n)))
    fields = [row[0] for row in rows]
    assert fields == [naive_format_timestamp(float(value)).encode() for value in values]
    npt.assert_array_equal(np.array([float(field) for field in fields]).view(np.uint64),
                           np.array(values, np.float64).view(np.uint64))


def test_labels_csv_round_trip(tmp_path):
    labels = [False, True, True, False, True]
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    assert read_labels_csv(path) == labels


def test_scenario_dict_round_trip():
    # the JSON document a scenario file would hold
    scenario = preset_scenario("mixed")
    doc = json.loads(json.dumps(dataclasses.asdict(scenario), default=lambda kind: kind.value))
    assert Scenario.from_dict(doc) == scenario
    with pytest.raises(InputError):
        Scenario.from_dict({"duration": 10.0, "baseline_rate": 5.0, "bogus": 1})


def test_scenario_validation():
    with pytest.raises(InputError):
        Scenario(duration=0.0, baseline_rate=5.0).validate()
    bad = Scenario(duration=10.0, baseline_rate=5.0, attacks=[
        AttackInterval(8.0, 4.0, AttackKind.SYN_FLOOD, 10.0, 100)])
    with pytest.raises(InputError):
        bad.validate()


def test_preset_scenario_unknown_name():
    with pytest.raises(InputError):
        preset_scenario("loud")


def test_split_packets_window_aligned():
    packets, _ = generate_traffic(Scenario(duration=20.0, baseline_rate=30.0),
                                  np.random.default_rng(6))
    train, valid = split_packets(packets, 0.8, 1.0)
    assert len(train) + len(valid) == len(packets)
    assert train.ts.max() < 16.0
    # validation is re-based so its own windows start at zero
    assert valid.ts.min() < 1.0
    for fraction, window_len in ((1.0, 1.0), (0.8, 0.0), (0.8, float("nan"))):
        with pytest.raises(InputError):
            split_packets(packets, fraction, window_len)
