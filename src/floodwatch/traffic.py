"""Packet ingestion, synthetic traffic, windowing and feature extraction.

A capture is a ``Packets``: six aligned numpy columns with one entry per
packet, produced by the generator and the CSV parser and consumed by
splitting, windowing and featurizing without a per-packet Python object.
Detection operates on fixed-length time windows; each window is
summarized by an 8-dimensional feature vector (volume, size,
address-entropy and protocol-mix statistics) chosen to move sharply
under flood attacks.

The synthetic generator produces labeled normal/attack streams: normal
traffic is a nonhomogeneous Poisson process with a sinusoidal diurnal
rate profile, attacks superimpose homogeneous Poisson floods of a single
packet shape from a pool of spoofed sources.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import load_json, replacing, require_int, require_real
from .errors import InputError
# The labels file (in the report module) lives where the command line
# reaches it without numpy; its reader and writer are re-exported here.
from .report import csv_errors, read_labels_csv, write_labels_csv  # noqa: F401

# Address plan for generated traffic (arbitrary but fixed, so seeds
# reproduce byte-identical streams).
LEGIT_SRC_BASE = 0x0A000000        # 10.0.0.0, pool of 256 client addresses
LEGIT_SRC_POOL = 256
SERVER_BASE = 0xC0A80001           # 192.168.0.1, pool of 16 service addresses
SERVER_POOL = 16
SPOOF_SRC_BASE = 0x64400000        # 100.64.0.0, spoofed flood sources
VICTIM_IP = SERVER_BASE            # floods all target the first server

# Upper bound on a scenario's expected packet count, about 200x the
# one-hour benchmark capture (~504k packets); larger scenarios are
# rejected before any random draw instead of exhausting memory.
MAX_EXPECTED_PACKETS = 1e8

# Upper bound on the windows one capture may span: 10**6 one-second
# windows are about 11.6 days (the one-hour benchmark capture has 3600).
# Windows count from t = 0, so without it a capture stamped with Unix
# epoch times (~1.7e9 s) would allocate ~1.7e9 windows; such a capture
# is rejected before any per-window allocation.
MAX_WINDOWS = 10**6

# Bytes that parse_packets asks of a file in one read, and the least it
# takes as one block (see _byte_blocks). A plain block (see _plain_block)
# costs a fixed number of numpy calls plus a share per row, and the
# arrays its kernel makes for it take about ten times its size. On the
# one-hour capture (504k rows, shared 2-CPU machine, one process per
# parse, ten alternated runs, medians) a parse from bytes took 0.46 s
# with 128 KiB blocks, 0.37 s with 256 KiB and 0.34 s with 512 KiB, for
# 25.4k, 10.0k and 8.4k minor page faults and a peak RSS of 43.6, 45.4
# and 49.8 MB.
PARSE_BLOCK_CHARS = 1 << 18

# Rows per chunk that write_packets_csv formats and writes at once, so
# its text and lists are bounded by the chunk, not the capture. On the
# one-hour capture (504k rows, 2 CPUs) chunks of 2048 to 65,536 rows all
# wrote in 0.8-1.0 s; peak RSS of `gen --preset quiet` was 43-45 MB up
# to 16,384 rows and 54.7 MB at 65,536.
WRITE_CHUNK_ROWS = 16384

# Decimal places of a generated timestamp: whole microseconds, as classic
# libpcap stores them. The writer spells such a time with exactly these
# places, and the parser reads it back with one float64 division.
TIMESTAMP_PLACES = 6
_TICKS = 10.0 ** TIMESTAMP_PLACES          # grid steps a second

TCP_SHARE = 0.70                   # remaining traffic: 25% UDP, 5% ICMP
UDP_SHARE = 0.25
SYN_RATE = 0.05                    # fraction of normal TCP packets with SYN set
MIN_PACKET_BYTES = 64
MAX_PACKET_BYTES = 1500
SYN_FLOOD_BYTES = 64
UDP_FLOOD_BYTES = 512
ICMP_FLOOD_BYTES = 64

PACKET_CSV_HEADER = ["timestamp", "src_ip", "dst_ip", "protocol", "length", "syn"]

FEATURE_NAMES = (
    "packet_count",
    "byte_count",
    "mean_packet_size",
    "src_ip_entropy",
    "dst_ip_entropy",
    "syn_fraction",
    "udp_fraction",
    "icmp_fraction",
)
NUM_FEATURES = len(FEATURE_NAMES)


# Packets.proto holds codes into PROTOCOLS.
PROTOCOLS = ("TCP", "UDP", "ICMP")
TCP, UDP, ICMP = range(len(PROTOCOLS))
_PROTOCOL_CODES = {name: code for code, name in enumerate(PROTOCOLS)}
_INT64_MAX = int(np.iinfo(np.int64).max)


class AttackKind(enum.Enum):
    SYN_FLOOD = "syn_flood"
    UDP_FLOOD = "udp_flood"
    ICMP_FLOOD = "icmp_flood"


_COLUMN_DTYPES = (np.float64, np.uint32, np.uint32, np.uint8, np.int64, np.bool_)


@dataclass(eq=False)
class Packets:
    """A capture as six aligned columns, one entry per packet.

    ``ts`` seconds (float64), ``src``/``dst`` addresses (uint32),
    ``proto`` codes into PROTOCOLS (uint8), ``length`` bytes (int64) and
    ``syn`` flags (bool). An index (a slice, a mask, an index array)
    selects a Packets; a Packets is not iterable.
    """

    ts: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    proto: np.ndarray
    length: np.ndarray
    syn: np.ndarray

    def __post_init__(self):
        for column, dtype in zip(fields(self), _COLUMN_DTYPES):
            setattr(self, column.name, np.asarray(getattr(self, column.name), dtype=dtype))
        if self.ts.ndim != 1 or len({c.shape for c in self.columns()}) != 1:
            raise ValueError("packet columns must be 1-d and of equal length")

    def columns(self) -> tuple:
        return self.ts, self.src, self.dst, self.proto, self.length, self.syn

    def __len__(self) -> int:
        return self.ts.size

    def __getitem__(self, key):
        return Packets(*(column[key] for column in self.columns()))

    __iter__ = None     # iter() would index 0, 1, ... and __getitem__ takes no integer

    def __eq__(self, other):
        if not isinstance(other, Packets):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))


def _time_ordered(packets: Packets) -> Packets:
    """The packets by timestamp; ties keep their input order."""
    ts = packets.ts
    if np.all(ts[:-1] <= ts[1:]):
        return packets
    return packets[np.argsort(ts, kind="stable")]


def _check_window_len(window_len: float):
    """Window bounds are multiples of ``window_len``, so it must be finite
    (inf would make them 0 * inf = NaN) and positive; NaN fails both."""
    if not (math.isfinite(window_len) and window_len > 0):
        raise InputError(f"window_len must be a finite positive number, got {window_len!r}")


def _window_count(ts, window_len: float) -> int:
    """Windows 0..floor(ts[-1] / window_len) of the non-empty time-ordered
    timestamps ``ts``, at most MAX_WINDOWS of them. Windows count from
    t = 0 and NaN sorts last, so each time has a window once the first is
    at least 0 and the last is finite."""
    first, last = float(ts[0]), float(ts[-1])
    for t in (first, last):
        if not (math.isfinite(t) and t >= 0):
            raise InputError(f"timestamp {t!r} s must be finite and non-negative; "
                             "windows count from t = 0")
    last_index = last // window_len
    if not last_index < MAX_WINDOWS:
        raise InputError(f"last timestamp {last!r} s lies in window {last_index:.4g} of "
                         f"{window_len!r} s; at most {MAX_WINDOWS} windows from t = 0 "
                         "are supported")
    return int(last_index) + 1


@dataclass
class AttackInterval:
    """One flood: [start, end) seconds, rate multiplier over baseline."""

    start: float
    end: float
    kind: AttackKind
    multiplier: float
    source_pool: int


@dataclass
class Scenario:
    """Recipe for one synthetic capture."""

    duration: float
    baseline_rate: float
    diurnal_amplitude: float = 0.0
    attacks: list[AttackInterval] = field(default_factory=list)

    def validate(self):
        """Range checks, which NaN fails, then the packet budget: the
        expected packet count must not exceed MAX_EXPECTED_PACKETS."""
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise InputError("duration must be a positive number of seconds")
        if not (math.isfinite(self.baseline_rate) and self.baseline_rate > 0):
            raise InputError("baseline_rate must be positive")
        if not (0.0 <= self.diurnal_amplitude <= 1.0):
            raise InputError("diurnal_amplitude must lie in [0, 1]")
        expected = self.duration * self.baseline_rate * (1.0 + self.diurnal_amplitude)
        for k, attack in enumerate(self.attacks):
            if not (0 <= attack.start < attack.end <= self.duration):
                raise InputError(
                    f"attack {k}: need 0 <= start < end <= duration, "
                    f"got [{attack.start}, {attack.end}) in {self.duration}s"
                )
            if not attack.multiplier >= 1:
                raise InputError(f"attack {k}: multiplier must be >= 1")
            # spoofed sources count up from SPOOF_SRC_BASE and must stay below 2**32
            if not 1 <= attack.source_pool <= 2**32 - SPOOF_SRC_BASE:
                raise InputError(f"attack {k}: source_pool must lie in "
                                 f"[1, {2**32 - SPOOF_SRC_BASE}]")
            expected += attack.multiplier * self.baseline_rate * (attack.end - attack.start)
        if not expected <= MAX_EXPECTED_PACKETS:
            raise InputError(f"scenario expects {expected:.3g} packets; "
                             f"the limit is {MAX_EXPECTED_PACKETS:.0e}")

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        """Types are checked here, ranges by ``validate`` in generate_traffic."""
        if not isinstance(doc, dict):
            raise InputError("scenario document must be a JSON object")
        known = {"duration", "baseline_rate", "diurnal_amplitude", "attacks"}
        unknown = set(doc) - known
        if unknown:
            raise InputError(f"unknown scenario keys: {sorted(unknown)}")
        try:
            attacks = []
            for k, raw in enumerate(doc.get("attacks", [])):
                attacks.append(AttackInterval(
                    start=require_real(f"attack {k}: start", raw["start"]),
                    end=require_real(f"attack {k}: end", raw["end"]),
                    kind=AttackKind(raw["kind"]),
                    multiplier=require_real(f"attack {k}: multiplier", raw["multiplier"]),
                    source_pool=require_int(f"attack {k}: source_pool", raw["source_pool"]),
                ))
            return cls(
                duration=require_real("duration", doc["duration"]),
                baseline_rate=require_real("baseline_rate", doc["baseline_rate"]),
                diurnal_amplitude=require_real("diurnal_amplitude",
                                               doc.get("diurnal_amplitude", 0.0)),
                attacks=attacks,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad scenario document: {exc}") from exc


def load_scenario(path) -> Scenario:
    return Scenario.from_dict(load_json(path))


def preset_scenario(name: str) -> Scenario:
    """Built-in scenarios: quiet (no attacks), syn10, mixed."""
    if name == "quiet":
        return Scenario(duration=600.0, baseline_rate=100.0, diurnal_amplitude=0.0)
    if name == "syn10":
        return Scenario(
            duration=300.0, baseline_rate=100.0, diurnal_amplitude=0.0,
            attacks=[AttackInterval(270.0, 300.0, AttackKind.SYN_FLOOD, 10.0, 500)],
        )
    if name == "mixed":
        return Scenario(
            duration=600.0, baseline_rate=100.0, diurnal_amplitude=0.1,
            attacks=[
                AttackInterval(120.0, 150.0, AttackKind.SYN_FLOOD, 8.0, 400),
                AttackInterval(300.0, 330.0, AttackKind.UDP_FLOOD, 8.0, 400),
                AttackInterval(480.0, 510.0, AttackKind.ICMP_FLOOD, 8.0, 400),
            ],
        )
    raise InputError(f"unknown preset {name!r}; choose quiet, syn10 or mixed")


def parse_ip(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or not 0 <= int(part) <= 255:
            raise ValueError(f"bad address octet in {text!r}")
        value = (value << 8) | int(part)
    return value


class _Memo(dict):
    """``func`` of each distinct key, computed on first lookup; a capture
    repeats few addresses many times."""

    def __init__(self, func):
        super().__init__()
        self.func = func

    def __missing__(self, key):
        value = self[key] = self.func(key)
        return value


def _check_row(row, number, addresses: _Memo) -> tuple:
    """The six column values of the (non-blank) CSV row on line ``number``,
    its addresses converted by ``addresses`` (a _Memo of parse_ip), or the
    InputError naming the line if the row breaks a row rule."""
    if len(row) != 6:
        raise InputError(f"line {number}: expected 6 fields, got {len(row)}")
    try:
        timestamp = float(row[0])
        if not (math.isfinite(timestamp) and timestamp >= 0):
            raise ValueError("timestamp must be finite and non-negative")
        src = addresses[row[1]]
        dst = addresses[row[2]]
        if row[3] not in _PROTOCOL_CODES:
            raise ValueError(f"unknown protocol {row[3]!r}")
        length = int(row[4])
        if length < 1:
            raise ValueError("length must be >= 1")
        if length > _INT64_MAX:
            raise ValueError("length must be < 2**63")
        if row[5] not in ("0", "1"):
            raise ValueError(f"syn must be 0 or 1, got {row[5]!r}")
    except ValueError as exc:
        raise InputError(f"line {number}: {exc}") from None
    return timestamp, src, dst, _PROTOCOL_CODES[row[3]], length, row[5] == "1"


def _parse_rows(reader, first: int, addresses: _Memo, lines_before=0) -> Packets:
    """The packets of the rows of ``reader``, which starts after
    ``lines_before`` lines of the file with row ``first``. Each row is
    checked and converted by _check_row before the next record is read,
    so the InputError names the first bad row, even one before a record
    csv.reader rejects."""
    dtype = np.dtype([(column.name, t) for column, t in zip(fields(Packets), _COLUMN_DTYPES)])
    with csv_errors(reader, lines_before=lines_before):
        rows = np.fromiter((_check_row(row, number, addresses)
                            for number, row in enumerate(reader, start=first) if row), dtype)
    return Packets(*(rows[name].copy() for name in dtype.names))   # contiguous columns


# A plain block's timestamps are at most _TS_WIDTH bytes wide, and each
# protocol name is read as one little-endian word through a view of the
# bytes with a one-byte stride; _MASKS[k] keeps a word's first k bytes.
_TS_WIDTH = 32
_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)
_PROTOCOL_WORDS = np.array([int.from_bytes(name.encode(), "little") for name in PROTOCOLS],
                           np.uint64)[:, None]
_ADDRESS_SHIFTS = np.uint32([24, 16, 8, 0] * 2)[:, None]
_ROWS = np.arange(9)[:, None]
_BETWEEN_KINDS = np.frombuffer(b",...,...,", np.uint8)[:, None]
_HEADER_BYTES = ",".join(PACKET_CSV_HEADER).encode()


class _Columns:
    """The six columns of the packets parsed so far, ``size`` rows of
    them. They grow by doubling through ndarray.resize, in place where the
    allocator can; no view of them outlives the call that made it."""

    def __init__(self):
        self.arrays = [np.empty(1 << 14, dtype) for dtype in _COLUMN_DTYPES]
        self.size = 0

    def tail(self, n: int) -> list:
        """Views of the ``n`` rows after the filled ones, which count once
        ``size`` is raised by ``n``."""
        end = self.size + n
        if end > self.arrays[0].size:
            for array in self.arrays:
                array.resize(max(end, 2 * array.size), refcheck=False)
        return [array[self.size:end] for array in self.arrays]

    def append(self, packets: Packets):
        for view, column in zip(self.tail(len(packets)), packets.columns()):
            np.copyto(view, column)
        self.size += len(packets)

    def packets(self) -> Packets:
        for array in self.arrays:
            array.resize(self.size, refcheck=False)
        return Packets(*self.arrays)


def _decimals(buf, end, width, most: int) -> tuple:
    """The values of the fields of ``buf`` that end before ``end`` and are
    ``width`` bytes wide, read as ASCII digits, and whether each field is
    at most ``most`` such digits; an empty field reads 0 and passes.
    ``most`` is at most 19, so no value overflows its uint64."""
    dtype = np.min_scalar_type(10**most - 1)
    value = np.zeros(end.shape, dtype)
    ok = width <= most
    index = end - 1
    for k in range(min(int(width.max()), most)):
        digit = buf.take(index, mode="clip") - np.uint8(ord("0"))   # bytes below "0" wrap past 9
        digit *= width > k
        ok &= digit <= 9
        value += digit * dtype.type(10**k)
        index -= 1
    return value, ok


# 10**k for k <= 19, the powers of ten below 2**64.
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)


def _timestamps(block: bytes, starts, dots, ends, ts) -> bool:
    """Write into ``ts`` the timestamp fields [starts, ends) of ``block``
    as ``float`` reads them, ``dots`` being each field's dot or its end;
    False where ``float`` raises ValueError.

    A field of 1 to 19 digits with at most one dot, k of them after it,
    whose digits form an integer D below 2**53, is D / 10**k in float64:
    D and 10**k are exact doubles, so the one correctly rounded division
    gives ``float``'s value (Clinger's fast path, "How to Read Floating
    Point Numbers Accurately", 1990). ``float`` reads all other fields one
    by one from the block's bytes."""
    buf = np.frombuffer(block, np.uint8)
    whole = dots - starts
    k = ends - dots - (dots < ends)                     # digits after the dot
    value, fast = _decimals(buf, dots, whole, 19)
    fraction, ok = _decimals(buf, ends, k, 19)
    digits = whole + k
    fast &= ok & (digits >= 1) & (digits <= 19)
    scale = _POW10_U64.take(k, mode="clip")
    value *= scale                                      # wraps only where not fast
    value += fraction
    fast &= value < np.uint64(2**53)
    np.divide(value, scale, out=ts)
    if not fast.all():
        rows = np.flatnonzero(~fast)
        try:
            ts[rows] = [float(block[a:b])
                        for a, b in zip(starts[rows].tolist(), ends[rows].tolist())]
        except ValueError:
            return False
    return True


def _line_fields(buf, size: int) -> tuple | None:
    """Where the fields of the lines of ``buf[:size]`` lie, or None unless
    each line holds five commas and, from its first comma to its third,
    three dots between its first two commas and three between the next
    two, with no other byte below "0", and CR only right before an LF.

    Returns the lines' starts, their ends (before any CR), a (9, n) array
    of the first three commas with the dots between them, which bound the
    eight octets of the two addresses, the last two commas, and where a
    timestamp holds one byte below "0" and that is a dot, the dot, else
    the first comma."""
    # the bytes below "0": line ends, commas, dots and any other punctuation
    marks = np.flatnonzero(buf[:size] < ord("0"))
    kind = buf[marks]
    lf = np.flatnonzero(kind == ord("\n"))              # the line ends' places among the marks
    at = np.flatnonzero(kind == ord(","))               # the commas' places among the marks
    n = lf.size
    if at.size != 5 * n:
        return None
    at = at.reshape(n, 5).T                             # (5, n)
    commas = marks[at]
    ends = marks[lf]
    starts = np.append(0, ends[:-1] + 1)
    if not ((commas[0] >= starts).all() and (commas[4] < ends).all()):
        return None
    crlf = buf[ends - 1] == ord("\r")
    if np.count_nonzero(crlf) != np.count_nonzero(kind == ord("\r")):
        return None
    if not (at[2] - at[0] == 8).all():
        return None
    between = at[0] + _ROWS                             # (9, n)
    if not (kind[between] == _BETWEEN_KINDS).all():
        return None
    first = np.append(0, lf[:-1] + 1)                   # each line's first mark
    one_dot = (at[0] - first == 1) & (kind[first] == ord("."))
    dots = marks[np.where(one_dot, first, at[0])]
    return starts, ends - crlf, marks[between], commas[3], commas[4], dots


def _plain_block(block: bytes, columns: _Columns) -> int | None:
    """Write the packets of ``block``, bytes of whole lines, after the
    rows of ``columns`` and return their count if the block is plain,
    else None.

    Plain: ASCII with no double quote and no NUL, CR only right before
    LF, five commas on every line (so no blank line), a csv field size
    limit of at least _TS_WIDTH, and on every line a timestamp of at most
    _TS_WIDTH bytes that ``float`` reads as finite and non-negative, two
    addresses of four octets of 1 to 3 ASCII digits, each at most 255,
    joined by three dots, a protocol spelled as a name in PROTOCOLS, a
    length of 1 to 19 ASCII digits in [1, 2**63 - 1] and a syn of 0 or
    1. csv.reader would split each such line at its five commas, so the
    fields are the same texts, and each value is the one the row path
    converts: numpy computes every value from the bytes, a timestamp by
    one float64 division where _timestamps can, and ``float`` reads the
    few other timestamps. A last line without a line end is read as if it
    had an LF."""
    if not block.isascii() or b'"' in block or b"\0" in block:
        return None
    if not block.endswith(b"\n"):
        return _plain_block(block + b"\n", columns)
    buf = np.frombuffer(block, np.uint8)
    fields = _line_fields(buf, buf.size)
    if fields is None:
        return None
    starts, ends, bounds, c3, c4, dots = fields
    n, c0, c2 = starts.size, bounds[0], bounds[8]
    # no field is wider than _TS_WIDTH: the checks below hold the others to 19 bytes
    if (c0 - starts).max() > _TS_WIDTH or _TS_WIDTH > csv.field_size_limit():
        return None
    width = np.diff(bounds, axis=0) - 1
    octets, ok = _decimals(buf, bounds[1:], width, 3)                          # (8, n)
    if not ok.all() or width.min() < 1 or octets.max() > 255:
        return None
    # the word after each line's third comma; np.take would first copy the
    # whole strided view, so this one small array is gathered by indexing.
    # A word that would run past the block is read from its last 8 bytes:
    # its line holds fewer than the 8 bytes of "TCP,1,0\n" after that
    # comma, so the checks below reject it whatever word is read.
    words = np.ndarray((buf.size - 7,), np.dtype("<u8"), buf, strides=(1,))
    word = words[np.minimum(c2 + 1, words.size - 1)] & _MASKS.take(np.minimum(c3 - c2 - 1, 8))
    proto = word == _PROTOCOL_WORDS                                             # (3, n)
    if not proto.any(axis=0).all():
        return None
    length, ok = _decimals(buf, c4, c4 - c3 - 1, 19)
    if not ok.all() or length.min() < 1 or length.max() > _INT64_MAX:
        return None
    syn = buf[c4 + 1] - np.uint8(ord("0"))
    if not (ends - c4 == 2).all() or syn.max() > 1:
        return None
    ts, src, dst, proto_out, length_out, syn_out = columns.tail(n)
    if not _timestamps(block, starts, dots, c0, ts):
        return None
    if not (np.isfinite(ts).all() and (ts >= 0).all()):
        return None
    bits = octets << _ADDRESS_SHIFTS
    np.add.reduce(bits[:4], axis=0, out=src)
    np.add.reduce(bits[4:], axis=0, out=dst)
    proto_out.fill(0)
    for code in range(1, len(PROTOCOLS)):
        proto_out[proto[code]] = code
    length_out[:] = length
    syn_out[:] = syn == 1
    return n


def _line_end(data, lo: int, hi: int) -> int:
    """Where the last line of data[lo:hi] ends, counted from ``lo``: after
    its last LF or after a CR that is not its last byte (that one may yet
    start a CRLF); 0 if no line ends there."""
    return max(data.rfind(b"\n", lo, hi), data.rfind(b"\r", lo, hi - 1), lo - 1) + 1 - lo


def _byte_blocks(handle):
    """The bytes of the binary file ``handle`` in blocks of whole lines,
    each one bytes object. Reads of PARSE_BLOCK_CHARS bytes, which a pipe
    may cut short, go on until at least PARSE_BLOCK_CHARS bytes are in
    hand; a block runs to the last line end read, an LF or a CR that no LF
    follows, and the bytes after it start the next block. The last block
    holds what follows the last line end."""
    held = bytearray()                          # bytes read, not yet yielded
    clean = 0                                   # bytes before these end no line
    while True:
        size = len(held)
        held += handle.read(PARSE_BLOCK_CHARS)
        if len(held) == size:
            if held:
                yield bytes(held)
            return
        if len(held) < PARSE_BLOCK_CHARS:
            continue
        # only bytes not searched before, so a long line is searched once
        cut = _line_end(held, clean, len(held))
        if cut:
            cut += clean
            block = bytes(held[:cut])
            del held[:cut]                      # the held bytes shrink before it is parsed
            yield block
        clean = max(len(held) - 1, 0)           # a CR that ends them may yet start a CRLF


def _csv_lines(blocks):
    """The lines of the bytes ``blocks``, each decoded as UTF-8 and split
    at CR, LF and CRLF as a file opened with newline="" (as csv.reader
    asks) splits them. Bytes that are not UTF-8 (or a sequence the
    block's end cuts short) raise UnicodeDecodeError once the whole lines
    before them are yielded, so that the first bad line in file order is
    reported."""
    for block in blocks:
        try:
            text = block.decode()
        except UnicodeDecodeError as exc:
            # the bad byte is above 0x7f, so a CR right before it ends a line
            cut = _line_end(block, 0, exc.start + 1)
            yield from io.StringIO(block[:cut].decode(), newline="")
            raise
        yield from io.StringIO(text, newline="")


def _parse_csv(lines, addresses: _Memo) -> Packets:
    """The packets of CSV ``lines`` after their header, by csv.reader."""
    reader = csv.reader(lines)
    with csv_errors(reader):
        header = next(reader, None)
    if header is None:
        raise InputError("empty input: missing CSV header")
    if header != PACKET_CSV_HEADER:
        raise InputError(
            f"bad header {header!r}; expected {','.join(PACKET_CSV_HEADER)}"
        )
    return _parse_rows(reader, 2, addresses)


def parse_packets(handle) -> Packets:
    """Read packets from the CSV bytes of the binary file ``handle``.

    The header must match PACKET_CSV_HEADER exactly; any malformed row
    raises InputError naming its line number. Packets are returned in
    input order, unsorted.

    The file is read with ``read``, one block of whole lines at a time
    (see _byte_blocks). A plain block (see _plain_block) is split into
    fields and converted by numpy, timestamps included, and its values
    are written straight into the packet columns; its arrays are dropped
    before the next block is read, so memory beyond the columns is
    bounded by the block. ``float`` reads only the few timestamps that
    _timestamps cannot convert exactly, such as ``5e-05``. Any other
    block, and a block with a row that breaks a rule, is decoded and goes
    through csv.reader, and _check_row checks and converts each of its
    rows before the next is read, so the error names the first bad row.
    After a block with a double quote, whose quoted fields may hold line
    ends, csv.reader reads the rest. Bytes that are not UTF-8 raise
    UnicodeDecodeError after the lines before them (see _csv_lines).
    """
    addresses = _Memo(parse_ip)
    blocks = _byte_blocks(handle)
    block = next(blocks, b"")
    lf = block.find(b"\n")
    if lf < 0 or block[:lf].removesuffix(b"\r") != _HEADER_BYTES:
        return _parse_csv(_csv_lines(itertools.chain([block], blocks)), addresses)
    columns = _Columns()
    number = 2                                  # the row number of the block's first line
    # the chain keeps its arguments, so the first block goes in an iterator
    # that lets it go once read
    for block in itertools.chain(iter([block[lf + 1:]]), blocks):
        if not block:
            continue
        count = _plain_block(block, columns)
        if count is not None:
            columns.size += count
            number += count
            continue
        # one record per line, unless a quoted field may hold line ends
        quoted = b'"' in block
        reader = csv.reader(_csv_lines(itertools.chain([block], blocks if quoted else [])))
        columns.append(_parse_rows(reader, number, addresses, number - 1))
        if quoted:
            break
        number += reader.line_num
    return columns.packets()


def write_packets_csv(path, packets: Packets):
    """Write a packet CSV that parse_packets reads back as ``packets``.

    The bytes are those of csv.writer: CRLF line ends and no quoting,
    since no field can contain a comma, a double quote, CR or LF:
    addresses are dotted quads, protocols are names from PROTOCOLS and
    the rest are numbers. A timestamp on the microsecond grid that the
    generator stamps is written with TIMESTAMP_PLACES digits after the
    dot (see packet_text), any other in the shortest text that reads
    back as the same double. Rows are formatted and written
    WRITE_CHUNK_ROWS at a time, one numpy layout and one write each, so
    memory beyond the columns does not grow with the capture.
    """
    from .packet_text import chunk_bytes        # loaded only by the commands that write

    with replacing(path) as (temp,), open(temp, "wb") as handle:
        handle.write(_HEADER_BYTES + b"\r\n")
        for start in range(0, len(packets), WRITE_CHUNK_ROWS):
            handle.write(chunk_bytes(packets[start:start + WRITE_CHUNK_ROWS]))


def write_features_csv(path, matrix):
    with replacing(path) as (temp,), open(temp, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window_index", *FEATURE_NAMES])
        for index, row in enumerate(np.asarray(matrix, dtype=np.float64).tolist()):
            writer.writerow([index, *map(repr, row)])


def _poisson_arrivals(rng, rate: float, start: float, end: float) -> np.ndarray:
    """Homogeneous Poisson arrival times on [start, end)."""
    arrivals = rng.random(rng.poisson(rate * (end - start)))
    arrivals.sort()
    arrivals *= end - start
    arrivals += start
    return arrivals


def _joined(parts: list[list]) -> Packets:
    """The packets of ``parts``, each a list of the six columns of some
    packets, in order. A column of every part is dropped once it has been
    copied, so the parts and their concatenation are never held in full
    at once."""
    columns = []
    for k, dtype in enumerate(_COLUMN_DTYPES):
        columns.append(np.concatenate([np.empty(0, dtype)] + [part[k] for part in parts]))
        for part in parts:
            part[k] = None
    return Packets(*columns)


def _in_time_order(parts: list[list]) -> Packets:
    """The packets of ``parts`` (see _joined) by timestamp; ties keep their
    order, as _time_ordered keeps it. Each narrow column is reordered in
    turn, the timestamps are sorted in place, and the lengths are written
    over the order (intp, as wide as int64) as it is read, so that no new
    column of 8 bytes a packet is held beside the order. On the one-hour
    benchmark capture (2-CPU machine) the `gen` process then peaks at
    59.4 MB instead of 62.7 MB."""
    packets = _joined(parts)
    if not np.all(packets.ts[:-1] <= packets.ts[1:]):
        order = np.argsort(packets.ts, kind="stable")
        for name in ("src", "dst", "proto", "syn"):
            setattr(packets, name, getattr(packets, name)[order])
        packets.ts.sort(kind="stable")          # the values of ts[order]
        # the lengths in order take the order's place, piece by piece
        length = order.view(np.int64)
        for start in range(0, order.size, 1 << 16):
            piece = slice(start, start + (1 << 16))
            np.take(packets.length, order[piece].copy(), out=length[piece])
        packets.length = length
    return packets


def generate_traffic(scenario: Scenario, rng: np.random.Generator,
                     window_len: float = 1.0) -> tuple[Packets, list[bool]]:
    """Generate one labeled capture.

    Normal traffic arrives as a thinned Poisson process with rate
    baseline_rate * (1 + diurnal_amplitude * sin(2*pi*t/duration)),
    uniform packet sizes in [64, 1500], sources from the 256-address
    client pool and a 70/25/5 TCP/UDP/ICMP mix with 5% of TCP carrying
    SYN. Each attack adds a homogeneous flood at multiplier * baseline
    of its fixed packet shape, aimed at the victim address from spoofed
    sources.

    Returns packets sorted by timestamp and one label per window of
    ``window_len`` seconds; a window is labeled True iff it overlaps an
    attack interval. Deterministic given the generator state.
    """
    scenario.validate()
    _check_window_len(window_len)
    base = scenario.baseline_rate
    amplitude = scenario.diurnal_amplitude
    duration = scenario.duration

    # Each random draw is used, in the same order and with the same
    # arithmetic as ever, then released; in-place steps keep one array
    # of temporaries at a time.
    peak = base * (1.0 + amplitude)
    times = _poisson_arrivals(rng, peak, 0.0, duration)
    rate = 2.0 * np.pi * times
    rate /= duration
    np.sin(rate, out=rate)
    rate *= amplitude
    rate += 1.0
    rate *= base
    rate /= peak
    times = times[rng.random(times.size) < rate]
    del rate
    n = times.size

    src = (LEGIT_SRC_BASE + rng.integers(0, LEGIT_SRC_POOL, n)).astype(np.uint32)
    dst = (SERVER_BASE + rng.integers(0, SERVER_POOL, n)).astype(np.uint32)
    proto = np.searchsorted([TCP_SHARE, TCP_SHARE + UDP_SHARE], rng.random(n),
                            side="right").astype(np.uint8)         # TCP, UDP or ICMP
    lengths = rng.integers(MIN_PACKET_BYTES, MAX_PACKET_BYTES + 1, n)
    syn = (proto == TCP) & (rng.random(n) < SYN_RATE)
    parts = [[times, src, dst, proto, lengths, syn]]
    del times, src, dst, proto, lengths, syn

    flood_shape = {
        AttackKind.SYN_FLOOD: (TCP, SYN_FLOOD_BYTES, True),
        AttackKind.UDP_FLOOD: (UDP, UDP_FLOOD_BYTES, False),
        AttackKind.ICMP_FLOOD: (ICMP, ICMP_FLOOD_BYTES, False),
    }
    for attack in scenario.attacks:
        code, size, syn = flood_shape[attack.kind]
        flood_times = _poisson_arrivals(rng, attack.multiplier * base,
                                        attack.start, attack.end)
        m = flood_times.size
        flood_src = (SPOOF_SRC_BASE + rng.integers(0, attack.source_pool, m)).astype(np.uint32)
        parts.append([flood_times, flood_src, np.full(m, VICTIM_IP, np.uint32),
                      np.full(m, code, np.uint8), np.full(m, size, np.int64), np.full(m, syn)])

    packets = _in_time_order(parts)
    # whole microseconds (see TIMESTAMP_PLACES); rounding keeps the order
    packets.ts *= _TICKS
    np.rint(packets.ts, out=packets.ts)
    packets.ts /= _TICKS
    # a time within half a microsecond of the end rounds onto it and would
    # open a window past it: those take the microsecond before, which keeps
    # the order too
    past = np.searchsorted(packets.ts, duration)
    packets.ts[past:] = (np.rint(packets.ts[past:] * _TICKS) - 1) / _TICKS

    num_windows = _window_count(packets.ts, window_len) if len(packets) else 0
    lo = np.arange(num_windows) * window_len
    hi = np.arange(1, num_windows + 1) * window_len
    labels = np.zeros(num_windows, dtype=bool)
    for a in scenario.attacks:
        labels |= (lo < a.end) & (hi > a.start)
    return packets, labels.tolist()


@dataclass(eq=False)
class Windows:
    """Time-ordered packets binned into windows 0..len-1: window k holds
    ``packets[bounds[k]:bounds[k + 1]]``. Iterating yields (k, bucket)."""

    packets: Packets
    bounds: np.ndarray

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __iter__(self):
        for k in range(len(self)):
            yield k, self.packets[self.bounds[k]:self.bounds[k + 1]]


def windowize(packets: Packets, window_len: float) -> Windows:
    """Bin packets into contiguous windows of ``window_len`` seconds.

    A packet with timestamp t lands in window floor(t / window_len).
    Windows run from 0 through the last non-empty index with empty
    windows kept, so indices line up with label files; more than
    MAX_WINDOWS of them, or a timestamp below 0 or not finite, is an
    InputError.
    """
    _check_window_len(window_len)
    packets = _time_ordered(packets)
    if not len(packets):
        return Windows(packets, np.zeros(1, dtype=np.intp))
    count = _window_count(packets.ts, window_len)
    index = np.floor_divide(packets.ts, window_len)
    return Windows(packets, np.searchsorted(index, np.arange(count + 1)))


def _entropies(address: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per window, the Shannon entropy (bits) of its address distribution
    divided by log2(max(distinct, 2)), so it lies in [0, 1]; 0 for an
    empty window. ``address`` holds the addresses of time-ordered packets
    that ``bounds`` cuts into windows, as in Windows.

    Each key holds its window above its address, so the sorted keys keep
    the packets' windows in place and sum each window's terms in address
    order whatever order the packets came in. Each array is dropped once
    used: the keys and the distinct keys' places are each about the size
    of a packet column.
    """
    count = np.diff(bounds)
    seen = count > 0
    keys = np.repeat(np.arange(count.size, dtype=np.uint64) << np.uint64(32), count)
    keys |= address
    keys.sort()
    new = np.ones(keys.size + 1, bool)              # a key unlike the one before, and the end
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    del keys
    edges = np.flatnonzero(new)                     # each distinct key's first place, and the end
    del new
    per_key = np.diff(edges)
    starts = np.searchsorted(edges, bounds[:-1][seen])      # each window's first distinct key
    del edges
    distinct = np.diff(starts, append=per_key.size)
    p = np.repeat(count[seen].astype(np.float64), distinct)
    np.divide(per_key, p, out=p)
    del per_key
    terms = np.log2(p)
    terms *= p
    entropy = np.zeros(count.size)
    entropy[seen] = ((0.0 - np.add.reduceat(terms, starts))
                     / np.log2(np.maximum(distinct, 2)))
    return entropy


def feature_matrix(windows: Windows) -> np.ndarray:
    """Per-window features as an (n_windows, 8) matrix in FEATURE_NAMES
    order; an empty window is all zeros.

    Counts come from the window bounds and are exact. Per-window sums are
    taken with np.add.reduceat from each non-empty window's first packet,
    as the empty windows between add nothing; byte counts are float64
    sums, exact below 2**53 bytes per window. The SYN fraction counts TCP
    packets only.
    """
    n = len(windows)
    packets = windows.packets
    count = np.diff(windows.bounds)
    seen = count > 0
    starts = windows.bounds[:-1][seen]

    def per_window(values, dtype):
        out = np.zeros(n)
        out[seen] = np.add.reduceat(values, starts, dtype=dtype)
        return out

    def fraction(mask):
        out = per_window(mask, np.intp)
        out[seen] /= count[seen]
        return out

    matrix = np.zeros((n, NUM_FEATURES))
    matrix[:, 0] = count
    matrix[:, 1] = per_window(packets.length, np.float64)
    matrix[seen, 2] = matrix[seen, 1] / count[seen]
    matrix[:, 3] = _entropies(packets.src, windows.bounds)
    matrix[:, 4] = _entropies(packets.dst, windows.bounds)
    matrix[:, 5] = fraction((packets.proto == TCP) & packets.syn)
    matrix[:, 6] = fraction(packets.proto == UDP)
    matrix[:, 7] = fraction(packets.proto == ICMP)
    return matrix


@dataclass
class Normalizer:
    """Feature scaling fitted on training windows only.

    ``feat_min``/``feat_max`` drive min-max scaling (training range onto
    [0, 1], unclamped outside it);
    ``unit_mean``/``unit_std`` are the statistics of the min-max-scaled
    training data, used to standardize the input of the Gaussian RBM
    layer.
    """

    feat_min: np.ndarray
    feat_max: np.ndarray
    unit_mean: np.ndarray
    unit_std: np.ndarray


STD_FLOOR = 1e-9


def fit_normalizer(matrix) -> Normalizer:
    """Fit scaling statistics on a non-empty (n, features) training matrix."""
    feat_min = matrix.min(axis=0)
    feat_max = matrix.max(axis=0)
    scaled = _minmax(matrix, feat_min, feat_max)
    return Normalizer(feat_min=feat_min, feat_max=feat_max,
                      unit_mean=scaled.mean(axis=0), unit_std=scaled.std(axis=0))


def _minmax(values, feat_min, feat_max):
    span = feat_max - feat_min
    return np.where(span > 0, (values - feat_min) / np.where(span > 0, span, 1.0), 0.5)


def normalize(norm: Normalizer, values) -> np.ndarray:
    """Min-max scaling: the training range maps onto [0, 1] and values
    outside it extrapolate linearly beyond, so a flood that exceeds every
    training window stays distinguishable from the busiest normal one.
    Constant dimensions map to 0.5."""
    values = np.asarray(values, dtype=np.float64)
    return _minmax(values, norm.feat_min, norm.feat_max)


def standardize(norm: Normalizer, unit_values) -> np.ndarray:
    """Zero-mean unit-variance transform of min-max-scaled values."""
    unit_values = np.asarray(unit_values, dtype=np.float64)
    return (unit_values - norm.unit_mean) / np.maximum(norm.unit_std, STD_FLOOR)


def preprocess(norm: Normalizer, values) -> np.ndarray:
    """Full input transform for the Gaussian layer: min-max, then standardize."""
    return standardize(norm, normalize(norm, values))


def split_packets(packets: Packets, fraction: float,
                  window_len: float) -> tuple[Packets, Packets]:
    """Time-ordered train/validation split at a window-aligned boundary.

    Validation timestamps are re-based to start at zero so both halves
    bin from window 0. A timestamp below 0 or not finite is an InputError.
    """
    if not 0.0 < fraction < 1.0:
        raise InputError("split fraction must lie strictly between 0 and 1")
    _check_window_len(window_len)
    packets = _time_ordered(packets)
    if not len(packets):
        return packets, packets
    num_windows = _window_count(packets.ts, window_len)
    boundary = int(num_windows * fraction) * window_len
    train = packets[packets.ts < boundary]
    valid = packets[packets.ts >= boundary]
    valid.ts -= boundary
    return train, valid
