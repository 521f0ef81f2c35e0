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

import contextlib
import csv
import enum
import io
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import load_json, open_text, require_int, require_real
from .errors import InputError

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

# Characters that parse_packets takes from a file as one block, at the
# least (see _text_blocks). A plain block (see _plain_packets) costs a
# fixed number of numpy calls plus a share per row, and needs scratch
# arrays of about ten times its size.
# On the one-hour capture (504k rows, 2 CPUs, 16 alternated runs) the
# parse took 1.12 s with 64 KiB blocks, 0.96 s with 128 KiB, 0.86 s with
# 256 KiB and 0.78 s with 1 MiB; parsing the 60k-row syn10 capture
# peaked at 3.4, 3.5, 4.2 and 11.6 MiB of allocations (3.2 MiB through
# csv.reader alone).
PARSE_BLOCK_CHARS = 1 << 18

# Characters that parse_packets asks a file for at once, as many as a
# text file decodes at a time, so that a block ends near PARSE_BLOCK_CHARS
# and bytes that are not UTF-8 cost at most one read of the text before
# them (see _text_blocks).
_READ_CHARS = 8192

# Rows per chunk that csv.reader hands to _parse_chunk where a block is
# not plain. Its rows are objects the garbage collector tracks, so small
# chunks are faster: the one-hour capture read this way took 1.4-1.6 s
# with 512-row chunks, 2.0 s with 4096-row ones and 2.7 s with 65,536.
_CSV_CHUNK_ROWS = 512

# Rows per chunk that write_packets_csv formats and writes at once, so
# its text and lists are bounded by the chunk, not the capture. On the
# one-hour capture (504k rows, 2 CPUs) chunks of 2048 to 65,536 rows all
# wrote in 0.8-1.0 s; peak RSS of `gen --preset quiet` was 43-45 MB up
# to 16,384 rows and 54.7 MB at 65,536.
WRITE_CHUNK_ROWS = 16384

TCP_SHARE = 0.70                   # remaining traffic: 25% UDP, 5% ICMP
UDP_SHARE = 0.25
SYN_RATE = 0.05                    # fraction of normal TCP packets with SYN set
MIN_PACKET_BYTES = 64
MAX_PACKET_BYTES = 1500
SYN_FLOOD_BYTES = 64
UDP_FLOOD_BYTES = 512
ICMP_FLOOD_BYTES = 64

PACKET_CSV_HEADER = ["timestamp", "src_ip", "dst_ip", "protocol", "length", "syn"]
LABELS_CSV_HEADER = ["window_index", "label"]

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


class Protocol(enum.Enum):
    TCP = "TCP"
    UDP = "UDP"
    ICMP = "ICMP"


# Packets.proto holds codes into PROTOCOLS.
PROTOCOLS = (Protocol.TCP, Protocol.UDP, Protocol.ICMP)
TCP, UDP, ICMP = range(len(PROTOCOLS))
_PROTOCOL_CODES = {protocol.value: code for code, protocol in enumerate(PROTOCOLS)}
_PROTOCOL_NAMES = tuple(protocol.value for protocol in PROTOCOLS)
_INT64_MAX = int(np.iinfo(np.int64).max)


class AttackKind(enum.Enum):
    SYN_FLOOD = "syn_flood"
    UDP_FLOOD = "udp_flood"
    ICMP_FLOOD = "icmp_flood"


@dataclass
class PacketRecord:
    """One packet as a row of Python values; addresses are 32-bit integers."""

    timestamp: float
    src_ip: int
    dst_ip: int
    protocol: Protocol
    length: int
    syn_flag: bool = False


_COLUMN_DTYPES = (np.float64, np.uint32, np.uint32, np.uint8, np.int64, np.bool_)


@dataclass(eq=False)
class Packets:
    """A capture as six aligned columns, one entry per packet.

    ``ts`` seconds (float64), ``src``/``dst`` addresses (uint32),
    ``proto`` codes into PROTOCOLS (uint8), ``length`` bytes (int64) and
    ``syn`` flags (bool). An integer index, and iteration, yield
    PacketRecord rows; any other index (a slice, a mask, an index array)
    selects a Packets.
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

    @classmethod
    def from_records(cls, records) -> "Packets":
        records = list(records)
        return cls(ts=[r.timestamp for r in records], src=[r.src_ip for r in records],
                   dst=[r.dst_ip for r in records],
                   proto=[_PROTOCOL_CODES[r.protocol.value] for r in records],
                   length=[r.length for r in records], syn=[r.syn_flag for r in records])

    @classmethod
    def concatenate(cls, parts) -> "Packets":
        columns = [np.concatenate(c) for c in zip(*(part.columns() for part in parts))]
        return cls(*columns) if columns else cls.from_records([])

    def columns(self) -> tuple:
        return self.ts, self.src, self.dst, self.proto, self.length, self.syn

    def __len__(self) -> int:
        return self.ts.size

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return PacketRecord(float(self.ts[key]), int(self.src[key]), int(self.dst[key]),
                                PROTOCOLS[self.proto[key]], int(self.length[key]),
                                bool(self.syn[key]))
        return Packets(*(column[key] for column in self.columns()))

    def __iter__(self):
        for ts, src, dst, proto, length, syn in zip(*(c.tolist() for c in self.columns())):
            yield PacketRecord(ts, src, dst, PROTOCOLS[proto], length, syn)

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


def _window_count(last: float, window_len: float) -> int:
    """Windows 0..floor(last / window_len), at most MAX_WINDOWS of them."""
    last_index = last // window_len
    if not last_index < MAX_WINDOWS:
        raise InputError(f"last timestamp {last!r} s lies in window {last_index:.0f} of "
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
            if not attack.source_pool >= 1:
                raise InputError(f"attack {k}: source_pool must be >= 1")
            expected += attack.multiplier * self.baseline_rate * (attack.end - attack.start)
        if not expected <= MAX_EXPECTED_PACKETS:
            raise InputError(f"scenario expects {expected:.3g} packets; "
                             f"the limit is {MAX_EXPECTED_PACKETS:.0e}")

    def to_dict(self) -> dict:
        return {
            "duration": self.duration,
            "baseline_rate": self.baseline_rate,
            "diurnal_amplitude": self.diurnal_amplitude,
            "attacks": [
                {"start": a.start, "end": a.end, "kind": a.kind.value,
                 "multiplier": a.multiplier, "source_pool": a.source_pool}
                for a in self.attacks
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
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
            scenario = cls(
                duration=require_real("duration", doc["duration"]),
                baseline_rate=require_real("baseline_rate", doc["baseline_rate"]),
                diurnal_amplitude=require_real("diurnal_amplitude",
                                               doc.get("diurnal_amplitude", 0.0)),
                attacks=attacks,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad scenario document: {exc}") from exc
        scenario.validate()
        return scenario


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


PRESET_NAMES = ("quiet", "syn10", "mixed")


def format_ip(address: int) -> str:
    return (f"{(address >> 24) & 255}.{(address >> 16) & 255}."
            f"{(address >> 8) & 255}.{address & 255}")


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


def _parse_suffix(fields) -> tuple:
    """(protocol code, length, syn flag) of the last three fields of a
    row; raises the ValueError naming the rule that a field breaks."""
    protocol, length, syn = fields
    if protocol not in _PROTOCOL_CODES:
        raise ValueError(f"unknown protocol {protocol!r}")
    value = int(length)
    if value < 1:
        raise ValueError("length must be >= 1")
    if value > _INT64_MAX:
        raise ValueError("length must be < 2**63")
    if syn not in ("0", "1"):
        raise ValueError(f"syn must be 0 or 1, got {syn!r}")
    return _PROTOCOL_CODES[protocol], value, syn == "1"


def _check_row(row, number):
    """The row rules: raise the InputError naming line ``number`` if the
    (non-blank) CSV row breaks one, else return."""
    if len(row) != 6:
        raise InputError(f"line {number}: expected 6 fields, got {len(row)}")
    try:
        timestamp = float(row[0])
        if not (math.isfinite(timestamp) and timestamp >= 0):
            raise ValueError("timestamp must be finite and non-negative")
        parse_ip(row[1])
        parse_ip(row[2])
        _parse_suffix(row[3:])
    except ValueError as exc:
        raise InputError(f"line {number}: {exc}") from None


def _parse_chunk(rows, addresses: _Memo) -> Packets:
    """Columns of a chunk of CSV rows, converted with the same ``float``,
    ``int`` and ``parse_ip`` as _check_row; raises ValueError, KeyError
    or OverflowError if any row breaks a row rule. The rules of the last
    three fields are those of _parse_suffix, checked a column at a time,
    which is faster than a call per row."""
    if not all(rows):
        rows = [row for row in rows if row]   # blank lines are skipped
    if set(map(len, rows)) - {6}:
        raise ValueError("a row does not have 6 fields")
    n = len(rows)
    ts, src, dst, proto, length, syn = list(zip(*rows)) or [()] * 6
    ts = np.fromiter(map(float, ts), np.float64, n)
    length = np.fromiter(map(int, length), np.int64, n)
    if not (np.all(np.isfinite(ts) & (ts >= 0)) and np.all(length >= 1)
            and set(syn) <= {"0", "1"}):
        raise ValueError("a row breaks a timestamp, length or syn rule")
    return Packets(ts=ts,
                   src=np.fromiter(map(addresses.__getitem__, src), np.uint32, n),
                   dst=np.fromiter(map(addresses.__getitem__, dst), np.uint32, n),
                   proto=np.fromiter(map(_PROTOCOL_CODES.__getitem__, proto), np.uint8, n),
                   length=length,
                   syn=np.fromiter(map("1".__eq__, syn), np.bool_, n))


@contextlib.contextmanager
def csv_errors(reader, path=None, lines_before=0):
    """Report a record that ``reader`` (a ``csv.reader``) rejects, such as a
    field over the csv module's size limit, as InputError naming its line
    (and ``path``, when given); ``reader`` starts after ``lines_before``
    lines of its file."""
    try:
        yield
    except csv.Error as exc:
        where = f"{path}: " if path is not None else ""
        raise InputError(f"{where}line {lines_before + reader.line_num}: {exc}") from None


def _parse_rows(reader, first: int, addresses: _Memo, lines_before=0) -> list[Packets]:
    """The packets of the rows of ``reader``, which starts after
    ``lines_before`` lines of the file with row ``first``, converted
    _CSV_CHUNK_ROWS rows at a time. A chunk that breaks a rule is checked
    row by row, so the InputError names the first bad row."""
    chunks = []
    while True:
        with csv_errors(reader, lines_before=lines_before):
            rows = list(itertools.islice(reader, _CSV_CHUNK_ROWS))
        if not rows:
            return chunks
        try:
            chunks.append(_parse_chunk(rows, addresses))
        except (ValueError, KeyError, OverflowError):
            for number, row in enumerate(rows, start=first):
                if row:
                    _check_row(row, number)
            raise
        first += len(rows)


# A plain block keys each address and protocol,length,syn suffix by its
# bytes, zero-filled to _KEY_WIDTH, and gathers each timestamp's bytes,
# zero-filled to _TS_WIDTH. The bytes are read as little-endian words
# through a view with a one-byte stride; _MASKS[k] keeps a word's first
# k bytes.
_KEY_WIDTH = 16
_TS_WIDTH = 32
_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)
_ROW_BITS = 20                      # the low bits of a sorted hash hold its row
_SUFFIX_DTYPE = np.dtype([("proto", np.uint8), ("length", np.int64), ("syn", np.bool_)])


def _field_words(words, start, end, width: int) -> np.ndarray:
    """The bytes [start, end) of each row, zero-filled to ``width`` bytes,
    as rows of little-endian words."""
    length = end - start
    out = np.empty((start.size, width // 8), np.dtype("<u8"))
    for k in range(width // 8):
        out[:, k] = words[start + 8 * k] & _MASKS[np.clip(length - 8 * k, 0, 8)]
    return out


class _FieldTable:
    """The value of each distinct field of earlier blocks of a file, in
    arrays sorted by a hash of the field's bytes, so that a block finds
    the fields it shares with them by numpy alone. Each hash found is
    checked against the bytes stored with it, so two different fields
    never share a value. A field not yet in the table is converted by
    ``convert`` and set aside; the set-aside fields join the table when
    they are as many as it holds, so each table rebuild at least doubles
    it and a file of n distinct fields costs O(n log n), however few of
    its fields repeat. The table ends with a hash above all."""

    def __init__(self, convert, dtype):
        self.convert = convert
        self.digests = np.array([2**64 - 1], np.uint64)
        self.lo = self.hi = np.zeros(1, np.uint64)
        self.values = np.zeros(1, dtype)
        self.pending = []

    def lookup(self, text: str, words, start, end) -> np.ndarray | None:
        """The values of the fields [start, end) of ``text``, or None if a
        hash puts two different fields together; raises what ``convert``
        raises for a field it rejects."""
        keys = _field_words(words, start, end, _KEY_WIDTH)
        lo, hi = keys[:, 0], keys[:, 1]
        n = lo.size
        if n >> _ROW_BITS:
            return None
        # Sorting the hash with the row number in its low bits puts equal
        # hashes together, a stable argsort for the price of a sort.
        packed = np.sort(((lo * _MIX ^ hi) * _MIX >> _ROW_BITS << _ROW_BITS)
                         | np.arange(n, dtype=np.uint64))
        digest = packed >> _ROW_BITS
        row = (packed & ((1 << _ROW_BITS) - 1)).astype(np.intp)
        head = np.empty(n, bool)
        head[0] = True
        np.not_equal(digest[1:], digest[:-1], out=head[1:])
        group = np.empty(n, np.intp)
        group[row] = np.cumsum(head) - 1
        first, digest, lo, hi = row[head], digest[head], lo[row[head]], hi[row[head]]
        if not (np.array_equal(lo[group], keys[:, 0]) and np.array_equal(hi[group], keys[:, 1])):
            return None
        where = np.searchsorted(self.digests, digest)
        known = self.digests[where] == digest
        if not (np.array_equal(self.lo[where[known]], lo[known])
                and np.array_equal(self.hi[where[known]], hi[known])):
            return None
        values = self.values[where]
        new = ~known
        if new.any():
            rows = first[new]
            values[new] = [self.convert(text[a:b])
                           for a, b in zip(start[rows].tolist(), end[rows].tolist())]
            self.pending.append((digest[new], lo[new], hi[new], values[new]))
            if sum(part[0].size for part in self.pending) >= self.digests.size:
                self._merge()
        return values[group]

    def _merge(self):
        """Sort the set-aside fields into the table; of fields with equal
        hashes the first is kept, and lookup rejects a block with another."""
        digests, lo, hi, values = (np.concatenate(column) for column in zip(
            (self.digests, self.lo, self.hi, self.values), *self.pending))
        self.pending = []
        order = np.argsort(digests, kind="stable")
        head = np.empty(order.size, bool)
        head[0] = True
        np.not_equal(digests[order[1:]], digests[order[:-1]], out=head[1:])
        keep = order[head]
        self.digests, self.lo, self.hi, self.values = (digests[keep], lo[keep], hi[keep],
                                                       values[keep])


def _plain_packets(text: str, addresses: _FieldTable,
                   suffixes: _FieldTable) -> Packets | None:
    """The packets of a block of whole lines if it is plain, else None.

    Plain: ASCII with no double quote and no NUL, CR only right before
    LF, five commas on every line (so no blank line), every address and
    suffix at most _KEY_WIDTH bytes and every timestamp at most _TS_WIDTH,
    none beyond the csv field size limit, and every row keeping the row
    rules. csv.reader would split each such line at its five commas, so
    the fields are the same texts, converted by the same functions."""
    if not text.isascii() or '"' in text or "\0" in text:
        return None
    if not text.endswith("\n"):
        text += "\n"
    buf = np.zeros(len(text) + _TS_WIDTH, np.uint8)       # zero-filled past the text
    buf[:len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    n = ends.size
    if commas.size != 5 * n:
        return None
    commas = commas.reshape(n, 5)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if not (np.all(commas[:, 0] >= starts) and np.all(commas[:, 4] < ends)):
        return None
    crlf = buf[ends - 1] == ord("\r")
    if np.count_nonzero(crlf) != np.count_nonzero(buf == ord("\r")):
        return None
    ends = ends - crlf
    c0, c1, c2 = commas[:, 0], commas[:, 1], commas[:, 2]
    ts_width = np.max(c0 - starts)
    key_width = max(np.max(c1 - c0), np.max(c2 - c1), np.max(ends - c2)) - 1
    if (ts_width > _TS_WIDTH or key_width > _KEY_WIDTH
            or max(ts_width, key_width) > csv.field_size_limit()):
        return None
    words = np.ndarray((buf.size - 7,), np.dtype("<u8"), buf, strides=(1,))
    try:
        ts = _field_words(words, starts, c0, _TS_WIDTH).view(f"S{_TS_WIDTH}").ravel()
        ts = np.fromiter(map(float, ts.tolist()), np.float64, n)
        if not np.all(np.isfinite(ts) & (ts >= 0)):
            return None
        address = addresses.lookup(text, words, np.concatenate((c0, c1)) + 1,
                                   np.concatenate((c1, c2)))
        suffix = suffixes.lookup(text, words, c2 + 1, ends)
    except ValueError:
        return None
    if address is None or suffix is None:
        return None
    return Packets(ts=ts, src=address[:n], dst=address[n:], proto=suffix["proto"],
                   length=suffix["length"], syn=suffix["syn"])


def _text_blocks(handle):
    """The text of ``handle`` in blocks of whole lines. It is read
    _READ_CHARS at a time, and a read that ends in CR takes one more
    character, to tell a lone CR from a CRLF. Once PARSE_BLOCK_CHARS are
    in hand, a block runs to the last line end of a read, an LF or a CR
    that no LF follows, and the rest of the read starts the next block.
    The last block holds what follows the last line end. A read that
    meets bytes that are not UTF-8 raises after the lines read before it
    are yielded, so that a bad row among them is reported first, as when
    rows were read a chunk at a time."""
    pieces, size = [], 0
    try:
        while piece := handle.read(_READ_CHARS):
            if piece.endswith("\r"):
                piece += handle.read(1)
            size += len(piece)
            # a CR that still ends the read may yet start a CRLF
            cut = max(piece.rfind("\n"), piece.rfind("\r", 0, len(piece) - 1)) + 1
            if size < PARSE_BLOCK_CHARS or not cut:
                pieces.append(piece)
                continue
            pieces.append(piece[:cut])
            yield "".join(pieces)
            pieces, size = [piece[cut:]], len(piece) - cut
    except UnicodeDecodeError:
        text = "".join(pieces)
        yield text[:max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1]
        raise
    tail = "".join(pieces)
    if tail:
        yield tail


def _lines(blocks):
    """The lines of text blocks, split at CR, LF and CRLF as a file opened
    with newline="" (as csv.reader asks) splits them."""
    return itertools.chain.from_iterable(io.StringIO(text, newline="") for text in blocks)


def _parse_csv(lines, addresses: _Memo) -> list[Packets]:
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


def parse_packets(lines) -> Packets:
    """Read packets from CSV text (an open file or iterable of lines).

    The header must match PACKET_CSV_HEADER exactly; any malformed row
    raises InputError naming its line number. Packets are returned in
    input order, unsorted.

    A file is read in blocks (see _text_blocks). A plain block (see
    _plain_packets) is split into fields by numpy, and its distinct
    addresses and protocol,length,syn suffixes are converted, but for
    those that earlier blocks put in a table (see _FieldTable). Any other block, a block with a row that breaks a rule, and an
    iterable of lines go through csv.reader, whose rows are converted a
    chunk at a time and, if a chunk breaks a rule, checked row by row, so
    the error names the first bad row. After a block with a double quote,
    whose quoted fields may hold line ends, csv.reader reads the rest.
    """
    addresses = _Memo(parse_ip)
    if not hasattr(lines, "read"):
        return Packets.concatenate(_parse_csv(lines, addresses))
    blocks = _text_blocks(lines)
    first = next(blocks, "")
    header, newline, body = first.partition("\n")
    if not newline or header.removesuffix("\r") != ",".join(PACKET_CSV_HEADER):
        return Packets.concatenate(_parse_csv(_lines(itertools.chain([first], blocks)),
                                              addresses))
    tables = (_FieldTable(parse_ip, np.uint32),
              _FieldTable(lambda text: _parse_suffix(text.split(",")), _SUFFIX_DTYPE))
    chunks = []
    number = 2                                  # the row number of the block's first line
    for text in itertools.chain([body], blocks):
        if not text:
            continue
        packets = _plain_packets(text, *tables)
        if packets is not None:
            chunks.append(packets)
            number += len(packets)
        elif '"' in text:
            reader = csv.reader(_lines(itertools.chain([text], blocks)))
            chunks += _parse_rows(reader, number, addresses, number - 1)
            break
        else:
            reader = csv.reader(_lines([text]))   # one record per line
            chunks += _parse_rows(reader, number, addresses, number - 1)
            number += reader.line_num
    return Packets.concatenate(chunks)


def _rows_text(packets: Packets, names: _Memo) -> str:
    """The CSV rows of ``packets``, each ended by CRLF as csv.writer ends
    them. Each distinct address pair and each distinct protocol,length,syn
    suffix is formatted once; per row only the timestamp's repr is new.
    The keys are exact: two 32-bit addresses fill a uint64, and a suffix
    key holds the rank of its length among the distinct lengths above
    the 8-bit protocol code and the syn bit."""
    pairs, pair_of = np.unique((packets.src.astype(np.uint64) << 32) | packets.dst,
                               return_inverse=True)
    lengths, length_of = np.unique(packets.length, return_inverse=True)
    suffixes, suffix_of = np.unique(
        (length_of << 9) | (packets.proto.astype(np.intp) << 1) | packets.syn,
        return_inverse=True)
    lengths = lengths.tolist()
    pair_text = np.array([f",{names[pair >> 32]},{names[pair & 0xFFFFFFFF]},"
                          for pair in pairs.tolist()], dtype=object)
    suffix_text = np.array([f"{_PROTOCOL_NAMES[(key >> 1) & 255]},{lengths[key >> 9]},"
                            f"{key & 1}\r\n" for key in suffixes.tolist()], dtype=object)
    parts = [""] * (3 * len(packets))
    parts[0::3] = map(repr, packets.ts.tolist())
    parts[1::3] = pair_text[pair_of].tolist()
    parts[2::3] = suffix_text[suffix_of].tolist()
    return "".join(parts)


def write_packets_csv(path, packets: Packets):
    """Write a packet CSV that parse_packets reads back as ``packets``.

    The bytes are those of csv.writer: CRLF line ends and ``repr``
    timestamps. No field needs quoting, since none can contain a comma,
    a double quote, CR or LF: addresses are dotted quads, protocols are
    names from PROTOCOLS and the rest are numbers. Rows are formatted and
    written WRITE_CHUNK_ROWS at a time, one join and one write each, so
    memory beyond the columns does not grow with the capture.
    """
    names = _Memo(format_ip)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(PACKET_CSV_HEADER) + "\r\n")
        for start in range(0, len(packets), WRITE_CHUNK_ROWS):
            handle.write(_rows_text(packets[start:start + WRITE_CHUNK_ROWS], names))


def write_labels_csv(path, labels):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LABELS_CSV_HEADER)
        for index, label in enumerate(labels):
            writer.writerow([index, int(label)])


def read_labels_csv(path) -> list[bool]:
    with open_text(path) as handle:
        reader = csv.reader(handle)
        with csv_errors(reader, path):
            header = next(reader, None)
            if header != LABELS_CSV_HEADER:
                raise InputError(f"{path}: bad labels header {header!r}")
            labels = []
            for number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2 or row[1] not in ("0", "1") or not row[0].isdecimal():
                    raise InputError(f"{path}: line {number}: expected index,0/1")
                if int(row[0]) != len(labels):
                    raise InputError(f"{path}: line {number}: window indices must be "
                                     "contiguous from 0")
                labels.append(row[1] == "1")
    return labels


def write_features_csv(path, matrix):
    with open(path, "w", encoding="utf-8", newline="") as handle:
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


def _in_time_order(parts: list[list]) -> Packets:
    """The packets of ``parts``, each a list of the six columns of some
    packets, by timestamp; ties keep their order, as _time_ordered keeps
    it. A column of every part is dropped once it has been copied, so the
    parts and their concatenation are never held in full at once."""
    ts = np.concatenate([part[0] for part in parts])
    order = None if np.all(ts[:-1] <= ts[1:]) else np.argsort(ts, kind="stable")
    columns = []
    for k in range(len(_COLUMN_DTYPES)):
        column = ts if k == 0 else np.concatenate([part[k] for part in parts])
        for part in parts:
            part[k] = None
        columns.append(column if order is None else column[order])
    return Packets(*columns)


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

    num_windows = _window_count(float(packets.ts[-1]), window_len) if len(packets) else 0
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
    MAX_WINDOWS of them is an InputError.
    """
    _check_window_len(window_len)
    packets = _time_ordered(packets)
    if not len(packets):
        return Windows(packets, np.zeros(1, dtype=np.intp))
    count = _window_count(float(packets.ts[-1]), window_len)
    index = np.floor_divide(packets.ts, window_len)
    return Windows(packets, np.searchsorted(index, np.arange(count + 1)))


def _entropies(window: np.ndarray, address: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Per window, the Shannon entropy (bits) of its address distribution
    divided by log2(max(distinct, 2)), so it lies in [0, 1]; 0 for an
    empty window.

    np.unique sorts the (window, address) keys, so each window's terms
    are summed in address order whatever order the packets came in.
    """
    keys, per_key = np.unique((window.astype(np.uint64) << 32) | address,
                              return_counts=True)
    key_window = (keys >> 32).astype(np.intp)
    starts = np.flatnonzero(np.diff(key_window, prepend=-1))
    p = per_key / count[key_window]
    entropy = np.zeros(count.size)
    distinct = np.diff(starts, append=keys.size)
    entropy[key_window[starts]] = ((0.0 - np.add.reduceat(p * np.log2(p), starts))
                                   / np.log2(np.maximum(distinct, 2)))
    return entropy


def feature_matrix(windows: Windows) -> np.ndarray:
    """Per-window features as an (n_windows, 8) matrix in FEATURE_NAMES
    order; an empty window is all zeros.

    Counts are exact; byte counts are float sums, exact below 2**53
    bytes per window. The SYN fraction counts TCP packets only.
    """
    n = len(windows)
    packets = windows.packets
    window = np.repeat(np.arange(n), np.diff(windows.bounds))
    count = np.bincount(window, minlength=n)
    byte_count = np.bincount(window, weights=packets.length, minlength=n)
    seen = count > 0

    def fraction(mask):
        out = np.zeros(n)
        out[seen] = np.bincount(window[mask], minlength=n)[seen] / count[seen]
        return out

    matrix = np.zeros((n, NUM_FEATURES))
    matrix[:, 0] = count
    matrix[:, 1] = byte_count
    matrix[seen, 2] = byte_count[seen] / count[seen]
    matrix[:, 3] = _entropies(window, packets.src, count)
    matrix[:, 4] = _entropies(window, packets.dst, count)
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

    def __post_init__(self):
        for name in ("feat_min", "feat_max", "unit_mean", "unit_std"):
            value = np.array(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(value)):
                raise InputError(f"normalizer {name} contains non-finite entries")
            setattr(self, name, value)
        if np.any(self.feat_max < self.feat_min):
            raise InputError("feat_max must be >= feat_min in every dimension")
        if np.any(self.unit_std < 0):
            raise InputError("unit_std must be non-negative")


STD_FLOOR = 1e-9


def fit_normalizer(matrix) -> Normalizer:
    """Fit scaling statistics on a non-empty (n, features) training matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise InputError("normalizer needs a non-empty 2-d feature matrix")
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
    bin from window 0.
    """
    if not 0.0 < fraction < 1.0:
        raise InputError("split fraction must lie strictly between 0 and 1")
    packets = _time_ordered(packets)
    if not len(packets):
        return packets, packets
    num_windows = _window_count(float(packets.ts[-1]), window_len)
    boundary = int(num_windows * fraction) * window_len
    train = packets[packets.ts < boundary]
    valid = packets[packets.ts >= boundary]
    valid.ts -= boundary
    return train, valid
