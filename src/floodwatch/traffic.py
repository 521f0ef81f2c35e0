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
import itertools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import require_int, require_real
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

# Rows per chunk that the CSV parser transposes into columns. Small
# chunks keep the rows the garbage collector tracks at any one time
# few: the one-hour capture (504k rows, 2 CPUs) parsed in 1.2-1.3 s
# with 512-row chunks and 2.5-2.8 s with 65,536-row ones; 256 and
# 1024 were within noise of 512.
PARSE_CHUNK_ROWS = 512

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


def _as_packets(packets) -> Packets:
    """A Packets as is; a sequence of PacketRecord rows converted once."""
    return packets if isinstance(packets, Packets) else Packets.from_records(packets)


def _time_ordered(packets: Packets) -> Packets:
    """The packets by timestamp; ties keep their input order."""
    ts = packets.ts
    if np.all(ts[:-1] <= ts[1:]):
        return packets
    return packets[np.argsort(ts, kind="stable")]


def _window_count(last: float, window_len: float) -> int:
    """Windows 0..floor(last / window_len), at most MAX_WINDOWS of them."""
    last_index = last // window_len
    if not last_index < MAX_WINDOWS:
        raise InputError(f"last timestamp {last!r} s lies in window {last_index:.0f} of "
                         f"{window_len!r} s; at most {MAX_WINDOWS} windows from t = 0 "
                         "are supported")
    return int(last_index) + 1


@dataclass
class FeatureVector:
    """Per-window traffic statistics; entropies are normalized to [0, 1]."""

    packet_count: float
    byte_count: float
    mean_packet_size: float
    src_ip_entropy: float
    dst_ip_entropy: float
    syn_fraction: float
    udp_fraction: float
    icmp_fraction: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES])


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
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON: {exc}") from exc
    return Scenario.from_dict(doc)


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


def _parse_chunk(rows, addresses: _Memo) -> Packets:
    """Columns of a chunk of CSV rows, converted with the same ``float``,
    ``int`` and ``parse_ip`` as _check_row; raises ValueError, KeyError
    or OverflowError if any row breaks a row rule."""
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


def parse_packets(lines) -> Packets:
    """Read packets from CSV text (an open file or iterable of lines).

    The header must match PACKET_CSV_HEADER exactly; any malformed row
    raises InputError naming its line number. Packets are returned in
    input order, unsorted. Rows are transposed into columns a chunk at a
    time; a chunk that breaks a rule is checked row by row, so the error
    names the first bad row.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty input: missing CSV header") from None
    if header != PACKET_CSV_HEADER:
        raise InputError(
            f"bad header {header!r}; expected {','.join(PACKET_CSV_HEADER)}"
        )
    addresses = _Memo(parse_ip)
    chunks = []
    for first in itertools.count(2, PARSE_CHUNK_ROWS):
        rows = list(itertools.islice(reader, PARSE_CHUNK_ROWS))
        if not rows:
            break
        try:
            chunks.append(_parse_chunk(rows, addresses))
        except (ValueError, KeyError, OverflowError):
            for number, row in enumerate(rows, start=first):
                if row:
                    _check_row(row, number)
            raise
    return Packets.concatenate(chunks)


def write_packets_csv(path, packets):
    packets = _as_packets(packets)
    names = _Memo(format_ip)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PACKET_CSV_HEADER)
        writer.writerows(zip(map(repr, packets.ts.tolist()),
                             map(names.__getitem__, packets.src.tolist()),
                             map(names.__getitem__, packets.dst.tolist()),
                             map(_PROTOCOL_NAMES.__getitem__, packets.proto.tolist()),
                             packets.length.tolist(),
                             packets.syn.astype(np.uint8).tolist()))


def write_labels_csv(path, labels):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LABELS_CSV_HEADER)
        for index, label in enumerate(labels):
            writer.writerow([index, int(label)])


def read_labels_csv(path) -> list[bool]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
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
    count = rng.poisson(rate * (end - start))
    return start + (end - start) * np.sort(rng.random(count))


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
    if not window_len > 0:
        raise InputError("window_len must be positive")
    base = scenario.baseline_rate
    amplitude = scenario.diurnal_amplitude
    duration = scenario.duration

    peak = base * (1.0 + amplitude)
    raw_times = _poisson_arrivals(rng, peak, 0.0, duration)
    rate = base * (1.0 + amplitude * np.sin(2.0 * np.pi * raw_times / duration))
    keep = rng.random(raw_times.size) < rate / peak
    times = raw_times[keep]
    n = times.size

    src = LEGIT_SRC_BASE + rng.integers(0, LEGIT_SRC_POOL, n)
    dst = SERVER_BASE + rng.integers(0, SERVER_POOL, n)
    proto_draw = rng.random(n)
    lengths = rng.integers(MIN_PACKET_BYTES, MAX_PACKET_BYTES + 1, n)
    syn_draw = rng.random(n)
    proto = np.where(proto_draw < TCP_SHARE, TCP,
                     np.where(proto_draw < TCP_SHARE + UDP_SHARE, UDP, ICMP))
    parts = [Packets(ts=times, src=src, dst=dst, proto=proto, length=lengths,
                     syn=(proto == TCP) & (syn_draw < SYN_RATE))]

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
        flood_src = SPOOF_SRC_BASE + rng.integers(0, attack.source_pool, m)
        parts.append(Packets(ts=flood_times, src=flood_src, dst=np.full(m, VICTIM_IP),
                             proto=np.full(m, code), length=np.full(m, size),
                             syn=np.full(m, syn)))

    packets = _time_ordered(Packets.concatenate(parts))

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


def windowize(packets, window_len: float) -> Windows:
    """Bin packets into contiguous windows of ``window_len`` seconds.

    A packet with timestamp t lands in window floor(t / window_len).
    Windows run from 0 through the last non-empty index with empty
    windows kept, so indices line up with label files; more than
    MAX_WINDOWS of them is an InputError.
    """
    if not window_len > 0:
        raise InputError("window_len must be positive")
    packets = _time_ordered(_as_packets(packets))
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


def extract_features(packets) -> FeatureVector:
    """Summarize one window of packets: feature_matrix with every packet
    in window 0, whatever its timestamp."""
    packets = _as_packets(packets)
    window = Windows(packets, np.array([0, len(packets)]))
    return FeatureVector(*feature_matrix(window)[0].tolist())


@dataclass
class Normalizer:
    """Feature scaling fitted on training windows only.

    ``feat_min``/``feat_max`` drive clamped min-max scaling into [0, 1];
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
    clipped = np.clip(values, feat_min, feat_max)
    return np.where(span > 0, (clipped - feat_min) / np.where(span > 0, span, 1.0), 0.5)


def normalize(norm: Normalizer, values) -> np.ndarray:
    """Clamped min-max scaling into [0, 1]; constant dimensions map to 0.5."""
    values = np.asarray(values, dtype=np.float64)
    return _minmax(values, norm.feat_min, norm.feat_max)


def standardize(norm: Normalizer, unit_values) -> np.ndarray:
    """Zero-mean unit-variance transform of min-max-scaled values."""
    unit_values = np.asarray(unit_values, dtype=np.float64)
    return (unit_values - norm.unit_mean) / np.maximum(norm.unit_std, STD_FLOOR)


def preprocess(norm: Normalizer, values) -> np.ndarray:
    """Full input transform for the Gaussian layer: min-max, then standardize."""
    return standardize(norm, normalize(norm, values))


def split_packets(packets, fraction: float,
                  window_len: float) -> tuple[Packets, Packets]:
    """Time-ordered train/validation split at a window-aligned boundary.

    Validation timestamps are re-based to start at zero so both halves
    bin from window 0.
    """
    if not 0.0 < fraction < 1.0:
        raise InputError("split fraction must lie strictly between 0 and 1")
    packets = _time_ordered(_as_packets(packets))
    if not len(packets):
        return packets, packets
    num_windows = _window_count(float(packets.ts[-1]), window_len)
    boundary = int(num_windows * fraction) * window_len
    train = packets[packets.ts < boundary]
    valid = packets[packets.ts >= boundary]
    valid.ts -= boundary
    return train, valid
