"""Packet ingestion, synthetic traffic, windowing and feature extraction.

Traffic is a flat list of per-packet records. Detection operates on
fixed-length time windows; each window is summarized by an 8-dimensional
feature vector (volume, size, address-entropy and protocol-mix
statistics) chosen to move sharply under flood attacks.

The synthetic generator produces labeled normal/attack streams: normal
traffic is a nonhomogeneous Poisson process with a sinusoidal diurnal
rate profile, attacks superimpose homogeneous Poisson floods of a single
packet shape from a pool of spoofed sources.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace

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


class AttackKind(enum.Enum):
    SYN_FLOOD = "syn_flood"
    UDP_FLOOD = "udp_flood"
    ICMP_FLOOD = "icmp_flood"


@dataclass
class PacketRecord:
    """One ingested IP packet; addresses are 32-bit integers."""

    timestamp: float
    src_ip: int
    dst_ip: int
    protocol: Protocol
    length: int
    syn_flag: bool = False


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


def parse_packets(lines) -> list[PacketRecord]:
    """Read packet records from CSV text (an open file or iterable of lines).

    The header must match PACKET_CSV_HEADER exactly; any malformed row
    raises InputError naming its line number. Records are returned in
    input order, unsorted.
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
    records = []
    for number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise InputError(f"line {number}: expected 6 fields, got {len(row)}")
        try:
            timestamp = float(row[0])
            if not (math.isfinite(timestamp) and timestamp >= 0):
                raise ValueError("timestamp must be finite and non-negative")
            src = parse_ip(row[1])
            dst = parse_ip(row[2])
            try:
                protocol = Protocol(row[3])
            except ValueError:
                raise ValueError(f"unknown protocol {row[3]!r}") from None
            length = int(row[4])
            if length < 1:
                raise ValueError("length must be >= 1")
            if row[5] not in ("0", "1"):
                raise ValueError(f"syn must be 0 or 1, got {row[5]!r}")
            syn = row[5] == "1"
        except ValueError as exc:
            raise InputError(f"line {number}: {exc}") from None
        records.append(PacketRecord(timestamp=timestamp, src_ip=src, dst_ip=dst,
                                    protocol=protocol, length=length, syn_flag=syn))
    return records


def write_packets_csv(path, records):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PACKET_CSV_HEADER)
        for r in records:
            writer.writerow([repr(r.timestamp), format_ip(r.src_ip),
                             format_ip(r.dst_ip), r.protocol.value, r.length,
                             int(r.syn_flag)])


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


def write_features_csv(path, feature_rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window_index", *FEATURE_NAMES])
        for index, row in enumerate(feature_rows):
            values = row.as_array() if isinstance(row, FeatureVector) else np.asarray(row)
            writer.writerow([index, *[repr(float(x)) for x in values]])


def _poisson_arrivals(rng, rate: float, start: float, end: float) -> np.ndarray:
    """Homogeneous Poisson arrival times on [start, end)."""
    count = rng.poisson(rate * (end - start))
    return start + (end - start) * np.sort(rng.random(count))


def generate_traffic(scenario: Scenario, rng: np.random.Generator,
                     window_len: float = 1.0) -> tuple[list[PacketRecord], list[bool]]:
    """Generate one labeled capture.

    Normal traffic arrives as a thinned Poisson process with rate
    baseline_rate * (1 + diurnal_amplitude * sin(2*pi*t/duration)),
    uniform packet sizes in [64, 1500], sources from the 256-address
    client pool and a 70/25/5 TCP/UDP/ICMP mix with 5% of TCP carrying
    SYN. Each attack adds a homogeneous flood at multiplier * baseline
    of its fixed packet shape, aimed at the victim address from spoofed
    sources.

    Returns records sorted by timestamp and one label per window of
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

    records = []
    for k in range(n):
        if proto_draw[k] < TCP_SHARE:
            protocol = Protocol.TCP
            syn = bool(syn_draw[k] < SYN_RATE)
        elif proto_draw[k] < TCP_SHARE + UDP_SHARE:
            protocol = Protocol.UDP
            syn = False
        else:
            protocol = Protocol.ICMP
            syn = False
        records.append(PacketRecord(timestamp=float(times[k]), src_ip=int(src[k]),
                                    dst_ip=int(dst[k]), protocol=protocol,
                                    length=int(lengths[k]), syn_flag=syn))

    flood_shape = {
        AttackKind.SYN_FLOOD: (Protocol.TCP, SYN_FLOOD_BYTES, True),
        AttackKind.UDP_FLOOD: (Protocol.UDP, UDP_FLOOD_BYTES, False),
        AttackKind.ICMP_FLOOD: (Protocol.ICMP, ICMP_FLOOD_BYTES, False),
    }
    for attack in scenario.attacks:
        protocol, size, syn = flood_shape[attack.kind]
        flood_times = _poisson_arrivals(rng, attack.multiplier * base,
                                        attack.start, attack.end)
        flood_src = SPOOF_SRC_BASE + rng.integers(0, attack.source_pool,
                                                  flood_times.size)
        for k in range(flood_times.size):
            records.append(PacketRecord(timestamp=float(flood_times[k]),
                                        src_ip=int(flood_src[k]), dst_ip=VICTIM_IP,
                                        protocol=protocol, length=size,
                                        syn_flag=syn))

    records.sort(key=lambda r: r.timestamp)

    if records:
        num_windows = int(records[-1].timestamp // window_len) + 1
    else:
        num_windows = 0
    labels = []
    for index in range(num_windows):
        lo, hi = index * window_len, (index + 1) * window_len
        labels.append(any(lo < a.end and hi > a.start for a in scenario.attacks))
    return records, labels


def windowize(records, window_len: float) -> list[tuple[int, list[PacketRecord]]]:
    """Bin records into contiguous windows of ``window_len`` seconds.

    A record with timestamp t lands in window floor(t / window_len).
    Windows run from 0 through the last non-empty index with empty
    windows kept, so indices line up with label files.
    """
    if not window_len > 0:
        raise InputError("window_len must be positive")
    if not records:
        return []
    ordered = sorted(records, key=lambda r: r.timestamp)
    last = int(ordered[-1].timestamp // window_len)
    buckets: list[list[PacketRecord]] = [[] for _ in range(last + 1)]
    for record in ordered:
        buckets[int(record.timestamp // window_len)].append(record)
    return list(enumerate(buckets))


def _normalized_entropy(counts: Counter, total: int) -> float:
    """Shannon entropy (bits) over the empirical address distribution,
    divided by log2(max(distinct, 2)) so the result lies in [0, 1].

    Terms are accumulated in sorted key order so the sum is exactly
    invariant to the order packets were seen in.
    """
    entropy = 0.0
    for key in sorted(counts):
        p = counts[key] / total
        entropy -= p * math.log2(p)
    return entropy / math.log2(max(len(counts), 2))


def extract_features(records) -> FeatureVector:
    """Summarize one window of packets; an empty window is all zeros."""
    count = len(records)
    if count == 0:
        return FeatureVector(*([0.0] * NUM_FEATURES))
    byte_count = 0
    syn = udp = icmp = 0
    src_counts: Counter = Counter()
    dst_counts: Counter = Counter()
    for record in records:
        byte_count += record.length
        src_counts[record.src_ip] += 1
        dst_counts[record.dst_ip] += 1
        if record.protocol is Protocol.TCP:
            if record.syn_flag:
                syn += 1
        elif record.protocol is Protocol.UDP:
            udp += 1
        else:
            icmp += 1
    return FeatureVector(
        packet_count=float(count),
        byte_count=float(byte_count),
        mean_packet_size=byte_count / count,
        src_ip_entropy=_normalized_entropy(src_counts, count),
        dst_ip_entropy=_normalized_entropy(dst_counts, count),
        syn_fraction=syn / count,
        udp_fraction=udp / count,
        icmp_fraction=icmp / count,
    )


def feature_matrix(windows) -> np.ndarray:
    """Stack per-window features into an (n_windows, 8) matrix."""
    return np.array([extract_features(records).as_array() for _, records in windows],
                    dtype=np.float64).reshape(len(windows), NUM_FEATURES)


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
            setattr(self, name, np.array(getattr(self, name), dtype=np.float64))
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


def split_packets(records, fraction: float,
                  window_len: float) -> tuple[list[PacketRecord], list[PacketRecord]]:
    """Time-ordered train/validation split at a window-aligned boundary.

    Validation timestamps are re-based to start at zero so both halves
    bin from window 0.
    """
    if not 0.0 < fraction < 1.0:
        raise InputError("split fraction must lie strictly between 0 and 1")
    if not records:
        return [], []
    ordered = sorted(records, key=lambda r: r.timestamp)
    num_windows = int(ordered[-1].timestamp // window_len) + 1
    boundary = int(num_windows * fraction) * window_len
    train = [r for r in ordered if r.timestamp < boundary]
    valid = [replace(r, timestamp=r.timestamp - boundary)
             for r in ordered if r.timestamp >= boundary]
    return train, valid
