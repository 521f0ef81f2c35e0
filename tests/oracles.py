"""Independent reference implementations used as test oracles.

Everything here is written with plain Python loops and the math module,
deliberately avoiding the vectorized code paths under test. Slow is
fine; these run on tiny instances.
"""

import csv
import math
from collections import Counter

from floodwatch.errors import InputError


def naive_energy_bernoulli(w, b, a, v, h):
    """-sum_ij w_ij v_i h_j - sum_i b_i v_i - sum_j a_j h_j by direct loops."""
    total = 0.0
    for i in range(len(v)):
        for j in range(len(h)):
            total -= w[i][j] * v[i] * h[j]
    for i in range(len(v)):
        total -= b[i] * v[i]
    for j in range(len(h)):
        total -= a[j] * h[j]
    return total


def naive_energy_gaussian(w, b, a, v, h):
    """Gaussian-visible energy with the positive quadratic term."""
    total = 0.0
    for i in range(len(v)):
        for j in range(len(h)):
            total -= w[i][j] * v[i] * h[j]
    for i in range(len(v)):
        total += 0.5 * (v[i] - b[i]) ** 2
    for j in range(len(h)):
        total -= a[j] * h[j]
    return total


def _binary_vectors(n):
    for mask in range(2 ** n):
        yield [(mask >> k) & 1 for k in range(n)]


def enum_hidden_conditional(w, b, a, v):
    """p(h_j = 1 | v) for each j by enumerating exp(-E) over all hidden states.

    The partition function cancels inside the conditional, so only the
    2^H states sharing this v are needed.
    """
    num_hidden = len(a)
    numer = [0.0] * num_hidden
    denom = 0.0
    for h in _binary_vectors(num_hidden):
        weight = math.exp(-naive_energy_bernoulli(w, b, a, v, h))
        denom += weight
        for j in range(num_hidden):
            if h[j] == 1:
                numer[j] += weight
    return [n / denom for n in numer]


def enum_visible_conditional(w, b, a, h):
    """p(v_i = 1 | h) for a Bernoulli RBM by enumerating visible states."""
    num_visible = len(b)
    numer = [0.0] * num_visible
    denom = 0.0
    for v in _binary_vectors(num_visible):
        weight = math.exp(-naive_energy_bernoulli(w, b, a, v, h))
        denom += weight
        for i in range(num_visible):
            if v[i] == 1:
                numer[i] += weight
    return [n / denom for n in numer]


def _sig(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def naive_lstm_cell(w_f, w_i, w_c, w_o, b_f, b_i, b_c, b_o, x, h_prev, c_prev):
    """Gate-by-gate LSTM step, scalar loops over [h_prev, x] concatenation.

    Returns (h, c, f, i, c_tilde, o) as plain lists.
    """
    hidden = len(h_prev)
    z = list(h_prev) + list(x)

    def affine(mat, bias, row):
        total = bias[row]
        for k in range(len(z)):
            total += mat[row][k] * z[k]
        return total

    f = [_sig(affine(w_f, b_f, r)) for r in range(hidden)]
    i = [_sig(affine(w_i, b_i, r)) for r in range(hidden)]
    c_tilde = [math.tanh(affine(w_c, b_c, r)) for r in range(hidden)]
    c = [f[r] * c_prev[r] + i[r] * c_tilde[r] for r in range(hidden)]
    o = [_sig(affine(w_o, b_o, r)) for r in range(hidden)]
    h = [o[r] * math.tanh(c[r]) for r in range(hidden)]
    return h, c, f, i, c_tilde, o


def naive_mse(pred, target):
    """Mean over all steps and dimensions of the squared difference."""
    total = 0.0
    count = 0
    for p_row, t_row in zip(pred, target):
        for p, t in zip(p_row, t_row):
            total += (p - t) ** 2
            count += 1
    return total / count


def naive_mean_std(values):
    """Mean and population standard deviation by the two-pass formula."""
    n = len(values)
    mean = sum(values) / n
    var = sum((x - mean) ** 2 for x in values) / n
    return mean, math.sqrt(var)


def naive_entropy_normalized(counts):
    """Shannon entropy (bits) of a count histogram over log2(max(k, 2))."""
    total = sum(counts)
    bits = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            bits -= p * math.log2(p)
    return bits / math.log2(max(len([c for c in counts if c > 0]), 2))


def _naive_parse_ip(text):
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or not 0 <= int(part) <= 255:
            raise ValueError(f"bad address octet in {text!r}")
        value = (value << 8) | int(part)
    return value


def naive_parse_packets(lines):
    """Packet CSV row by row: a list of (timestamp, src, dst, protocol
    name, length, syn) tuples, or InputError naming the first bad line.

    The header has 6 named columns; blank rows are skipped; a length
    must lie in [1, 2**63 - 1]; a record csv.reader rejects names the
    line it was reading.
    """
    reader = csv.reader(lines)
    try:
        return _naive_rows(reader)
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from None


def _naive_rows(reader):
    header = next(reader, None)
    if header != ["timestamp", "src_ip", "dst_ip", "protocol", "length", "syn"]:
        raise InputError(f"bad header {header!r}")
    rows = []
    for number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise InputError(f"line {number}: expected 6 fields, got {len(row)}")
        try:
            timestamp = float(row[0])
            if not (math.isfinite(timestamp) and timestamp >= 0):
                raise ValueError("timestamp must be finite and non-negative")
            src = _naive_parse_ip(row[1])
            dst = _naive_parse_ip(row[2])
            if row[3] not in ("TCP", "UDP", "ICMP"):
                raise ValueError(f"unknown protocol {row[3]!r}")
            length = int(row[4])
            if not 1 <= length <= 2 ** 63 - 1:
                raise ValueError("length out of range")
            if row[5] not in ("0", "1"):
                raise ValueError(f"syn must be 0 or 1, got {row[5]!r}")
        except ValueError as exc:
            raise InputError(f"line {number}: {exc}") from None
        rows.append((timestamp, src, dst, row[3], length, row[5] == "1"))
    return rows


def _naive_format_ip(address):
    return ".".join(str((address >> shift) & 255) for shift in (24, 16, 8, 0))


def naive_write_packets_csv(path, packets):
    """Packet CSV through csv.writer, one row per packet: repr timestamps,
    dotted-quad addresses, protocol names, lengths and syn as 0/1."""
    names = ("TCP", "UDP", "ICMP")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "src_ip", "dst_ip", "protocol", "length", "syn"])
        for ts, src, dst, proto, length, syn in zip(*(c.tolist() for c in packets.columns())):
            writer.writerow([repr(ts), _naive_format_ip(src), _naive_format_ip(dst),
                             names[proto], length, int(syn)])


def naive_window_features(records):
    """The 8 window features of PacketRecord-like rows, by Counter loops:
    count, bytes, mean size, src and dst entropy, SYN (TCP only), UDP
    and ICMP fractions; all zeros for no rows."""
    count = len(records)
    if count == 0:
        return [0.0] * 8
    byte_count = syn = udp = icmp = 0
    src_counts = Counter()
    dst_counts = Counter()
    for record in records:
        byte_count += record.length
        src_counts[record.src_ip] += 1
        dst_counts[record.dst_ip] += 1
        if record.protocol.value == "TCP":
            syn += bool(record.syn_flag)
        elif record.protocol.value == "UDP":
            udp += 1
        else:
            icmp += 1
    return [float(count), float(byte_count), byte_count / count,
            naive_entropy_normalized([src_counts[k] for k in sorted(src_counts)]),
            naive_entropy_normalized([dst_counts[k] for k in sorted(dst_counts)]),
            syn / count, udp / count, icmp / count]
