"""The text of packet CSV rows, laid out by numpy for
traffic.write_packets_csv.

Each field of a row is written into fixed columns of a byte array padded
with NUL, which no row holds, and the NULs are dropped. A timestamp on
the grid of traffic.TIMESTAMP_PLACES decimal places is written with
exactly that many digits after the dot.
"""

from __future__ import annotations

import numpy as np

from .traffic import _POW10_U64, _TICKS, PROTOCOLS, TIMESTAMP_PLACES, Packets

# Text tables: each address octet with the byte after it, each protocol
# name with its comma and the syn field with the line end. The bytes past
# a text are NUL.
_OCTET_TEXT = np.array([b"%d%s" % (k, end) for end in (b".", b",")
                        for k in range(256)]).view(np.uint32)
_OCTET_ENDS = np.array([0, 0, 0, 256])         # the last octet of an address ends in a comma
_PROTOCOL_TEXT = np.array([name.encode() + b"," for name in PROTOCOLS])
_SYN_TEXT = np.array([b",0\r\n", b",1\r\n"])
_QUAD_TEXT = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                      axis=-1).view(np.uint32).ravel()                       # "0000" to "9999"
# Row k of _LAST holds the last k of 20 columns.
_LAST = np.arange(20) >= 20 - np.arange(21)[:, None]


def _digit_columns(values, width: int) -> np.ndarray:
    """The digits of each uint64 of ``values``, zero-filled on the left to
    ``width`` places (a multiple of 4), as ASCII bytes in a (rows, width)
    array; ``values`` is overwritten."""
    text = np.empty((values.size, width // 4), np.uint32)
    group = np.empty_like(values)
    for index in range(width // 4 - 1, -1, -1):
        np.divmod(values, np.uint64(10000), out=(values, group))
        np.take(_QUAD_TEXT, group, out=text[:, index])
    return text.view(np.uint8)


def _natural_columns(values) -> np.ndarray:
    """The str of each uint64 of ``values`` as ASCII bytes, as rows of a
    (rows, width) array padded with NUL; ``values`` is overwritten."""
    places = np.searchsorted(_POW10_U64[1:], values, side="right") + 1
    digits = _digit_columns(values, -(-int(places.max(initial=1)) // 4) * 4)
    digits *= np.take(_LAST[:, 20 - digits.shape[1]:], places, axis=0)
    return digits


def _timestamp_columns(x) -> np.ndarray:
    """Each timestamp of ``x`` as ASCII bytes, as rows of a (rows, width)
    array padded with NUL.

    A timestamp on the grid, one whose u = rint(x * 10**TIMESTAMP_PLACES)
    lies below 2**53 with u / 10**TIMESTAMP_PLACES == x and the sign bit
    clear, is written as u's whole part, the dot and TIMESTAMP_PLACES
    digits ("%d.%06d"). u and the power of ten are exact doubles, so that
    quotient is the text's value correctly rounded, which is what float
    reads. repr writes every other timestamp (-0.0, negative, non-finite
    or off the grid), and float reads that back as the same double too."""
    with np.errstate(over="ignore"):
        ticks = x * _TICKS
    np.rint(ticks, out=ticks)
    grid = ticks < 2.0**53
    grid &= ticks / _TICKS == x
    grid &= ~np.signbit(x)
    ticks[~grid] = 0
    whole, fraction = np.divmod(ticks.astype(np.uint64), np.uint64(_TICKS))
    padded = -(-TIMESTAMP_PLACES // 4) * 4
    parts = [_natural_columns(whole), np.full((x.size, 1), ord("."), np.uint8),
             _digit_columns(fraction, padded)[:, padded - TIMESTAMP_PLACES:]]
    others = np.flatnonzero(~grid)
    slow = np.array([repr(value).encode() for value in x[others].tolist()], "S")
    width = sum(part.shape[1] for part in parts)
    if slow.itemsize > width:
        parts.append(np.zeros((x.size, slow.itemsize - width), np.uint8))
    text = np.concatenate(parts, axis=1)
    text[others] = 0
    text[others, :slow.itemsize] = slow.view(np.uint8).reshape(others.size, slow.itemsize)
    return text


def _integer_columns(values) -> np.ndarray:
    """The str of each int64 of ``values`` as ASCII bytes, as rows of a
    (rows, width) array padded with NUL."""
    rest = values.view(np.uint64).copy()
    negative = values < 0
    np.negative(rest, out=rest, where=negative)   # modulo 2**64, so -2**63 too
    return np.concatenate([(negative * np.uint8(ord("-")))[:, None], _natural_columns(rest)],
                          axis=1)


def chunk_bytes(packets: Packets) -> bytes:
    """The CSV rows of ``packets`` as bytes, each ended by CRLF as
    csv.writer ends them: the row's fields laid out in fixed columns
    (see _timestamp_columns and _integer_columns) with the NUL padding
    dropped."""
    n = len(packets)
    stamp, length = _timestamp_columns(packets.ts), _integer_columns(packets.length)
    text = np.empty((n, stamp.shape[1] + 38 + length.shape[1] + 4), np.uint8)
    fields = np.split(text, np.cumsum([stamp.shape[1], 1, 32, 5, length.shape[1]]), axis=1)
    fields[0][:] = stamp
    fields[1].fill(ord(","))
    for address, columns in zip((packets.src, packets.dst), np.split(fields[2], 2, axis=1)):
        octets = address.astype(">u4").view(np.uint8).reshape(n, 4).astype(np.intp)
        octets += _OCTET_ENDS
        columns[:] = np.take(_OCTET_TEXT, octets).view(np.uint8).reshape(n, 16)
    fields[3][:] = np.take(_PROTOCOL_TEXT, packets.proto).view(np.uint8).reshape(n, 5)
    fields[4][:] = length
    fields[5][:] = np.take(_SYN_TEXT, packets.syn.view(np.uint8)).view(np.uint8).reshape(n, 4)
    del stamp, length, fields                   # the row array, its bytes and the rows, in turn
    data = text.tobytes()
    del text
    return data.translate(None, b"\0")
