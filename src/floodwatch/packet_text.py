"""The text of packet CSV rows, laid out by numpy for
traffic.write_packets_csv.

Each field of a row is written into fixed columns of a byte array padded
with NUL, which no row holds, and the NULs are dropped. A timestamp's
digits are the ones repr writes, found with the parser's own long double
arithmetic (traffic._quotients); repr writes the few it cannot prove.
"""

from __future__ import annotations

import numpy as np

from . import traffic
from .traffic import _POW10_LD, PROTOCOLS, Packets, _quotients, _Scratch

# Text tables: each address octet with the byte after it, each protocol
# name with its comma, the syn field with the line end, and what comes
# before the digits of a timestamp below 1, by its decimal exponent. The
# bytes past a text are NUL.
_OCTET_TEXT = np.array([b"%d%s" % (k, end) for end in (b".", b",")
                        for k in range(256)]).view(np.uint32)
_OCTET_ENDS = np.array([0, 0, 0, 256])         # the last octet of an address ends in a comma
_PROTOCOL_TEXT = np.array([name.encode() + b"," for name in PROTOCOLS])
_SYN_TEXT = np.array([b",0\r\n", b",1\r\n"])
_LEAD_TEXT = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000"])          # by -e, at most 4
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)
_QUAD_TEXT = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                      axis=-1).view(np.uint32).ravel()                       # "0000" to "9999"
# Row k of _FIRST holds the first k of 20 columns, and of _LAST the last k.
_FIRST = np.arange(20) < np.arange(21)[:, None]
_LAST = _FIRST[:, ::-1].copy()
# One long double rounding errs by at most this fraction of its result.
_UNIT_ROUNDOFF = float(np.finfo(np.longdouble).eps / 2)


def _shortest_digits(s: _Scratch, x) -> tuple:
    """For each x of ``x``: whether its repr is proved here, and the digits
    D, their count L and the decimal exponent e with which repr writes it,
    x being about D * 10**(e + 1 - L). The values of rows not proved mean
    nothing.

    repr writes the shortest digit string that reads back as x, and of
    those the nearest; for a finite x in [1e-4, 1e16) it writes e + 1
    digits before the dot (or "0." and -1 - e zeros for e < 0), and those
    x are the ones proved here. D_17 = rint(x * 10**(16 - e)) in long
    double is the nearest 17-digit number, and 17 digits always read back.
    D_L, the nearest L-digit number, is D_17 rounded to L digits, a tie
    broken by the sign of the product's remainder. Its digit string reads
    back as x where _quotients, the parser's own arithmetic, rounds D_L /
    10**(L - 1 - e) to x without a halfway flag. D_L is nearer x than any
    other L digits, and L + 1 digits include it, so the search goes down
    from L = 16 until D_L fails, or stops at the whole number, L = e + 1.

    That holds where the doubles next to x are equally far from it, which
    they are not at a power of two: those go to repr. So does a row whose
    product, below 10**17 and so off by less than _UNIT_ROUNDOFF * 10**17,
    lies that close to a half-integer, where rint may round it otherwise
    than the exact product, or (for L < 17) whose remainder lies that
    close to 0 where L digits end halfway; and a row that _quotients flags.
    """
    n = x.size
    proved = np.greater_equal(x, 1e-4)
    proved &= np.less(x, 1e16)
    proved &= np.frexp(x)[0] != 0.5
    if not traffic._EXACT_QUOTIENTS:            # read at each call, as the parser reads it
        proved.fill(False)
    x = np.where(proved, x, 1.5)                # so that the others compute harmlessly
    wide = x.astype(np.longdouble)
    # log10 may be one off next to a power of ten, and then D_17 has 16 or 18 digits
    exponent = np.floor(np.log10(x)).astype(np.intp)
    np.clip(exponent, -4, 16, out=exponent)
    product = wide * _POW10_LD[16 - exponent]
    rounded = np.rint(product)
    off = np.flatnonzero((rounded >= 1e17) | (rounded < 1e16))
    exponent[off] += np.where(rounded[off] >= 1e17, 1, -1)
    np.clip(exponent, -4, 15, out=exponent)
    product[off] = wide[off] * _POW10_LD[16 - exponent[off]]
    rounded[off] = np.rint(product[off])
    proved &= (rounded >= 1e16) & (rounded < 1e17)
    guard = _UNIT_ROUNDOFF * 1e17
    rest = (product - rounded).astype(np.float64)   # the remainder of D_17, to within guard
    proved &= np.abs(rest) < 0.5 - guard
    seventeen = rounded.astype(np.uint64)
    digits = seventeen.copy()
    count = np.full(n, 17, np.intp)
    live = np.flatnonzero(proved)
    for length in range(16, 0, -1):
        live = live[exponent[live] < length]
        if not live.size:
            break
        half = _POW10_U64[17 - length] // 2
        cut, below = np.divmod(seventeen[live], _POW10_U64[17 - length])
        tie = below == half
        unsure = tie & (np.abs(rest[live]) <= guard)
        tie &= rest[live] > 0
        tie |= below > half
        cut += tie
        unsure |= cut >= _POW10_U64[length]
        back = np.empty(live.size)
        unsure |= _quotients(s, cut.astype(np.longdouble), length - 1 - exponent[live], back,
                             np.empty(live.size, bool))
        proved[live[unsure]] = False
        good = back == x[live]
        good &= ~unsure
        live = live[good]
        digits[live] = cut[good]
        count[live] = length
    return proved, digits, count, exponent


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


def _timestamp_columns(s: _Scratch, x) -> np.ndarray:
    """The repr of each timestamp of ``x`` as ASCII bytes, as rows of a
    (rows, width) array padded with NUL. A row that _shortest_digits
    proves is laid out from D_L: for e >= 0 its e + 1 whole digits, the
    dot and the L - 1 - e after it, or "0" if there are none; for e < 0
    "0.", -1 - e zeros and the L digits. repr writes the other rows."""
    proved, digits, count, exponent = _shortest_digits(s, x)
    n = x.size
    below = exponent < 0
    after = count - 1 - exponent                # digits after the dot
    np.copyto(after, count, where=below)        # not counting the zeros after "0."
    whole = digits // _POW10_U64[after]
    digits -= whole * _POW10_U64[after]
    digits *= _POW10_U64[18 - np.maximum(after, 1)]     # "0" after the dot of a whole number
    whole = _digit_columns(whole, -(-max(int(exponent.max(initial=0)) + 1, 0) // 4) * 4)
    whole *= np.take(_LAST[:, 20 - whole.shape[1]:], np.maximum(exponent + 1, 0), axis=0)
    fraction = _digit_columns(digits, 20)[:, 2:]          # the first two digits are zero
    fraction *= np.take(_FIRST[:, :18], np.maximum(after, 1), axis=0)
    parts = [whole, (~below * np.uint8(ord(".")))[:, None], fraction]
    if below.any():
        parts.insert(0, _LEAD_TEXT[np.clip(-exponent, 0, 4)].view(np.uint8).reshape(n, -1))
    others = np.flatnonzero(~proved)
    slow = np.array([repr(value).encode() for value in x[others].tolist()], "S")
    width = sum(part.shape[1] for part in parts)
    if slow.itemsize > width:
        parts.append(np.zeros((n, slow.itemsize - width), np.uint8))
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
    places = np.searchsorted(_POW10_U64[1:], rest, side="right") + 1
    digits = _digit_columns(rest, -(-int(places.max(initial=1)) // 4) * 4)
    digits *= np.take(_LAST[:, 20 - digits.shape[1]:], places, axis=0)
    return np.concatenate([(negative * np.uint8(ord("-")))[:, None], digits], axis=1)


def chunk_bytes(s: _Scratch, packets: Packets) -> bytes:
    """The CSV rows of ``packets`` as bytes, each ended by CRLF as
    csv.writer ends them: the row's fields laid out in fixed columns
    (see _timestamp_columns and _integer_columns) with the NUL padding
    dropped."""
    n = len(packets)
    stamp, length = _timestamp_columns(s, packets.ts), _integer_columns(packets.length)
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
