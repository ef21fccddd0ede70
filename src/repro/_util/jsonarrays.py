"""JSON list text of NumPy arrays, rendered many lists per NumPy pass.

``json.dumps(array.tolist())`` builds one Python object per element, and
a hex-float list one ``str`` per element besides.  The renderers here
build the text of a whole sequence of lists with array operations
instead: every element becomes a fixed-width *token* of ASCII bytes
padded with NUL, so the tokens of all lists sit in one ``(n, width)``
byte array, built from lookup tables without a Python object per
element.  Deleting the NUL bytes (``bytes.translate``) leaves the text.

A token carries ``json.dumps``'s item separator ``", "`` in front of
its element, so a list's first token has its separator replaced by the
list's ``[`` and its last token gets the closing ``]`` in a padding
byte.

The parsers (:func:`parse_hex_float_lists`, :func:`parse_int_lists`)
invert the renderers the same way: the texts of many lists are joined
into one byte buffer, each token is found from its delimiters and
decoded by array operations, and every byte outside the tokens is
checked against the layout the renderer writes.

Each renderer reads at most :data:`PASS_ELEMENTS` elements per NumPy
pass, so its temporaries stay bounded whatever the input's size.  A
parser reads the texts it is given in one pass, so its caller bounds
them (:func:`repro.beam.logs.rows_to_records` cuts its passes by text
length).  The lookup tables are built at import, in the parent of a
forked pool.
"""

from __future__ import annotations

import binascii
import json
import struct

import numpy as np

__all__ = [
    "PASS_ELEMENTS",
    "hex_float_lists",
    "int_lists",
    "parse_hex_float_lists",
    "parse_int_lists",
    "pass_ranges",
]

#: Elements (tokens) rendered per NumPy pass: bounds the temporaries.
PASS_ELEMENTS = 8192

_U64 = np.uint64


def pass_ranges(sizes, limit: int = PASS_ELEMENTS):
    """``(lo, hi)`` ranges of consecutive items whose ``sizes`` add up
    to at most ``limit`` (a larger item alone)."""
    lo, held = 0, 0
    for hi, size in enumerate(sizes):
        if hi > lo and held + size > limit:
            yield lo, hi
            lo, held = hi, 0
        held += size
    if len(sizes) > lo:
        yield lo, len(sizes)


def _words(texts, dtype) -> np.ndarray:
    """Each ASCII text as one NUL-padded word of ``dtype``."""
    width = np.dtype(dtype).itemsize
    raw = np.zeros((len(texts), width), np.uint8)
    for row, text in enumerate(texts):
        data = text.encode("ascii")
        raw[row, : len(data)] = np.frombuffer(data, np.uint8)
    return raw.view(dtype).ravel()


# -- integers ----------------------------------------------------------------------
#
# A token is uint32 words: the separator, a row's ``[`` and the sign;
# one word per four decimal digits; a row's ``]`` (byte 0) and the
# list's ``]`` (byte 1).

_GROUP = 10_000
_GROUP_VALUES = np.arange(_GROUP)
_GROUP_DIGITS = (
    np.stack([(_GROUP_VALUES // 10**k) % 10 for k in (3, 2, 1, 0)], axis=1)
    + ord("0")
).astype(np.uint8)
#: a group after the leading one: four digits, zero-padded
_PADDED = _GROUP_DIGITS.view(np.uint32).ravel()
#: the leading group: its leading zeros are padding (0 keeps one digit)
_LEADING = np.where(
    _GROUP_VALUES[:, None] >= np.array([1000, 100, 10, 0]), _GROUP_DIGITS, 0
).astype(np.uint8).view(np.uint32).ravel()
#: by 2 * (opens a row) + (negative)
_INT_HEADS = _words([", ", ", -", ", [", ", [-"], np.uint32)
_ROW_CLOSE = np.uint32(ord("]"))


def _groups(magnitude: np.ndarray) -> int:
    """Digit groups of the largest magnitude (at least one)."""
    groups = 1
    top = int(magnitude.max()) if len(magnitude) else 0
    while top >= _GROUP**groups:
        groups += 1
    return groups


def _int_tokens(magnitude, negative, opens, closes, groups) -> np.ndarray:
    """``(n, 4 * (groups + 2))`` tokens: ``, [-<digits>]`` of each value."""
    tokens = np.empty((len(magnitude), groups + 2), np.uint32)
    tokens[:, 0] = _INT_HEADS.take(2 * opens + negative)
    rest = magnitude
    for slot in range(groups - 1, -1, -1):
        group = (rest % _U64(_GROUP)).astype(np.intp)
        rest = rest // _U64(_GROUP)
        scale = _GROUP ** (groups - 1 - slot)
        word = _LEADING.take(group)
        if scale > 1:  # a group above the value's leading one is padding
            word = np.where(magnitude >= _U64(scale), word, 0)
        if slot > 0:  # below the leading group, keep the zeros
            below = magnitude >= _U64(scale * _GROUP)
            word = np.where(below, _PADDED.take(group), word)
        tokens[:, 1 + slot] = word
    tokens[:, -1] = np.where(closes, _ROW_CLOSE, 0)
    return tokens.view(np.uint8)


# -- hex floats --------------------------------------------------------------------
#
# A token is four uint64 words: the separator, quote and ``float.hex``
# prefix; the mantissa's 13 hex digits; the exponent and the closing
# quote.  Words come from tables indexed by a value's *code*: its biased
# exponent (0 subnormal, 1-2046 normal, 2047 infinite), 2048 for a zero
# and 2049 for NaN, which never carries a sign.

_ZERO, _NAN = 2048, 2049
_CODES = np.arange(_NAN + 1)
_KIND = np.select(
    [_CODES == 0, _CODES < 2047, _CODES == 2047, _CODES == _ZERO], [0, 1, 2, 3], 4
)  # subnormal, normal, infinite, zero, NaN
_HEX = np.frombuffer(b"0123456789abcdef", np.uint8)
#: byte -> its two hex digits, as one little-endian uint16
_HEX_PAIRS = (
    np.stack([_HEX[np.arange(256) >> 4], _HEX[np.arange(256) & 15]], axis=1)
    .copy().view(np.uint16).ravel()
)
#: by 2 * code + sign
_FLOAT_HEADS = _words(
    [", \"" + sign + head
     for head in ("0x0.", "0x1.", "inf", "0x0.", "nan")
     for sign in ("", "-" if head != "nan" else "")],
    np.uint64,
)[2 * _KIND[:, None] + np.arange(2)].ravel()
# The byte-swapped mantissa's 16 hex digits start with three zeros (52
# bits): keep 13 digits, one for a zero, none for inf and NaN.
_DIGIT_MASKS = np.zeros((5, 16), np.uint8)
for _kind, _kept in enumerate((13, 13, 0, 1, 0)):
    _DIGIT_MASKS[_kind, 3 : 3 + _kept] = 0xFF
_DIGIT_MASKS = _DIGIT_MASKS.view(np.uint64)[_KIND]  # (codes, 2)
_DIGIT_MASK_HI = np.ascontiguousarray(_DIGIT_MASKS[:, 0])
_DIGIT_MASK_LO = np.ascontiguousarray(_DIGIT_MASKS[:, 1])
# p, the exponent's sign, its digits (the leading group's padding is
# NUL), the closing quote; only the quote for inf and NaN.
_EXPONENTS = np.where(_KIND == 0, -1022, np.where(_KIND == 1, _CODES - 1023, 0))
_FLOAT_TAILS = np.zeros((len(_CODES), 8), np.uint8)
_FLOAT_TAILS[:, 0] = ord("p")
_FLOAT_TAILS[:, 1] = np.where(_EXPONENTS < 0, ord("-"), ord("+"))
_FLOAT_TAILS[:, 2:6] = _LEADING[np.abs(_EXPONENTS)].view(np.uint8).reshape(-1, 4)
_FLOAT_TAILS[:, 6] = ord('"')
_FLOAT_TAILS[(_KIND == 2) | (_KIND == 4), :6] = 0
_FLOAT_TAILS = _FLOAT_TAILS.view(np.uint64).ravel()
_FLOAT_WIDTH = 32


def _float_tokens(values: np.ndarray) -> np.ndarray:
    """``(n, 32)`` tokens: ``, "<float.hex>"`` of each value."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    n = len(bits)
    mantissa = bits & _U64((1 << 52) - 1)
    code = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.intp)
    code += ((bits << _U64(1)) == 0) * _ZERO  # a zero's exponent is 0
    code += ((code == 2047) & (mantissa != 0)) * (_NAN - 2047)
    tokens = np.empty((n, 4), np.uint64)
    sign = (bits >> _U64(63)).astype(np.intp)
    tokens[:, 0] = _FLOAT_HEADS.take(2 * code + sign)
    digits = _HEX_PAIRS.take(mantissa.byteswap().view(np.uint8)).view(np.uint64)
    tokens[:, 1] = digits[0::2] & _DIGIT_MASK_HI.take(code)
    tokens[:, 2] = digits[1::2] & _DIGIT_MASK_LO.take(code)
    tokens[:, 3] = _FLOAT_TAILS.take(code)
    return tokens.view(np.uint8)


# -- lists -------------------------------------------------------------------------


def _render(counts, tokens_of, width, close_byte) -> list:
    """Render lists of ``counts`` tokens, window by window; their texts.

    ``tokens_of(lo, hi)`` builds the ``(hi - lo, width)`` tokens of the
    flat token range; each list's first token opens it and its last
    token's ``close_byte`` closes it.
    """
    counts = np.asarray(counts, dtype=np.intp)
    ends = np.cumsum(counts)
    starts = ends - counts
    firsts = starts[counts > 0]
    lasts = ends[counts > 0] - 1
    pieces = []
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, PASS_ELEMENTS):
        hi = min(lo + PASS_ELEMENTS, total)
        tokens = tokens_of(lo, hi)
        first = firsts[(firsts >= lo) & (firsts < hi)] - lo
        tokens[first, 0] = ord("[")
        tokens[first, 1] = 0
        tokens[lasts[(lasts >= lo) & (lasts < hi)] - lo, close_byte] = ord("]")
        pieces.append(tokens.tobytes())
    padded = b"".join(pieces)
    return [
        padded[start * width : end * width].translate(None, b"\0").decode("ascii")
        if end > start else "[]"
        for start, end in zip(starts.tolist(), ends.tolist())
    ]


def hex_float_lists(arrays) -> list:
    """``json.dumps(list(map(float.hex, a.tolist())))`` for each 1-D array.

    Values are cast to float64 first, exactly as ``float.hex`` sees them.
    """
    arrays = list(arrays)
    flat = np.concatenate(arrays) if arrays else np.zeros(0)
    return _render(
        [len(values) for values in arrays],
        lambda lo, hi: _float_tokens(flat[lo:hi]),
        _FLOAT_WIDTH, _FLOAT_WIDTH - 1,
    )


def int_lists(arrays) -> list:
    """``json.dumps(a.tolist())`` for each 1-D or 2-D integer array.

    A 2-D array is a list of rows.  Other shapes, and rows without
    columns, go through ``tolist``.
    """
    arrays = list(arrays)
    tokenised = [
        values.ndim == 1 or (values.ndim == 2 and values.shape[1] > 0)
        for values in arrays
    ]
    rendered = iter(_int_lists(
        [values for values, ok in zip(arrays, tokenised) if ok]
    ))
    return [
        next(rendered) if ok else json.dumps(values.tolist())
        for values, ok in zip(arrays, tokenised)
    ]


def _int_lists(arrays) -> list:
    """:func:`int_lists` of 1-D arrays and 2-D arrays with columns."""
    if not arrays:
        return []
    counts = np.array([values.size for values in arrays], np.intp)
    ends = np.cumsum(counts)
    starts = ends - counts
    # Per list: its row length (a 1-D list is one flat row) and nesting.
    row_length = np.array([values.shape[-1] for values in arrays])
    nested = np.array([values.ndim == 2 for values in arrays])
    flat = np.concatenate([values.reshape(-1) for values in arrays])
    flat = flat.astype(np.int64, copy=False)
    negative = flat < 0
    # -x of int64 wraps for -2**63, whose uint64 view is still 2**63.
    magnitude = np.where(negative, -flat, flat).view(np.uint64)
    groups = _groups(magnitude)

    def tokens_of(lo, hi):
        position = np.arange(lo, hi)
        owner = np.searchsorted(ends, position, side="right")
        column = (position - starts[owner]) % row_length[owner]
        opens = nested[owner] & (column == 0)
        closes = nested[owner] & (column == row_length[owner] - 1)
        return _int_tokens(
            magnitude[lo:hi], negative[lo:hi], opens, closes, groups
        )

    width = 4 * (groups + 2)
    return _render(counts, tokens_of, width, width - 3)


# -- parsing -----------------------------------------------------------------------
#
# A parser joins its list texts into one byte buffer, finds their
# tokens from their delimiters, and reads each token's fields at fixed
# offsets from its start: one gather of 32 bytes per token, then array
# operations over the fields of all tokens at once (each byte of a word
# one digit), not an object per element.  A list is taken only when
# every byte outside its tokens is where the renderer puts it; otherwise
# its result is ``None``.

_U32 = np.uint32


def _ascii_word(text: str) -> _U64:
    """The little-endian uint64 of ``text``'s ASCII bytes."""
    return _U64(int.from_bytes(text.encode("ascii"), "little"))


class _Buffer:
    """List texts joined as ASCII bytes.

    Eight NUL bytes lead and 40 trail.  A token is read from at most
    two bytes past the last text (a malformed one: an empty last text,
    or one that ends in a comma), so the 32 bytes from its start
    (:meth:`rows`) and a few bytes before it are always there;
    ``starts`` and ``ends`` are each text's offsets in ``raw``.
    """

    def __init__(self, texts):
        lengths = np.array([len(text) for text in texts])
        self.text = "".join(["\0" * 8, *texts, "\0" * 40])
        self.raw = np.frombuffer(self.text.encode("ascii"), np.uint8)
        self.ends = 8 + np.cumsum(lengths)
        self.starts = self.ends - lengths

    def rows(self, at) -> np.ndarray:
        """The 32 bytes from each of ``at``, one ``(n, 32)`` row each."""
        rows = np.ndarray((len(self.raw) - 31,), "V32", self.raw, strides=(1,))
        return rows[at].view(np.uint8).reshape(len(at), 32)


def _lists(texts, parse, dtype) -> list:
    """Each list text's array, or ``None``: ``[]`` is an empty array, a
    text that is not ASCII ``None``, and the rest go to ``parse``
    together."""
    out = [None] * len(texts)
    numbers = []
    for number, text in enumerate(texts):
        if text == "[]":
            out[number] = np.zeros(0, dtype)
        elif text.isascii():
            numbers.append(number)
    if numbers:
        for number, array in zip(numbers, parse([texts[n] for n in numbers])):
            out[number] = array
    return out


def _owners(positions, ends) -> np.ndarray:
    """The list each of the sorted ``positions`` falls in."""
    return np.searchsorted(ends, positions, side="right")


def _slices(values, counts, taken, shapes=None) -> list:
    """Each list's run of ``counts`` values (shaped), ``None`` if not
    ``taken``."""
    out, lo = [], 0
    for number, (count, ok) in enumerate(zip(counts.tolist(), taken.tolist())):
        if not ok:
            out.append(None)
        elif shapes is None:
            out.append(values[lo:lo + count])
        else:
            out.append(values[lo:lo + count].reshape(shapes[number]))
        lo += count
    return out


# Hex floats.  A token is a JSON string, ``float.hex`` of its value:
# ``[-]0x1.<13 hex digits>p<+|-><1-4 digits>`` for a normal value, the
# same with ``0x0.`` and ``p-1022`` for a subnormal one, ``0x0.0p+0``,
# ``inf`` or ``nan``.

_HEX_PREFIX = _ascii_word("0x\0.")  # the lead digit is free
_ZERO_TOKEN = _ascii_word("0x0.0p+0")
_INF_TOKEN, _NAN_TOKEN = _ascii_word("inf"), _ascii_word("nan")
_INF_BITS = _U64(0x7FF << 52)
#: the bits of ``float.fromhex("nan")``
_NAN_BITS = _U64(struct.unpack("<Q", struct.pack("<d", float.fromhex("nan")))[0])


def _exponents(rows: np.ndarray, places: np.ndarray) -> tuple:
    """The exponent after each row's ``p`` and sign (bytes 17 and 18), as
    its magnitude and sign, and whether it is written as ``float.hex``
    writes it: one to four decimal digits (``places``) from byte 19, no
    leading zero, no ``-0``."""
    # The digits right-aligned in four bytes, NUL-padded in front.
    shift = ((4 - places) & 3).astype(np.uint32) << _U32(3)
    digits = (rows.view("<u8")[:, 2] >> _U64(24)).astype(np.uint32) << shift
    zeros = _U32(0x30303030) << shift
    written = (digits & _U32(0xF0F0F0F0)) == zeros
    written &= ((digits + _U32(0x06060606)) & _U32(0xF0F0F0F0)) == zeros
    digits &= _U32(0x0F0F0F0F)
    pairs = digits * _U32(10) + (digits >> _U32(8))
    magnitude = (pairs & _U32(0xFF)) * _U32(100) + ((pairs >> _U32(16)) & _U32(0xFF))
    negative = rows[:, 18] == ord("-")
    written &= (places >= 1) & (places <= 4) & (rows[:, 17] == ord("p"))
    written &= (rows[:, 18] == ord("+")) | negative & (magnitude > 0)
    written &= (places == 1) | (rows[:, 19] != ord("0"))
    return magnitude, negative, written


def _mantissas(rows: np.ndarray, candidates: np.ndarray):
    """The 52-bit mantissa of each candidate row's 13 hex digits (bytes
    4-16), or ``None`` if one of them is not a hex digit."""
    digits = rows[:, 1:17].copy()
    digits[:, :3] = ord("0")
    digits[~candidates] = ord("0")
    try:
        return np.frombuffer(binascii.unhexlify(digits), ">u8").astype(np.uint64)
    except binascii.Error:
        return None


def _float_bits(buffer: _Buffer, opens, closes) -> tuple:
    """The float64 bits of each token between its quotes, and whether
    its form is decoded here (any other takes ``float.fromhex``)."""
    negative = buffer.raw[opens + 1] == ord("-")
    at = opens + 1 + negative
    length = closes - at
    rows = buffer.rows(at)
    head = rows.view("<u8")[:, 0]
    magnitude, below, written = _exponents(rows, length - 19)
    lead = rows[:, 2]
    one = lead == ord("1")
    candidates = written & (one | (lead == ord("0")))
    candidates &= (head & _U64(0xFF00FFFF)) == _HEX_PREFIX
    mantissa = _mantissas(rows, candidates)
    if mantissa is None:  # a digit that is not hex: each takes fromhex
        candidates[:] = False
        mantissa = np.zeros(len(rows), np.uint64)
    # normal: 2**-1022 to below 2**1024; subnormal: 0x0.<digits>p-1022
    normal = candidates & one & (magnitude <= _U32(1023) - below)
    subnormal = candidates & ~one & below & (magnitude == _U32(1022))
    special = (length == 3) * (head & _U64(0xFFFFFF))
    inf = special == _INF_TOKEN
    nan = (special == _NAN_TOKEN) & ~negative
    exponent = magnitude.astype(np.int64)
    np.negative(exponent, out=exponent, where=below)
    biased = ((exponent + 1023) * normal + 0x7FF * inf).astype(np.uint64)
    bits = (biased << _U64(52)) | (mantissa * (normal | subnormal))
    bits |= negative.astype(np.uint64) << _U64(63)
    bits[nan] = _NAN_BITS
    zero = (length == 8) & (head == _ZERO_TOKEN)
    return bits, normal | subnormal | zero | inf | nan


def _parse_floats(texts) -> list:
    """:func:`parse_hex_float_lists` of ASCII texts other than ``[]``."""
    buffer = _Buffer(texts)
    raw, starts, ends = buffer.raw, buffer.starts, buffer.ends
    commas = np.flatnonzero(raw == ord(","))
    # A list's first token opens after its "[" and its last closes before
    # its "]"; every comma closes one token and opens the next ('", "').
    splits = np.searchsorted(commas, ends)  # the commas before each end
    firsts = np.zeros_like(splits)  # ...and before each list's start
    firsts[1:] = splits[:-1]
    opens = np.insert(commas + 2, firsts, starts + 1)
    closes = np.insert(commas - 1, splits, ends - 2)
    counts = splits - firsts + 1
    taken = (
        (raw[starts] == ord("[")) & (raw[starts + 1] == ord('"'))
        & (raw[ends - 2] == ord('"')) & (raw[ends - 1] == ord("]"))
    )
    broken = commas[
        (raw[commas - 1] != ord('"')) | (raw[commas + 1] != ord(" "))
        | (raw[commas + 2] != ord('"'))
    ]
    taken[_owners(broken, ends)] = False
    bits, fast = _float_bits(buffer, opens, closes)
    values = bits.view(np.float64)
    list_ends = np.cumsum(counts)
    for token in np.flatnonzero(~fast).tolist():
        # The token is the JSON string's value when it holds no quote,
        # escape or control character.
        text = buffer.text[opens[token] + 1 : closes[token]]
        try:
            if '"' in text or "\\" in text or not text.isprintable():
                raise ValueError(text)
            values[token] = float.fromhex(text)
        except (ValueError, OverflowError):
            taken[_owners(token, list_ends)] = False
    return _slices(values, counts, taken)


def parse_hex_float_lists(texts) -> list:
    """The float64 array of each :func:`hex_float_lists` text, or ``None``.

    An array is ``float.fromhex`` of each string of the JSON list, bit
    for bit: a token in ``float.hex``'s normal, subnormal, zero, ``inf``
    or ``nan`` form is decoded by array operations, any other string by
    ``float.fromhex``.  A text that is not ``json.dumps``'s rendering of
    a list of strings without escapes, or holds one ``float.fromhex``
    refuses, gives ``None``.
    """
    return _lists(list(texts), _parse_floats, np.float64)


# Integers.  A flat list's tokens are separated by ", "; a list of rows
# opens with "[[", separates its rows by "], [" and closes with "]]".


#: by n (0-4): the last n bytes of a little-endian uint32
_LAST_BYTES = np.array([0, 0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF], np.uint32)


def _decimals(raw, begins, stops) -> np.ndarray:
    """The magnitude written by the digits ``raw[begins:stops]`` of each
    token (at most 19), four digits of all tokens per pass."""
    size = stops - begins
    quads = np.ndarray((len(raw) - 3,), "V4", raw, strides=(1,))
    magnitude = np.zeros(len(begins), np.uint64)
    for place in range(0, min(int(size.max(initial=1)), 19), 4):
        words = quads[np.maximum(stops - place - 4, 0)].view("<u4")
        mask = _LAST_BYTES[np.minimum(np.maximum(size - place, 0), 4)]
        digits = (words & mask) - (_U32(0x30303030) & mask)
        pairs = digits * _U32(10) + (digits >> _U32(8))  # bytes 0 and 2
        value = (pairs & _U32(0xFF)) * _U32(100) + ((pairs >> _U32(16)) & _U32(0xFF))
        magnitude += value.astype(np.uint64) * _U64(10**place)
    return magnitude


def _columns(text: str) -> int:
    """The tokens of a list of rows' first row (its commas, plus one)."""
    return text.count(",", 0, text.find("]")) + 1


def _parse_ints(texts) -> list:
    """:func:`parse_int_lists` of ASCII texts other than ``[]``."""
    buffer = _Buffer(texts)
    raw, starts, ends = buffer.raw, buffer.starts, buffer.ends
    minus = raw == ord("-")
    number = ((raw - np.uint8(ord("0"))) < 10) | minus
    bounds = np.flatnonzero(number[1:] != number[:-1]) + 1
    begins, stops = bounds[0::2], bounds[1::2]
    negative = raw[begins] == ord("-")
    size = stops - begins - negative  # digits
    lead = raw[begins + negative]
    ok = (size >= 1) & (size <= 19) & ((size == 1) | (lead != ord("0")))
    ok &= ~negative | (lead != ord("0"))  # no -0
    if np.count_nonzero(minus) != np.count_nonzero(negative):
        signs = np.cumsum(minus)  # a minus sign past a token's start
        ok &= signs[stops - 1] == signs[begins]
    magnitude = _decimals(raw, begins + negative, stops)
    ok &= magnitude <= _U64(2**63 - 1) + negative
    values = magnitude.view(np.int64)
    np.negative(values, out=values, where=negative)
    # ", " between two tokens of a row, "], [" between two rows (after
    # every multiple of the first row's length) of a list of rows.
    counts = np.diff(np.searchsorted(begins, ends), prepend=0)
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(texts)), counts)
    position = np.arange(len(begins)) - first[owner]
    nested = np.array([text.startswith("[[") for text in texts])
    columns = np.array([
        _columns(text) if deep else max(count, 1)
        for text, deep, count in zip(texts, nested.tolist(), counts.tolist())
    ])
    due = (position % columns[owner] == 0)[1:]
    apart = stops[:-1]  # where the bytes between two tokens start
    joined = (begins[1:] - apart == 2 + 2 * due) & (raw[apart + due] == ord(","))
    joined &= raw[apart + 1 + due] == ord(" ")
    joined &= ~due | (raw[apart] == ord("]")) & (raw[apart + 3] == ord("["))
    ok[1:] &= (position[1:] == 0) | joined
    # "[" or "[[" before a list's first token, "]" or "]]" after its last
    lists = np.flatnonzero(counts)
    taken = (counts > 0) & (counts % columns == 0) & (raw[starts] == ord("["))
    taken &= (raw[ends - 1] == ord("]")) & (~nested | (raw[ends - 2] == ord("]")))
    taken[lists] &= begins[first[lists]] == (starts + 1 + nested)[lists]
    taken[lists] &= stops[first[lists] + counts[lists] - 1] == (ends - 1 - nested)[lists]
    taken[owner[~ok]] = False
    shapes = [
        (count // width, width) if deep else (count,)
        for count, width, deep in zip(counts.tolist(), columns.tolist(), nested.tolist())
    ]
    return _slices(values.astype(np.intp, copy=False), counts, taken, shapes)


def parse_int_lists(texts) -> list:
    """The intp array of each :func:`int_lists` text, or ``None``.

    A flat list gives a 1-D array and a list of rows of one length a 2-D
    one, equal to ``np.array(json.loads(text))``.  A text in any other
    layout (other spacing, a ragged or deeper nesting, a leading zero,
    ``-0``, a value outside int64) gives ``None``.
    """
    return _lists(list(texts), _parse_ints, np.intp)
