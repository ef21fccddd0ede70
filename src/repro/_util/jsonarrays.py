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

Each renderer reads at most :data:`PASS_ELEMENTS` elements per NumPy
pass, so its temporaries stay bounded whatever the input's size.  The
lookup tables are built at import, in the parent of a forked pool.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["PASS_ELEMENTS", "hex_float_lists", "int_lists"]

#: Elements (tokens) rendered per NumPy pass: bounds the temporaries.
PASS_ELEMENTS = 8192

_U64 = np.uint64


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
