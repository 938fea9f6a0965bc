"""Canonical JSON encoding for steering functionals.

A functional file is one document {"meta", "matrices"}: `meta` names the
functional's kind and its sizes, and `matrices` is its stack of complex
d x d cells written as nested lists of [re, im] pairs, row-major -
universally parseable, no binary formats. `_document` puts the cells
under the emitter's float-array branch, the only code that writes matrix
data, and `_load` parses them back. Keys are emitted sorted and floats
with 17 significant digits, zeros as `0`, so loading a file and
re-serializing it reproduces identical bytes.

The emitter writes through a `write` callable, so one writer serves a
file, stdout and the str API (canonical_dumps joins its pieces). The
matrix block is formatted one write window at a time (`_write_floats`):
runs of whole matrices, or of rows where one matrix holds more than
_WINDOW // 4 leaves, so the writer holds about a window of text and
never the whole document.

Both directions cost what a mostly-zero stack holds, such as the
full-dimensional Pauli tables with one nonzero entry per row. When at
most a quarter of a window's leaves are nonzero, the writer finds them
through a boolean mask, formats only those, and joins their tokens with
the pieces of the all-`0` skeleton between them, so no text is scanned
for format codes. When the block's number text averages at most 4 bytes
a leaf, the reader finds the tokens other than `0` by byte compares,
checks the window with each of them replaced by `0` against the block's
all-`0` text in one comparison, and parses each distinct one of them
once. Denser stacks take one template and one list of every leaf, which
their per-leaf bookkeeping would only slow down.

Every load goes through `_load_stream`, which reads a source with `read`
and `seek` a window at a time and never builds the nested lists: an open
regular file or a pipe's bytes (`load_functional`), or a str encoded one
read at a time (`_TextSource`, for `functional_from_json`). The key must
lie in the source's first 64 KiB and the block's end in its last
(`_EDGE`); the document is parsed with the block cut out, and the block
is read in windows of 64 KiB (`_read_block`). A mostly-zero window is
vouched for by that one comparison (`_sparse_window`): it proves the
skeleton the meta gives, that no number is glued to a bracket and that
every other leaf is exactly `0`. Any other window takes two translates
and a few byte compares: its bracket/comma skeleton is checked against
the shape, a number glued to a bracket on the wrong side is looked for,
and its brackets are deleted, leaving a flat JSON list whose numbers go
into the window's stretch of the value array. The value array is the
load's one table-sized allocation: the byte masks, the parsed numbers
and the text's copies are one window's, and the text a window is
checked against is one matrix's, tiled. Every file this module writes
takes this path, and so does any whitespace layout of one. Anything it
cannot vouch for (a key or block end past the edges, a str that is not
ASCII, an escaped key, a duplicated key, a malformed block, a token
longer than a window) goes to `_load_tree`, the plain json.loads walk,
which accepts the same documents, returns the same bits, and raises
every SchemaError. Loaders validate strictly: unknown keys, wrong
shapes, unknown kinds, values that are not numbers and non-finite
values (NaN, Infinity) are all rejected with SchemaError. Both loaders
hand their value array to the functional without a copy
(SteeringFunctional._adopt).
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import stat

import numpy as np

from ._version import __version__
from .errors import SchemaError
from .functionals import KINDS, SteeringFunctional

META_KEYS = ("kind", "d", "n", "m", "seed", "version")
# bytes of the block checked and parsed at a time, and read from a source
# at a time: on a full-dim n = 7 table (a 1.4 MB text) as fast as 256 KiB
# and faster than 1 MiB; a quarter of it in leaves written at a time
_WINDOW = 1 << 16
# bytes at a source's start that must hold the `matrices` key, and at its
# end that must hold the block's end and the rest of the document
_EDGE = 1 << 16


# ---------------------------------------------------------------------------
# canonical emitter


def _nested(leaf: str, shape: tuple[int, ...]) -> str:
    """Nested JSON arrays of `shape` with every leaf written as `leaf`."""
    for size in reversed(shape):
        leaf = "[" + ",".join([leaf] * size) + "]"
    return leaf


def _strides(shape: tuple[int, ...]) -> list[int]:
    """The text length of one block and its comma on each level of
    _nested("0", shape), the leaf's last."""
    strides, block = [], 1
    for size in reversed(shape):
        strides.insert(0, block + 1)
        block = size * (block + 1) + 1
    return strides


def _format_floats(values: np.ndarray) -> str:
    """Nested JSON arrays of `values`, each written with 17 significant
    digits; zeros (-0.0 too) are written as 0 and non-finite values are
    rejected.

    When at most a quarter of the leaves are nonzero, the text is the
    all-`0` skeleton cut at the nonzero leaves' offsets, with each of those
    leaves' tokens spliced into its cut, so only they are formatted;
    otherwise every leaf is, through one template."""
    if not np.isfinite(values).all():
        raise SchemaError("non-finite values cannot be serialized")
    flat = values.ravel()
    nonzero = np.flatnonzero(flat != 0.0)  # a boolean mask: faster than on the floats
    if 4 * nonzero.size > flat.size:
        template = _nested("%.17g", values.shape)
        return template % tuple(np.where(flat == 0.0, 0.0, flat).tolist())
    skeleton = _nested("0", values.shape)
    # a leaf's offset: one "[" per level, and on each level the blocks
    # (with their commas) before it
    index = np.unravel_index(nonzero, values.shape)
    offsets = np.full(nonzero.size, values.ndim)
    for axis, stride in enumerate(_strides(values.shape)):
        offsets += index[axis] * stride
    cuts = offsets.tolist()
    # the skeleton's pieces between the cuts, each cut's token between them
    text = [None] * (2 * len(cuts) + 1)
    text[::2] = [skeleton[a:b] for a, b in zip([0, *(c + 1 for c in cuts)], [*cuts, None])]
    text[1::2] = map("%.17g".__mod__, flat[nonzero].tolist())
    return "".join(text)


def _write_floats(values: np.ndarray, write) -> None:
    """Write what _format_floats returns for `values`, formatted one window
    of at most _WINDOW // 4 leaves at a time (about a window of text for
    the mostly-zero stacks): a run of whole sub-arrays along the first
    axis, or, where one sub-array holds more leaves than that, each
    sub-array in turn. A 0-d array is written as its float (format_float)."""
    budget = _WINDOW // 4
    if values.ndim == 0:
        write(format_float(float(values)))
        return
    if values.size <= budget:
        write(_format_floats(values))
        return
    write("[")
    if values.size // len(values) > budget:
        for i, part in enumerate(values):
            if i:
                write(",")
            _write_floats(part, write)
    else:
        step = budget // (values.size // len(values))
        for lo in range(0, len(values), step):
            if lo:
                write(",")
            write(_format_floats(values[lo : lo + step])[1:-1])
    write("]")


def format_float(x: float) -> str:
    """One float as _format_floats writes a leaf: `0` for +-0.0, else 17
    significant digits; non-finite values are rejected."""
    if not math.isfinite(x):
        raise SchemaError("non-finite values cannot be serialized")
    return "0" if x == 0.0 else "%.17g" % x


def _emit(obj, write) -> None:
    if isinstance(obj, dict):
        write("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise SchemaError(f"non-string key {key!r}")
            if i:
                write(",")
            write(json.dumps(key))
            write(":")
            _emit(obj[key], write)
        write("}")
    elif isinstance(obj, (list, tuple)):
        write("[")
        for i, item in enumerate(obj):
            if i:
                write(",")
            _emit(item, write)
        write("]")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        _write_floats(obj, write)
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        write(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        write(format_float(float(obj)))
    elif isinstance(obj, str):
        write(json.dumps(obj))
    else:
        raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def write_canonical(obj, write) -> None:
    """Write canonical_dumps(obj) through `write`, piece by piece: a float
    array a window at a time, so no text of it is held whole."""
    _emit(obj, write)
    write("\n")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    out: list = []
    write_canonical(obj, out.append)
    return "".join(out)


# ---------------------------------------------------------------------------
# matrix-stack codec


def _document(f: SteeringFunctional) -> dict:
    """The functional's document: its cells in C order, as the
    (n * m, d, d, 2) real view."""
    meta = {
        "kind": f.kind,
        "d": f.d,
        "n": f.n,
        "m": f.m,
        "seed": None if f.seed is None else int(f.seed),
        "version": __version__,
    }
    stack = np.ascontiguousarray(f.coefficients).view(np.float64)
    return {"meta": meta, "matrices": stack.reshape(-1, f.d, f.d, 2)}


def _check_header(doc) -> tuple[dict, int, int]:
    """Validate the top-level keys and the meta record of a parsed
    document; returns the meta, the matrix count n * m and d."""
    if not isinstance(doc, dict) or set(doc) != {"meta", "matrices"}:
        raise SchemaError('document must have exactly the keys "meta" and "matrices"')
    meta = doc["meta"]
    if not isinstance(meta, dict) or set(meta) != set(META_KEYS):
        raise SchemaError(f"meta must have exactly the keys {sorted(META_KEYS)}")
    if meta["kind"] not in KINDS:
        raise SchemaError(f"unknown functional kind {meta['kind']!r}, expected one of {KINDS}")
    for key in ("d", "n", "m"):
        if not isinstance(meta[key], int) or isinstance(meta[key], bool) or meta[key] < 1:
            raise SchemaError(f"meta.{key} must be a positive integer")
    if meta["seed"] is not None and (
        not isinstance(meta["seed"], int) or isinstance(meta["seed"], bool)
    ):
        raise SchemaError("meta.seed must be an integer or null")
    if not isinstance(meta["version"], str):
        raise SchemaError("meta.version must be a string")
    return meta, meta["n"] * meta["m"], meta["d"]


def _load_tree(text: str) -> tuple[dict, np.ndarray]:
    """Parse a document into its meta and its complex (n * m, d, d) matrix
    stack, through the nested lists json builds. Accepts every valid
    document, and is the one source of SchemaError messages."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
    meta, count, d = _check_header(doc)
    matrices = doc["matrices"]
    if not isinstance(matrices, list) or len(matrices) != count:
        found = len(matrices) if isinstance(matrices, list) else type(matrices).__name__
        raise SchemaError(f"expected {count} matrices, found {found}")
    entries = np.array(matrices, dtype=object)  # stops at the first ragged level
    if entries.shape != (count, d, d, 2):
        raise SchemaError(f"every matrix must be {d} rows of {d} [re, im] pairs")
    if not set(map(type, entries.ravel())) <= {int, float}:
        raise SchemaError("matrix entries must be numbers")
    try:
        values = entries.astype(np.float64)
    except OverflowError as exc:
        raise SchemaError("matrix entries must be finite") from exc
    if not np.isfinite(values).all():
        raise SchemaError("matrix entries must be finite")
    return meta, values.view(complex).reshape(count, d, d)


_BLOCK_KEY_BYTES = re.compile(rb'"matrices"[ \t\n\r]*:[ \t\n\r]*(?=\[)')
_NUMBER_CHARS = b"0123456789+-.eE"
_WHITESPACE = b" \t\n\r"
_COMMA, _ZERO, _OPEN, _CLOSE = b",0[]"
_ZERO_RUN = 32  # `0` bytes in a row that _sparse_window follows; %.17g writes at most 16
# whitespace to b" ", brackets and commas to b",", every other byte to b"a"
_CLASSES = bytes(
    ord(" ") if c in _WHITESPACE else _COMMA if c in b",[]" else ord("a") for c in range(256)
)


def _read_dense(padded: bytes, values: np.ndarray) -> int:
    """Parse every token of `padded`, a comma-separated list of JSON
    numbers with a comma at each end, into the head of `values`; returns
    the token count."""
    parsed = np.array(json.loads(b"[" + memoryview(padded)[1:-1] + b"]"), np.float64)
    if parsed.size > values.size:
        raise ValueError(f"{parsed.size} numbers for {values.size} leaves")
    values[: parsed.size] = parsed
    return parsed.size


def _leaf_index(offsets: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The C-order leaf indexes of the leaves at `offsets` in
    _nested("0", shape), the inverse of _format_floats's offsets: on each
    level one "[" and then whole blocks, each with its comma, before the
    leaf."""
    index = np.zeros_like(offsets)
    for size, stride in zip(shape, _strides(shape)):
        step, offsets = np.divmod(offsets - 1, stride)
        index = index * size + step
    return index


def _joins_numbers(window: bytes) -> bool:
    """Whether deleting the whitespace of `window` would join two tokens
    into one (`1 2`, `12 .5`): fewer runs of token bytes without it than
    with each whitespace byte read as a separator."""
    classes = window.translate(_CLASSES)
    runs = (b"," + classes.replace(b" ", b",")).count(b",a")
    return runs != (b"," + classes.replace(b" ", b"")).count(b",a")


def _sparse_window(window: bytes, tile: bytes, start: int) -> tuple[int, np.ndarray, list] | None:
    """A window of a mostly-zero block, checked against the block's all-`0`
    text, which `tile` holds from offset `start` on: the window's length
    in that text, the offsets there of its tokens other than `0`, and their
    numbers; None when the flat parse cannot vouch for the window.

    Whitespace is deleted first, unless that would join two tokens
    (_joins_numbers). A token is a run of bytes other than brackets and
    commas; the ones holding a byte other than `0` are found by byte
    compares and each replaced by one `0`. The window is vouched for when
    the result is the all-`0` text at `start`: so its skeleton is the
    block's, no number touches a bracket on its wrong side, each other
    token sits in a leaf slot, and every remaining leaf is exactly `0`,
    which json.loads reads as +0.0. Each distinct other token must be made
    of number characters only and parse by json.loads as a finite number;
    `-0` then gives +0.0 too. A token with a run of more than _ZERO_RUN
    `0` bytes is left to the tree walk, so the token search takes a
    bounded number of passes. Held at once: a padded copy of the window,
    one byte mask of it and the replaced text."""
    if any(space in window for space in (b" ", b"\n", b"\r", b"\t")):
        if _joins_numbers(window):
            return None
        window = window.translate(None, _WHITESPACE)
    padded = b"," + window + b","  # a separator at each end
    text = np.frombuffer(padded, np.uint8)
    other = text != _ZERO
    for byte in (_COMMA, _OPEN, _CLOSE):
        other &= text != byte
    marks = np.flatnonzero(other)
    del other
    # a token: its marked bytes and the `0` bytes between them, then the
    # `0` bytes on either side
    ends = marks + 1
    for _ in range(_ZERO_RUN):
        more = text[ends] == _ZERO
        if not more.any():
            break
        ends += more
    else:
        return None
    first = np.ones(marks.size + 1, dtype=bool)  # and one past the last mark
    first[1:-1] = ends[:-1] != marks[1:]
    starts, ends = marks[first[:-1]], ends[first[1:]]
    for _ in range(_ZERO_RUN):
        more = text[starts - 1] == _ZERO
        if not more.any():
            break
        starts -= more
    else:
        return None
    del text
    excess = ends - starts - 1  # bytes each token has beyond its `0`
    cuts, ends = starts.tolist(), ends.tolist()
    view = memoryview(padded)  # slices without copies, joined once
    zeroed = b"0".join([view[a:b] for a, b in zip([1, *ends], [*cuts, -1])])
    if not tile.startswith(zeroed, start):
        return None
    tokens = [padded[a:b] for a, b in zip(cuts, ends)]
    numbers = {}
    for token in set(tokens):
        if token.translate(None, _NUMBER_CHARS):
            return None
        try:
            number = float(json.loads(token))
        except (ValueError, OverflowError):
            return None
        if not math.isfinite(number):
            return None
        numbers[token] = number
    # a token's offset in the replaced text: its own, less the separator
    # and what the tokens before it had beyond their `0`
    offsets = starts - 1 - (np.cumsum(excess) - excess)
    return len(zeroed), offsets, [numbers[token] for token in tokens]


def _glued(window: bytes) -> bool:
    """Whether a number touches a bracket on its wrong side (`5[`, `] 5`)
    in a window whose bracket/comma skeleton checked out, so that besides
    whitespace it holds only brackets, commas and number characters: a
    byte other than `,` or `]` after a `]`, or other than `,` or `[`
    before a `[`, with whitespace dropped."""
    if any(space in window for space in (b" ", b"\n", b"\r", b"\t")):
        window = window.translate(None, _WHITESPACE)
    text = np.frombuffer(window, np.uint8)
    before, after = text[:-1], text[1:]
    for bracket, side, other in ((_CLOSE, before, after), (_OPEN, after, before)):
        mark = side == bracket
        mark &= other != _COMMA
        mark &= other != bracket
        if mark.any():
            return True
    return False


def _read_block(read, length: int, count: int, d: int) -> np.ndarray | None:
    """The leaves, in C order, of a matrix block of shape (count, d, d, 2)
    whose `length` bytes before its closing bracket `read(size)`
    returns in turn, as bytes; None when the block does not have that
    bracket/comma skeleton, holds a number beside a bracket on the wrong
    side (`5[`, `] 5`) or holds a token that is not a finite JSON number.

    The block is read in windows of at most _WINDOW bytes, each ending
    before a comma, so no token is split. A mostly-zero block, whose
    number text averages at most 4 bytes a leaf, has each window compared
    with its stretch of the block's all-`0` text (_sparse_window), and the
    numbers of its other tokens put at their leaves. Any other block has
    each window checked against its stretch of the skeleton (one translate
    deletes every number and whitespace byte), checked for a glued number
    by byte compares (_glued), stripped of its brackets and parsed into its
    stretch of the value array. Either text is one matrix's, tiled. The
    value array is the only allocation the size of the table; the rest is
    one window's, and the tile, at most a window and two matrices' text."""
    size = count * d * d * 2
    unit = 6 * d * d + 2 * d + 2  # one matrix's all-`0` text and the comma after it
    if length < count * unit:
        return None  # too short to hold the shape: build nothing from meta
    brackets = 2 * (1 + count * (1 + d * (1 + d)))
    sparse = length + 1 - brackets <= 4 * size
    if not sparse:
        unit -= 2 * d * d  # the skeleton's
    reps = min(_WINDOW, length) // unit + 2  # so a window's stretch fits from any offset
    tile = b"[" + (_nested("0" if sparse else "", (d, d, 2)) + ",").encode() * reps
    values = np.zeros(size)
    at = done = 0  # the tile's bytes matched and the leaves parsed (dense) so far
    lead = b","  # the first window starts at a token, the others at a comma
    window, left = b"", length
    while left > 0 or window:
        if left > 0:
            chunk = read(min(_WINDOW - len(window), left))
            if not chunk:
                return None  # the source ended early
            window += chunk
            left -= len(chunk)
        rest = b""
        if left > 0:  # end the window before its last comma
            cut = window.rfind(b",", 1)
            if cut < 1:
                return None  # a token longer than a window
            window, rest = window[:cut], window[cut:]
        start = at and 1 + (at - 1) % unit
        if sparse:
            found = _sparse_window(window, tile, start)
            if found is None or at + found[0] > count * unit:
                return None
            stretch, offsets, numbers = found
            values[_leaf_index(at + offsets, (count, d, d, 2))] = numbers
        else:
            skeleton = window.translate(None, _NUMBER_CHARS + _WHITESPACE)
            stretch = len(skeleton)
            if at + stretch > count * unit:
                return None
            if not tile.startswith(skeleton, start) or _glued(window):
                return None
            flat = window.translate(None, b"[]")
            del skeleton
            try:
                read_now = _read_dense(lead + flat + b",", values[done:])
            except (ValueError, OverflowError):
                return None
            if not np.isfinite(values[done : done + read_now]).all():
                return None
            done += read_now
        at += stretch
        window, lead = rest, b""
    return values if at == count * unit and (sparse or done == size) else None


class _TextSource:
    """A str as _load_stream reads it: read(size) encodes the next `size`
    characters only, so the str API holds a window of bytes beside its
    text. A text that is not ASCII, whose byte and character offsets
    differ, reads as empty, which the stream declines."""

    def __init__(self, text: str):
        self.text, self.at = (text if text.isascii() else ""), 0

    def seek(self, at: int, whence: int = os.SEEK_SET) -> int:
        self.at = at + (len(self.text) if whence == os.SEEK_END else 0)
        return self.at

    def read(self, size: int = -1) -> bytes:
        start, self.at = self.at, len(self.text) if size < 0 else self.at + size
        return self.text[start : self.at].encode()


def _load_stream(source) -> tuple[dict, np.ndarray] | None:
    """What `_load_tree` returns for the document `source` holds, read
    through its `read` and `seek` a window at a time and without a Python
    list per matrix row and [re, im] pair; None when the document is not
    one this path can vouch for.

    The key must lie in the first _EDGE bytes and the block's closing
    bracket in the last _EDGE: the block's end is the last `]` before the
    tail's first quote, which is the first quote after the key because the
    block check admits none. The document with its `matrices` value
    replaced by `null` is parsed and checked as usual; a backslash or a
    second `matrices` key in the head or the tail, which could make the
    cut one that is not top-level, is declined. The block must then have
    the bracket/comma skeleton of shape (n * m, d, d, 2) and hold no number
    beside a bracket on the wrong side, so each leaf slot holds exactly one
    token (_read_block)."""
    head = source.read(_EDGE)
    key = None if b"\\" in head else _BLOCK_KEY_BYTES.search(head)
    if key is None or head.find(b'"matrices"') != key.start():
        return None
    start = key.end()
    tail_at = max(start, source.seek(0, os.SEEK_END) - _EDGE)
    source.seek(tail_at)
    tail = source.read()
    quote = tail.find(b'"')
    end = tail.rfind(b"]", 0, len(tail) if quote < 0 else quote) + 1
    if not end or b"\\" in tail or tail.find(b'"matrices"', end) >= 0:
        return None
    try:
        doc = json.loads((head[:start] + b"null" + tail[end:]).decode("utf-8"))
        meta, count, d = _check_header(doc)
    except (ValueError, RecursionError):  # not UTF-8 and SchemaError too
        return None
    del head, tail
    source.seek(start)
    values = _read_block(source.read, tail_at + end - 1 - start, count, d)
    return None if values is None else (meta, values.view(complex).reshape(count, d, d))


def _load(text: str) -> tuple[dict, np.ndarray]:
    """Parse a document into its meta and its complex (n * m, d, d) stack."""
    loaded = _load_stream(_TextSource(text))
    return _load_tree(text) if loaded is None else loaded


# ---------------------------------------------------------------------------
# steering functionals (matrices listed setting-major: setting x = 0 first,
# outcomes within it in order)


def write_functional(functional: SteeringFunctional, write) -> None:
    """Write the functional's file through `write`, a window at a time."""
    write_canonical(_document(functional), write)


def functional_to_json(functional: SteeringFunctional) -> str:
    return canonical_dumps(_document(functional))


def _functional(meta: dict, stack: np.ndarray) -> SteeringFunctional:
    table = stack.reshape(meta["n"], meta["m"], meta["d"], meta["d"])
    return SteeringFunctional._adopt(table, kind=meta["kind"], seed=meta["seed"])


def functional_from_json(text: str) -> SteeringFunctional:
    return _functional(*_load(text))


def load_functional(path) -> SteeringFunctional:
    """The functional of the file at `path`, read through _load_stream: a
    regular file a window at a time, any other file (a pipe, a device)
    from the bytes it gives once. A file the stream cannot vouch for is
    read as UTF-8 text and goes to the tree walk."""
    with open(path, "rb") as file:
        regular = stat.S_ISREG(os.fstat(file.fileno()).st_mode)
        source = file if regular else io.BytesIO(file.read())
        loaded = _load_stream(source)
        if loaded is None:
            source.seek(0)
            try:
                text = io.TextIOWrapper(source, encoding="utf-8").read()
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
            loaded = _load_tree(text)
    return _functional(*loaded)
