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
for format codes; when the number text averages at most
4 bytes a leaf, the reader sets each token that is exactly `0` to +0.0,
as json.loads would, and parses only the others. Denser stacks take one
template and one list of every leaf, which their per-leaf bookkeeping
would only slow down.

`_load` first tries `_load_flat`, which never builds the nested lists:
it parses the document with the matrix block cut out, then reads the
block in windows of 64 KiB (`_read_block`). Each window takes two
translates and a few byte compares: its bracket/comma skeleton is checked
against the shape the meta gives, a number glued to a bracket on the
wrong side is looked for, and its brackets are deleted, leaving a flat
JSON list whose numbers go into the window's stretch of the value array.
The value array is the load's one table-sized allocation: the per-byte
masks, the parsed numbers and the text's copies are one window's, and the
skeleton it is checked against is one matrix's, tiled. Every file this
module writes takes this path, and so does any whitespace layout of one.
Anything it cannot vouch for (an escaped key, a duplicated key, a
malformed block, a token longer than a window) goes to `_load_tree`, the
plain json.loads walk, which accepts the same documents, returns the same
bits, and raises every SchemaError. Loaders validate strictly: unknown
keys, wrong shapes, unknown kinds, values that are not numbers and
non-finite values (NaN, Infinity) are all rejected with SchemaError.

`load_functional` does not read a file's text whole: `_load_file` finds
the key in the file's first window and the meta in its last, and hands
the block, read from the file in windows, to the same `_read_block`. A
file it cannot vouch for that way is read as text and goes through
`_load`. `functional_from_json` and `load_functional` hand their value
array to the functional without a copy (SteeringFunctional._adopt).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import SchemaError
from .functionals import KINDS, SteeringFunctional

META_KEYS = ("kind", "d", "n", "m", "seed", "version")
# characters of the block checked and parsed at a time, and read from a
# file at a time: on a full-dim n = 7 table (a 1.4 MB text) as fast as
# 256 KiB and faster than 1 MiB; a quarter of it in leaves written at a time
_WINDOW = 1 << 16


# ---------------------------------------------------------------------------
# canonical emitter


def _nested(leaf: str, shape: tuple[int, ...]) -> str:
    """Nested JSON arrays of `shape` with every leaf written as `leaf`."""
    for size in reversed(shape):
        leaf = "[" + ",".join([leaf] * size) + "]"
    return leaf


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
    if 4 * nonzero.size > flat.size or values.ndim == 0:
        template = _nested("%.17g", values.shape)
        return template % tuple(np.where(flat == 0.0, 0.0, flat).tolist())
    skeleton = _nested("0", values.shape)
    # a leaf's offset: one "[" per level, and on each level the blocks
    # (with their commas) before it; `block` is the length of one block
    index = np.unravel_index(nonzero, values.shape)
    offsets = np.full(nonzero.size, values.ndim)
    block = 1
    for axis in reversed(range(values.ndim)):
        offsets += index[axis] * (block + 1)
        block = values.shape[axis] * (block + 1) + 1
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
    sub-array in turn."""
    budget = _WINDOW // 4
    if values.ndim == 0 or values.size <= budget:
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
    return _format_floats(np.asarray(x, dtype=np.float64))


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


_BLOCK_KEY = re.compile(r'"matrices"[ \t\n\r]*:[ \t\n\r]*(?=\[)')
_BLOCK_KEY_BYTES = re.compile(_BLOCK_KEY.pattern.encode())
_NUMBER_CHARS = b"0123456789+-.eE"
_WHITESPACE = b" \t\n\r"
_COMMA, _ZERO, _OPEN, _CLOSE = b",0[]"


def _read_dense(padded: bytes, values: np.ndarray) -> int:
    """Parse every token of `padded`, a comma-separated list of JSON
    numbers with a comma at each end, into the head of `values`; returns
    the token count."""
    parsed = np.array(json.loads(b"[" + memoryview(padded)[1:-1] + b"]"), np.float64)
    if parsed.size > values.size:
        raise ValueError(f"{parsed.size} numbers for {values.size} leaves")
    values[: parsed.size] = parsed
    return parsed.size


def _read_sparse(padded: bytes, values: np.ndarray) -> int:
    """What _read_dense does, into a zeroed `values`, parsing only the
    tokens that are not exactly `0`.

    A `0` token and its comma take exactly two bytes, so the other token
    that starts after the comma at offset q is leaf (q - e) / 2, where e
    sums the earlier other tokens' lengths beyond one byte. So no array
    over all tokens is built: only per-byte masks of `padded` and the other
    tokens' offsets."""
    text = np.frombuffer(padded, np.uint8)
    comma = text == _COMMA
    other = comma[:-2] & comma[2:]
    other &= text[1:-1] == _ZERO
    np.logical_not(other, out=other)  # False at the comma before each `0` token
    starts = comma[:-1].copy()
    starts[:-1] &= other
    ends = comma[1:]  # a view: comma is not read again
    ends[1:] &= other
    starts, ends = np.flatnonzero(starts), np.flatnonzero(ends) + 1
    del text, comma, other
    excess = np.cumsum(ends - starts - 2)  # lengths beyond one byte, through each token
    count = (len(padded) - 1 - int(excess[-1] if excess.size else 0)) // 2
    if count > values.size:
        raise ValueError(f"{count} numbers for {values.size} leaves")
    if starts.size:
        tokens = b",".join([padded[a + 1 : b] for a, b in zip(starts.tolist(), ends.tolist())])
        excess -= ends - starts - 2  # ... and before it
        values[(starts - excess) // 2] = np.array(json.loads(b"[" + tokens + b"]"), np.float64)
    return count


def _parse_leaves(flat: bytes, size: int) -> np.ndarray:
    """The `size` comma-separated JSON numbers of `flat` as float64, with
    the errors json.loads and np.array raise on them.

    When the text averages at most 4 bytes a leaf, so most leaves are the
    token `0`, _read_sparse takes it: byte compares mark the commas and
    each token that is exactly `0`, which stays +0.0 as json.loads gives
    it, and the other tokens are found by their offsets, joined and parsed
    as one list. Otherwise _read_dense parses every token. Held beside the
    result: a padded copy of the text, three per-byte masks and the parsed
    numbers, which in _read_block, reading one window at a time, are one
    window's."""
    values = np.zeros(size)
    read = _read_dense if len(flat) > 4 * size else _read_sparse
    if read(b"," + flat + b",", values) != size:
        raise ValueError(f"expected {size} numbers")
    return values


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
    whose `length` characters before its closing bracket `read(size)`
    returns in turn, as bytes; None when the block does not have that
    bracket/comma skeleton, holds a number beside a bracket on the wrong
    side (`5[`, `] 5`) or holds a token that is not a finite JSON number.

    The block is read in windows of at most _WINDOW bytes, each ending
    before a comma, so no token is split. Each window is checked against
    its stretch of the skeleton (one translate deletes every number and
    whitespace byte, and the stretch is a slice of one matrix's skeleton,
    tiled), checked for a glued number by byte compares (_glued), stripped
    of its brackets and parsed into its stretch of the value array. The
    value array is the only allocation the size of the table; the rest is
    one window's, and the tile, at most a window and two matrices'
    skeletons."""
    size = count * d * d * 2
    unit = 4 * d * d + 2 * d + 2  # one matrix's skeleton and the comma after it
    if length + 1 < count * unit + 1 + size:
        return None  # too short to hold the shape: build nothing from meta
    brackets = 2 * (1 + count * (1 + d * (1 + d)))
    parse = _read_dense if length + 1 - brackets > 4 * size else _read_sparse
    reps = min(_WINDOW, length) // unit + 2  # so a window's stretch fits from any offset
    tile = b"[" + (_nested("", (d, d, 2)) + ",").encode() * reps
    values = np.zeros(size)
    at = done = 0  # the skeleton's bytes checked and the leaves read so far
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
        skeleton = window.translate(None, _NUMBER_CHARS + _WHITESPACE)
        if at + len(skeleton) > count * unit:
            return None
        if not tile.startswith(skeleton, at and 1 + (at - 1) % unit) or _glued(window):
            return None
        at += len(skeleton)
        flat = window.translate(None, b"[]")
        del window, skeleton
        try:
            read_now = parse(lead + flat + b",", values[done:])
        except (ValueError, OverflowError):
            return None
        if not np.isfinite(values[done : done + read_now]).all():
            return None
        done += read_now
        window, lead = rest, b""
    return values if at == count * unit and done == size else None


def _text_reader(text: str, start: int):
    """read(size) for _read_block: the next `size` characters of `text`
    from `start` on, encoded (a lone surrogate too, which the block check
    then rejects)."""
    at = start

    def read(size: int) -> bytes:
        nonlocal at
        at += size
        return text[at - size : at].encode(errors="surrogatepass")

    return read


def _read_document(rest, read, length: int) -> tuple[dict, np.ndarray] | None:
    """The meta and the stack of a document whose text with its matrix
    block replaced by `null` is `rest`, and whose block _read_block reads
    through `read`; None when either is not one the flat parse vouches
    for."""
    try:
        doc = json.loads(rest)
        meta, count, d = _check_header(doc)
    except (ValueError, RecursionError):
        return None
    values = _read_block(read, length, count, d)
    return None if values is None else (meta, values.view(complex).reshape(count, d, d))


def _load_flat(text: str) -> tuple[dict, np.ndarray] | None:
    """What `_load_tree` returns for `text`, parsed without a Python list
    per matrix row and [re, im] pair, or None when the document is not one
    this path can vouch for.

    The `matrices` value is cut out, and the rest is parsed and checked as
    usual. The block must then have the bracket/comma skeleton of shape
    (n * m, d, d, 2) and hold no number beside a bracket on the wrong side,
    so each leaf slot holds exactly one token: deleting the brackets
    leaves a flat JSON list of the same tokens in C order (_read_block)."""
    key = None if "\\" in text else _BLOCK_KEY.search(text)
    if key is None or text.find('"matrices"') != key.start():
        return None
    start = key.end()
    quote = text.find('"', start)  # the block holds none
    end = text.rfind("]", start, len(text) if quote < 0 else quote) + 1
    if end <= start or text.find('"matrices"', end) >= 0:
        return None  # the key is not the only one, so maybe not the top-level one
    rest = text[:start] + "null" + text[end:]
    return _read_document(rest, _text_reader(text, start), end - 1 - start)


def _load_file(path) -> tuple[dict, np.ndarray] | None:
    """What _load_flat returns for the text of the file at `path`, read
    from the file a window at a time, or None when that cannot be vouched
    for from the file's first and last window and its block.

    The key must lie in the first window and the block's closing bracket
    in the last: the block's end is the last `]` before the last window's
    first quote, which is the first quote after the key because the block
    check admits none. Every other condition _load_flat tests on the whole
    text is tested on these windows or implied by the block check, so
    where this accepts, _load_flat accepts the same cut."""
    with open(path, "rb") as file:
        head = file.read(_WINDOW)
        key = None if b"\\" in head else _BLOCK_KEY_BYTES.search(head)
        if key is None or head.find(b'"matrices"') != key.start():
            return None
        start = key.end()
        tail_at = max(start, os.fstat(file.fileno()).st_size - _WINDOW)
        file.seek(tail_at)
        tail = file.read()
        quote = tail.find(b'"')
        end = tail.rfind(b"]", 0, len(tail) if quote < 0 else quote) + 1
        if not end or b"\\" in tail or tail.find(b'"matrices"', end) >= 0:
            return None
        try:
            rest = (head[:start] + b"null" + tail[end:]).decode("utf-8")
        except UnicodeDecodeError:
            return None
        del head, tail
        file.seek(start)
        return _read_document(rest, file.read, tail_at + end - 1 - start)


def _load(text: str) -> tuple[dict, np.ndarray]:
    """Parse a document into its meta and its complex (n * m, d, d) stack."""
    loaded = _load_flat(text)
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
    """The functional of the file at `path`. A regular file's block is
    read from the file a window at a time (_load_file); any other file,
    and any file that path cannot vouch for, is read as text."""
    loaded = _load_file(path) if Path(path).is_file() else None
    if loaded is None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
        loaded = _load(text)
        del text
    return _functional(*loaded)
