"""Canonical JSON encoding for functionals, assemblages and families.

Every file kind is one document {"meta", "matrices"}: `meta` names the
kind and its sizes, and `matrices` is a stack of complex d x d matrices
written as nested lists of [re, im] pairs, row-major - universally
parseable, no binary formats. One codec serves all four kinds: `_dump`
writes a complex stack through the emitter's float-array branch, the only
code that writes matrix data, and `_load` parses it back. Keys are emitted
sorted and floats with 17 significant digits, zeros as `0`, so loading a
file and re-serializing it reproduces identical bytes.

Both directions cost what a mostly-zero stack holds, such as the
full-dimensional Pauli tables with one nonzero entry per row. When at
most a quarter of the leaves are nonzero, the writer formats only those,
into the all-`0` skeleton; when the number text averages at most 4
bytes a leaf, the reader sets each token that is exactly `0` to +0.0,
as json.loads would, and parses only the others. Denser stacks take one
template and one list of every leaf, which their per-leaf bookkeeping
would only slow down.

`_load` first tries `_load_flat`, which never builds the nested lists:
it parses the document with the matrix block cut out, checks the block's
bracket/comma skeleton against the shape the meta gives, and parses the
numbers as one flat JSON list. Every file this module writes takes it, and
so does any whitespace layout of one. Anything it cannot vouch for (an
escaped key, a duplicated key, a malformed block) goes to `_load_tree`,
the plain json.loads walk, which accepts the same documents, returns the
same bits, and raises every SchemaError. Loaders validate strictly:
unknown keys, wrong shapes, unknown kinds, values that are not numbers and
non-finite values (NaN, Infinity) are all rejected with SchemaError.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from ._version import __version__
from .clifford import CliffordFamily, verify_anticommutation
from .errors import SchemaError
from .functionals import KINDS, Assemblage, SteeringFunctional
from .mub import MubFamily, verify_unbiasedness

META_KEYS = ("kind", "d", "n", "m", "seed", "version")


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

    When at most a quarter of the leaves are nonzero, the template is the
    all-`0` skeleton with "%.17g" spliced in at the nonzero leaves' offsets,
    so only those are formatted; otherwise every leaf is."""
    if not np.isfinite(values).all():
        raise SchemaError("non-finite values cannot be serialized")
    flat = values.ravel()
    if 4 * np.count_nonzero(flat) > flat.size or values.ndim == 0:
        template = _nested("%.17g", values.shape)
        return template % tuple(np.where(flat == 0.0, 0.0, flat).tolist())
    skeleton = _nested("0", values.shape)
    nonzero = np.flatnonzero(flat)
    # a leaf's offset: one "[" per level, and on each level the blocks
    # (with their commas) before it; `block` is the length of one block
    index = np.unravel_index(nonzero, values.shape)
    offsets = np.full(nonzero.size, values.ndim)
    block = 1
    for axis in reversed(range(values.ndim)):
        offsets += index[axis] * (block + 1)
        block = values.shape[axis] * (block + 1) + 1
    cuts = offsets.tolist()
    pieces = [skeleton[a:b] for a, b in zip([0, *(c + 1 for c in cuts)], [*cuts, len(skeleton)])]
    return "%.17g".join(pieces) % tuple(flat[nonzero].tolist())


def format_float(x: float) -> str:
    return _format_floats(np.asarray(x, dtype=np.float64))


def _emit(obj, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise SchemaError(f"non-string key {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        out.append(_format_floats(obj))
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    out: list = []
    _emit(obj, out)
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# matrix-stack codec


def _dump(kind: str, stack: np.ndarray, n: int, m: int, seed) -> str:
    """Document of `kind` holding the complex d x d matrices of `stack` in
    C order, written as the (count, d, d, 2) real view."""
    stack = np.ascontiguousarray(stack, dtype=complex)
    d = stack.shape[-1]
    meta = {
        "kind": kind,
        "d": int(d),
        "n": int(n),
        "m": int(m),
        "seed": None if seed is None else int(seed),
        "version": __version__,
    }
    matrices = stack.view(np.float64).reshape(-1, d, d, 2)
    return canonical_dumps({"meta": meta, "matrices": matrices})


def _check_header(doc, kind: str) -> tuple[dict, int, int]:
    """Validate the top-level keys and the meta record of a parsed document
    of `kind`; returns the meta, the matrix count n * m and d."""
    if not isinstance(doc, dict) or set(doc) != {"meta", "matrices"}:
        raise SchemaError('document must have exactly the keys "meta" and "matrices"')
    meta = doc["meta"]
    if not isinstance(meta, dict) or set(meta) != set(META_KEYS):
        raise SchemaError(f"meta must have exactly the keys {sorted(META_KEYS)}")
    kinds = KINDS if kind == "functional" else (kind,)
    if meta["kind"] not in kinds:
        raise SchemaError(f"unknown {kind} kind {meta['kind']!r}, expected one of {kinds}")
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


def _load_tree(text: str, kind: str) -> tuple[dict, np.ndarray]:
    """Parse a document of `kind` ("functional" accepts every functional
    kind) into its meta and its complex (n * m, d, d) matrix stack, through
    the nested lists json builds. Accepts every valid document, and is the
    one source of SchemaError messages."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
    meta, count, d = _check_header(doc, kind)
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
_NUMBER_CHARS = b"0123456789+-.eE"
_AS_ZERO = bytes.maketrans(_NUMBER_CHARS, b"0" * len(_NUMBER_CHARS))


def _parse_leaves(flat: bytes, size: int) -> np.ndarray:
    """The `size` comma-separated JSON numbers of `flat` as float64, with
    the errors json.loads and np.array raise on them.

    When the text averages at most 4 bytes a leaf, so most leaves are the
    token `0`, each token that is exactly `0` is set to +0.0, as json.loads
    gives it, and only the others are parsed, as one flat list; otherwise
    every token is. The masks are per byte, so no index array per leaf is
    built."""
    if len(flat) > 4 * size:
        return np.array(json.loads(b"[" + flat + b"]"), np.float64)
    text = np.frombuffer(b"," + flat + b",", np.uint8)
    comma = text == ord(",")
    other = text[1:-1] == ord("0")
    other &= comma[:-2]
    other &= comma[2:]
    np.logical_not(other, out=other)  # False where byte i is the comma before a `0` token
    keep = np.ones(text.size, bool)  # drops each zero token and the comma before it
    keep[:-2] &= other
    keep[1:-1] &= other
    keep[-1] = False
    other = other[comma[:-2]]  # per token
    values = np.zeros(other.size)
    values[other] = np.array(json.loads(b"[" + text[keep].tobytes()[1:] + b"]"), np.float64)
    return values


def _load_flat(text: str, kind: str) -> tuple[dict, np.ndarray] | None:
    """What `_load_tree` returns for `text`, parsed without a Python list
    per matrix row and [re, im] pair, or None when the document is not one
    this path can vouch for.

    The `matrices` value is cut out, and the rest is parsed and checked as
    usual. The block must then have the bracket/comma skeleton of shape
    (n * m, d, d, 2) and hold no number beside a bracket on the wrong side
    (`5[`, `] 5`), so each leaf slot holds exactly one token: deleting
    the brackets leaves a flat JSON list of the same tokens in C order."""
    if "\\" in text or text.count('"matrices"') != 1:
        return None  # so the key that matches below is the top-level one
    key = _BLOCK_KEY.search(text)
    if key is None:
        return None
    start = key.end()
    quote = text.find('"', start)  # the block holds none
    end = text.rfind("]", start, len(text) if quote < 0 else quote) + 1
    if end <= start:
        return None
    try:
        doc = json.loads(text[:start] + "null" + text[end:])
        meta, count, d = _check_header(doc, kind)
    except (ValueError, RecursionError):
        return None
    block = text[start:end].encode()
    skeleton_size = 0
    for size in (2, d, d, count):
        skeleton_size = size * skeleton_size + size + 1
    if len(block) < skeleton_size + 2 * count * d * d:
        return None  # too short to hold the shape: build nothing from meta
    skeleton = b""
    for size in (2, d, d, count):
        skeleton = b"[" + b",".join([skeleton] * size) + b"]"
    classes = block.translate(_AS_ZERO, b" \t\n\r")
    if b"0[" in classes or b"]0" in classes or classes.translate(None, b"0") != skeleton:
        return None
    flat = block.translate(None, b"[]")
    del block, classes, skeleton  # copies near the text's size, else alive through the parse
    try:
        values = _parse_leaves(flat, count * d * d * 2)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(values).all():
        return None
    return meta, values.view(complex).reshape(count, d, d)


def _load(text: str, kind: str) -> tuple[dict, np.ndarray]:
    """Parse a document of `kind` ("functional" accepts every functional
    kind) into its meta and its complex (n * m, d, d) matrix stack."""
    loaded = _load_flat(text, kind)
    return _load_tree(text, kind) if loaded is None else loaded


# ---------------------------------------------------------------------------
# steering functionals and assemblages (matrices listed setting-major:
# setting x = 0 first, outcomes within it in order)


def functional_to_json(functional: SteeringFunctional) -> str:
    return _dump(
        functional.kind, functional.coefficients, functional.n, functional.m, functional.seed
    )


def functional_from_json(text: str) -> SteeringFunctional:
    meta, stack = _load(text, "functional")
    table = stack.reshape(meta["n"], meta["m"], meta["d"], meta["d"])
    return SteeringFunctional.from_table(table, kind=meta["kind"], seed=meta["seed"])


def load_functional(path) -> SteeringFunctional:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    return functional_from_json(text)


def assemblage_to_json(assemblage: Assemblage) -> str:
    return _dump("assemblage", assemblage.members, assemblage.n, assemblage.m, None)


def assemblage_from_json(text: str) -> Assemblage:
    meta, stack = _load(text, "assemblage")
    return Assemblage(members=stack.reshape(meta["n"], meta["m"], meta["d"], meta["d"]))


# ---------------------------------------------------------------------------
# basis and observable families (one matrix per family element, m = 1; for
# a basis family the rows of each matrix are its vectors)


def _load_family(text: str, kind: str) -> np.ndarray:
    meta, stack = _load(text, kind)
    if meta["m"] != 1:
        raise SchemaError(f"a {kind} file has m = 1, found {meta['m']}")
    stack.setflags(write=False)
    return stack


def mub_family_to_json(family: MubFamily) -> str:
    return _dump("mub-family", family.bases, family.count, 1, None)


def mub_family_from_json(text: str) -> MubFamily:
    family = MubFamily(bases=_load_family(text, "mub-family"))
    if not verify_unbiasedness(family).passed:
        raise SchemaError("file does not contain a mutually unbiased family")
    return family


def clifford_family_to_json(family: CliffordFamily) -> str:
    return _dump("clifford-family", family.observables, family.count, 1, None)


def clifford_family_from_json(text: str) -> CliffordFamily:
    observables = _load_family(text, "clifford-family")
    d = observables.shape[1]
    qubits = d.bit_length() - 1
    if 2**qubits != d:
        raise SchemaError(f"observable dimension must be a power of two, got {d}")
    family = CliffordFamily(qubits=qubits, observables=observables)
    if not verify_anticommutation(family).passed:
        raise SchemaError("file does not contain an anticommuting family")
    return family
