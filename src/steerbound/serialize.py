"""Canonical JSON encoding for functionals, assemblages and families.

Every file kind is one document {"meta", "matrices"}: `meta` names the
kind and its sizes, and `matrices` is a stack of complex d x d matrices
written as nested lists of [re, im] pairs, row-major - universally
parseable, no binary formats. One codec serves all four kinds: `_dump`
writes a complex stack through the emitter's float-array branch, the only
code that writes matrix data, and `_load` parses it back with every schema
check in one place. Keys are emitted sorted and floats with 17 significant
digits, so loading a file and re-serializing it reproduces identical
bytes. Loaders validate strictly: unknown keys, wrong shapes, unknown
kinds, values that are not numbers and non-finite values (NaN, Infinity)
are all rejected with SchemaError.
"""

from __future__ import annotations

import json
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


def _format_floats(values: np.ndarray) -> str:
    """Nested JSON arrays of `values`, each written with 17 significant
    digits; -0.0 is written as 0 and non-finite values are rejected."""
    if not np.isfinite(values).all():
        raise SchemaError("non-finite values cannot be serialized")
    template = "%.17g"
    for size in reversed(values.shape):
        template = "[" + ",".join([template] * size) + "]"
    return template % tuple(np.where(values == 0.0, 0.0, values).ravel().tolist())


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


def _load(text: str, kind: str) -> tuple[dict, np.ndarray]:
    """Parse a document of `kind` ("functional" accepts every functional
    kind) into its meta and its complex (n * m, d, d) matrix stack."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
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
    count, d = meta["n"] * meta["m"], meta["d"]
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
    return functional_from_json(Path(path).read_text())


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
