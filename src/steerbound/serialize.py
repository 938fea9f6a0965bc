"""Canonical JSON encoding for operators, functionals and families.

Complex scalars serialize as [re, im] pairs and matrices as row-major
nested lists - universally parseable, no binary formats. Keys are emitted
sorted and floats with 17 significant digits, so loading a file and
re-serializing it reproduces identical bytes. Loaders validate strictly:
unknown keys, wrong shapes and unknown kinds are all rejected.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ._version import __version__
from .clifford import CliffordFamily, verify_anticommutation
from .errors import SchemaError
from .functionals import KINDS, Assemblage, SteeringFunctional
from .mub import MubFamily, verify_unbiasedness

META_KEYS = ("kind", "d", "n", "m", "seed", "version")
FAMILY_KINDS = ("mub-family", "clifford-family")


# ---------------------------------------------------------------------------
# canonical emitter


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise SchemaError("non-finite values cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


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
# matrix codec


def matrix_to_lists(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, dtype=complex)]


def lists_to_matrix(data, d: int) -> np.ndarray:
    if not isinstance(data, list) or len(data) != d:
        raise SchemaError(f"matrix must have {d} rows")
    out = np.empty((d, d), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != d:
            raise SchemaError(f"matrix row {i} must have {d} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                raise SchemaError(f"matrix entry ({i},{j}) must be a [re, im] pair")
            out[i, j] = complex(entry[0], entry[1])
    return out


def _parse_document(text: str) -> tuple[dict, list]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"meta", "matrices"}:
        raise SchemaError('document must have exactly the keys "meta" and "matrices"')
    meta = doc["meta"]
    if not isinstance(meta, dict) or set(meta) != set(META_KEYS):
        raise SchemaError(f"meta must have exactly the keys {sorted(META_KEYS)}")
    for key in ("d", "n", "m"):
        if not isinstance(meta[key], int) or isinstance(meta[key], bool) or meta[key] < 1:
            raise SchemaError(f"meta.{key} must be a positive integer")
    if meta["seed"] is not None and (
        not isinstance(meta["seed"], int) or isinstance(meta["seed"], bool)
    ):
        raise SchemaError("meta.seed must be an integer or null")
    if not isinstance(meta["version"], str):
        raise SchemaError("meta.version must be a string")
    matrices = doc["matrices"]
    if not isinstance(matrices, list):
        raise SchemaError("matrices must be a list")
    return meta, matrices


def _meta(kind: str, d: int, n: int, m: int, seed) -> dict:
    return {
        "kind": kind,
        "d": int(d),
        "n": int(n),
        "m": int(m),
        "seed": None if seed is None else int(seed),
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# steering functionals


def functional_to_json(functional: SteeringFunctional) -> str:
    """Matrices are listed setting-major: x = 0 row group first, outcomes
    within it in order."""
    matrices = [
        matrix_to_lists(functional.coefficients[x, a])
        for x in range(functional.n)
        for a in range(functional.m)
    ]
    meta = _meta(functional.kind, functional.d, functional.n, functional.m, functional.seed)
    return canonical_dumps({"meta": meta, "matrices": matrices})


def functional_from_json(text: str) -> SteeringFunctional:
    meta, matrices = _parse_document(text)
    if meta["kind"] not in KINDS:
        raise SchemaError(f"unknown functional kind {meta['kind']!r}")
    n, m, d = meta["n"], meta["m"], meta["d"]
    if len(matrices) != n * m:
        raise SchemaError(f"expected {n * m} matrices, found {len(matrices)}")
    table = np.empty((n, m, d, d), dtype=complex)
    for x in range(n):
        for a in range(m):
            table[x, a] = lists_to_matrix(matrices[x * m + a], d)
    return SteeringFunctional.from_table(table, kind=meta["kind"], seed=meta["seed"])


def load_functional(path) -> SteeringFunctional:
    return functional_from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# assemblages


def assemblage_to_json(assemblage: Assemblage) -> str:
    matrices = [
        matrix_to_lists(assemblage.members[x, a])
        for x in range(assemblage.n)
        for a in range(assemblage.m)
    ]
    meta = _meta("assemblage", assemblage.d, assemblage.n, assemblage.m, None)
    return canonical_dumps({"meta": meta, "matrices": matrices})


def assemblage_from_json(text: str) -> Assemblage:
    meta, matrices = _parse_document(text)
    if meta["kind"] != "assemblage":
        raise SchemaError(f"expected kind 'assemblage', found {meta['kind']!r}")
    n, m, d = meta["n"], meta["m"], meta["d"]
    if len(matrices) != n * m:
        raise SchemaError(f"expected {n * m} matrices, found {len(matrices)}")
    members = np.empty((n, m, d, d), dtype=complex)
    for x in range(n):
        for a in range(m):
            members[x, a] = lists_to_matrix(matrices[x * m + a], d)
    return Assemblage(members=members)


# ---------------------------------------------------------------------------
# basis and observable families (one matrix per family element; for a
# basis family the rows of each matrix are its vectors)


def mub_family_to_json(family: MubFamily) -> str:
    matrices = [matrix_to_lists(family.bases[x]) for x in range(family.count)]
    meta = _meta("mub-family", family.dimension, family.count, 1, None)
    return canonical_dumps({"meta": meta, "matrices": matrices})


def mub_family_from_json(text: str) -> MubFamily:
    meta, matrices = _parse_document(text)
    if meta["kind"] != "mub-family":
        raise SchemaError(f"expected kind 'mub-family', found {meta['kind']!r}")
    n, d = meta["n"], meta["d"]
    if meta["m"] != 1 or len(matrices) != n:
        raise SchemaError(f"expected {n} basis matrices")
    bases = np.stack([lists_to_matrix(m_, d) for m_ in matrices])
    bases.setflags(write=False)
    family = MubFamily(bases=bases)
    if not verify_unbiasedness(family).passed:
        raise SchemaError("file does not contain a mutually unbiased family")
    return family


def clifford_family_to_json(family: CliffordFamily) -> str:
    matrices = [matrix_to_lists(a) for a in family.observables]
    meta = _meta("clifford-family", family.dimension, family.count, 1, None)
    return canonical_dumps({"meta": meta, "matrices": matrices})


def clifford_family_from_json(text: str) -> CliffordFamily:
    meta, matrices = _parse_document(text)
    if meta["kind"] != "clifford-family":
        raise SchemaError(f"expected kind 'clifford-family', found {meta['kind']!r}")
    n, d = meta["n"], meta["d"]
    qubits = d.bit_length() - 1
    if meta["m"] != 1 or len(matrices) != n or 2**qubits != d:
        raise SchemaError("malformed observable family document")
    obs = np.stack([lists_to_matrix(m_, d) for m_ in matrices])
    obs.setflags(write=False)
    family = CliffordFamily(qubits=qubits, observables=obs)
    if not verify_anticommutation(family).passed:
        raise SchemaError("file does not contain an anticommuting family")
    return family
