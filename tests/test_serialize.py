import json
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

import steerbound
from steerbound import (
    SchemaError,
    SteeringFunctional,
    build_clifford_family,
    build_mub_family,
    serialize,
)
from steerbound.cli import main as cli_main
from steerbound.functionals import (
    clifford_functional,
    dichotomic_functional,
    mub_functional,
    random_functional,
)
from steerbound.quantum import canonical_quantum_assemblage
from steerbound.serialize import (
    canonical_dumps,
    functional_from_json,
    functional_to_json,
    load_functional,
)


def test_canonical_dumps_sorted_and_fixed_format():
    text = canonical_dumps({"b": 1.5, "a": [True, None, -0.0]})
    assert text == '{"a":[true,null,0],"b":1.5}\n'


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(SchemaError):
        canonical_dumps({"x": float("nan")})


def _reference_functional_json(functional) -> str:
    """The per-entry emitter the array codec replaced: every entry becomes
    a [re, im] pair of Python floats, written by a recursive emitter."""

    def emit(obj, out):
        if isinstance(obj, dict):
            out.append("{")
            for i, key in enumerate(sorted(obj)):
                out.append("," if i else "")
                out.append(json.dumps(key) + ":")
                emit(obj[key], out)
            out.append("}")
        elif isinstance(obj, list):
            out.append("[")
            for i, item in enumerate(obj):
                out.append("," if i else "")
                emit(item, out)
            out.append("]")
        elif obj is None:
            out.append("null")
        elif isinstance(obj, int):
            out.append(repr(obj))
        elif isinstance(obj, float):
            assert math.isfinite(obj)
            out.append(format(0.0 if obj == 0.0 else obj, ".17g"))
        else:
            out.append(json.dumps(obj))

    def matrix_to_lists(matrix):
        return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]

    matrices = [
        matrix_to_lists(functional.coefficients[x, a])
        for x in range(functional.n)
        for a in range(functional.m)
    ]
    meta = {
        "kind": functional.kind,
        "d": functional.d,
        "n": functional.n,
        "m": functional.m,
        "seed": functional.seed,
        "version": steerbound.__version__,
    }
    out = []
    emit({"meta": meta, "matrices": matrices}, out)
    return "".join(out) + "\n"


def test_functional_json_matches_the_per_entry_emitter():
    edge = np.array(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1 + 0.2, 1e300,
         -1e300, 1e-300, -1e-300, 123456789.0, 1.0, -1.0, 0.0, 2.0**53 + 2.0]
    )
    table = (edge + 1j * edge[::-1]).reshape(2, 2, 2, 2)
    rng = np.random.default_rng(3)
    noise = rng.standard_normal((3, 2, 3, 3)) * 10.0 ** rng.integers(-30, 30, (3, 2, 3, 3))
    # sparse tables take the skeleton template, dense ones the full one
    for functional in (
        SteeringFunctional.from_table(table),
        SteeringFunctional.from_table(noise + 1j * noise[::-1], seed=4),
        mub_functional(build_mub_family(5, 6)),
        dichotomic_functional(build_clifford_family(7)),
        random_functional(3, 1),
        clifford_functional(build_clifford_family(5, full_dimension=True)),
        SteeringFunctional.from_table(noise),  # real: every other leaf is zero
        SteeringFunctional.from_table(np.zeros((2, 2, 3, 3))),
    ):
        assert functional_to_json(functional) == _reference_functional_json(functional)
    text = functional_to_json(SteeringFunctional.from_table(table))
    # -0.0 is written as 0, integral floats without a fraction, subnormals in full
    assert text.startswith(
        '{"matrices":[[[[0,9007199254740994],[0,0]],[[4.9406564584124654e-324,-1],'
    )
    assert "[1,-4.9406564584124654e-324]" in text
    assert re.search(r"[\[,]-0[,\]]", text) is None


def test_functional_round_trip_is_byte_identical():
    for functional in (
        mub_functional(build_mub_family(3, 4)),
        clifford_functional(build_clifford_family(5)),
        clifford_functional(build_clifford_family(5, full_dimension=True)),
        dichotomic_functional(build_clifford_family(6)),
        random_functional(2, 7),
    ):
        text = functional_to_json(functional)
        reloaded = functional_from_json(text)
        assert functional_to_json(reloaded) == text
        assert np.array_equal(reloaded.coefficients, functional.coefficients)
        assert reloaded.kind == functional.kind
        assert reloaded.seed == functional.seed


def test_functional_json_layout():
    functional = mub_functional(build_mub_family(2, 3))
    doc = json.loads(functional_to_json(functional))
    assert set(doc) == {"meta", "matrices"}
    assert doc["meta"] == {
        "kind": "mub",
        "d": 2,
        "n": 3,
        "m": 2,
        "seed": None,
        "version": "0.1.0",
    }
    assert len(doc["matrices"]) == 6
    # setting-major order: matrix 2 is F for setting 1, outcome 0
    expected = functional.coefficients[1, 0]
    got = np.array([[complex(re, im) for re, im in row] for row in doc["matrices"][2]])
    assert np.allclose(got, expected, atol=1e-15)


def test_functional_schema_rejects_unknown_keys():
    functional = mub_functional(build_mub_family(2, 3))
    doc = json.loads(functional_to_json(functional))
    doc["extra"] = 1
    with pytest.raises(SchemaError, match="exactly the keys"):
        functional_from_json(json.dumps(doc))
    doc = json.loads(functional_to_json(functional))
    doc["meta"]["note"] = "hi"
    with pytest.raises(SchemaError, match="exactly the keys"):
        functional_from_json(json.dumps(doc))


def test_functional_schema_rejects_bad_shapes():
    functional = mub_functional(build_mub_family(2, 3))
    doc = json.loads(functional_to_json(functional))
    doc["matrices"] = doc["matrices"][:-1]
    with pytest.raises(SchemaError, match="expected 6 matrices"):
        functional_from_json(json.dumps(doc))
    doc = json.loads(functional_to_json(functional))
    doc["matrices"][0][0][0] = [1.0]
    with pytest.raises(SchemaError, match="re, im"):
        functional_from_json(json.dumps(doc))
    doc = json.loads(functional_to_json(functional))
    doc["matrices"][0][0][0] = [True, 0.0]
    with pytest.raises(SchemaError, match="numbers"):
        functional_from_json(json.dumps(doc))
    for token in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
        text = functional_to_json(functional).replace("[1,0]", f"[{token},0]", 1)
        assert token in text
        with pytest.raises(SchemaError, match="finite"):
            functional_from_json(text)


def test_functional_schema_rejects_bad_kind_and_meta():
    functional = mub_functional(build_mub_family(2, 3))
    doc = json.loads(functional_to_json(functional))
    doc["meta"]["kind"] = "unknown"
    with pytest.raises(SchemaError, match="unknown functional kind"):
        functional_from_json(json.dumps(doc))
    doc["meta"]["kind"] = "mub"
    doc["meta"]["n"] = 0
    with pytest.raises(SchemaError, match="positive integer"):
        functional_from_json(json.dumps(doc))


def test_functional_rejects_invalid_json():
    with pytest.raises(SchemaError, match="invalid JSON"):
        functional_from_json('{"meta": {')


def test_seventeen_digit_floats_survive_reload():
    functional = mub_functional(build_mub_family(7, 8))
    text = functional_to_json(functional)
    reloaded = functional_from_json(text)
    assert np.array_equal(reloaded.coefficients, functional.coefficients)


# ---------------------------------------------------------------------------
# the flat parse against the tree walk


def _outcome(load, text):
    """Accept with the meta and the stack bits, or reject with the
    exception type and message."""
    try:
        meta, stack = load(text)
    except Exception as exc:  # the comparison covers every exception type
        return ("reject", type(exc).__name__, str(exc))
    return ("accept", meta, stack.shape, stack.tobytes())


def _assert_flat_matches_tree(text):
    """`_load` (the stream reader, tree walk when it cannot vouch) gives
    what the tree walk alone gives; returns that outcome."""
    expected = _outcome(serialize._load_tree, text)
    assert _outcome(serialize._load, text) == expected
    return expected


def _streamed(text):
    """What the stream reader gives for `text` through the str source, or
    None where it cannot vouch for it."""
    return serialize._load_stream(serialize._TextSource(text))


def _documents():
    """The canonical text of a table of every kind, including a table of
    edge values (signed zeros, subnormals, 17-digit and integral floats)
    and custom tables of an assemblage's members, of a basis family's
    vectors (one outcome per setting) and of Pauli observables."""
    edge = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 0.1 + 0.2, 1e300, -7.0, 2.0**53 + 2])
    table = (np.resize(edge, 16) + 1j * np.resize(edge[::-1], 16)).reshape(2, 2, 2, 2)
    mub = mub_functional(build_mub_family(2, 3))
    pauli = dichotomic_functional(build_clifford_family(4, full_dimension=True))  # mostly zeros
    tables = [
        mub,
        dichotomic_functional(build_clifford_family(3)),
        clifford_functional(build_clifford_family(2, full_dimension=True)),
        random_functional(2, 1),
        pauli,
        SteeringFunctional.from_table(table, seed=5),
        SteeringFunctional.from_table(canonical_quantum_assemblage(mub).members),
        SteeringFunctional.from_table(build_mub_family(3, 4).bases[:, None]),
        SteeringFunctional.from_table(build_clifford_family(3).observables[:, None]),
    ]
    return [functional_to_json(f) for f in tables]


def _layouts(text):
    """The canonical text, as json.dumps(indent=2) writes it, and with meta
    written before the matrices, compact and indented."""
    doc = json.loads(text)
    meta_first = {"meta": doc["meta"], "matrices": doc["matrices"]}
    return [
        text,
        json.dumps(doc, indent=2),
        json.dumps(meta_first),
        json.dumps(meta_first, indent=2),
    ]


def test_flat_parse_matches_the_tree_walk_on_every_kind_and_layout():
    for text in _documents():
        for layout in _layouts(text):
            assert _streamed(layout) is not None
            assert _assert_flat_matches_tree(layout)[0] == "accept"


def _mostly_zero(text):
    """Whether the matrix block of a document averages at most 4 bytes of
    number, comma and whitespace text a leaf, so it takes the sparse
    window check."""
    meta = json.loads(text)["meta"]
    data = text.encode()
    start = serialize._BLOCK_KEY_BYTES.search(data).end()
    quote = data.find(b'"', start)
    block = data[start : data.rfind(b"]", start, quote if quote >= 0 else len(data)) + 1]
    leaves = meta["n"] * meta["m"] * meta["d"] ** 2 * 2
    return len(block) - block.count(b"[") - block.count(b"]") <= 4 * leaves


def _mutated_documents(count, sparse=False):
    """The texts of `count` documents of _documents (with `sparse`, only
    the mostly-zero ones and the sparse base case), each with one to three
    random edits: deletions, insertions, replacements, swaps of neighbours
    and repeated stretches."""
    rng = np.random.default_rng(2024)
    alphabet = '[],:{}" \n\t0123456789-+.eEaNIntul\\é'
    bases = [layout for text in _documents() for layout in _layouts(text)[:3:2]]
    if sparse:
        bases = [text for text in bases if _mostly_zero(text)]
        bases.append(_sparse_named_cases()[0].values[0])
    for case in range(count):
        text = bases[case % len(bases)]
        for _ in range(1 + rng.integers(3)):
            i = int(rng.integers(len(text)))
            op = rng.integers(5)
            char = alphabet[rng.integers(len(alphabet))]
            if op == 0:
                text = text[:i] + text[i + 1 :]
            elif op == 1:
                text = text[:i] + char + text[i:]
            elif op == 2:
                text = text[:i] + char + text[i + 1 :]
            elif op == 3:  # swap two neighbours, such as a number and a bracket
                text = text[:i] + text[i + 1 : i + 2] + text[i] + text[i + 2 :]
            else:
                j = i + int(rng.integers(1, 12))
                text = text[:j] + text[i:j] + text[j:]
        yield text


def test_flat_parse_matches_the_tree_walk_under_mutation():
    accepted = flat_taken = 0
    for text in _mutated_documents(4000):
        accepted += _assert_flat_matches_tree(text)[0] == "accept"
        flat_taken += _streamed(text) is not None
    # both sides of the comparison are exercised
    assert 200 < accepted < 3800
    assert flat_taken > 100


def _named_cases():
    table = np.full((1, 2, 2, 2), 12.5 + 0j)
    base = functional_to_json(SteeringFunctional.from_table(table))
    block = base[len('{"matrices":') : base.index(',"meta"')]
    other = functional_to_json(SteeringFunctional.from_table(2 * table))
    other_block = other[len('{"matrices":') : other.index(',"meta"')]
    first = base.index("12.5")
    cases = {
        "canonical": (base, True),
        "glued after a bracket": (base.replace("],[", "]5,[", 1), False),
        "glued before a bracket": (base.replace("],[", "],5[", 1), False),
        "number moved before its bracket": (base.replace("[[[[12.5,", "[[[12.5[,", 1), False),
        "number moved before its bracket with space": (
            base.replace("[[[[12.5,", "[[[12.5 [,", 1),
            False,
        ),
        "whitespace inside a number": (base[:first] + "12 .5" + base[first + 4 :], False),
        "whitespace between the digits": (base[:first] + "1 2.5" + base[first + 4 :], False),
        "trailing comma in a pair": (base.replace("12.5,0]", "12.5,0,]", 1), False),
        "trailing comma in the block": (base.replace(']]]],"meta"', ']]],],"meta"'), False),
        "whitespace around every token": (
            base.replace(",", " ,\n").replace("[", "[ \t").replace("]", "\r\n]"),
            True,
        ),
        "duplicated matrices key": ('{"matrices":' + other_block + "," + base[1:], True),
        "duplicated matrices key, last wins": (
            base.replace(',"meta"', ',"matrices":' + other_block + ',"meta"'),
            True,
        ),
        "duplicated matrices key, last null": (
            base.replace(',"meta"', ',"matrices":null,"meta"'),
            False,
        ),
        "matrices as a key inside meta": (
            base.replace('"meta":{', '"meta":{"matrices":' + block + ","),
            False,
        ),
        "escaped key": (base.replace('"matrices"', '"\\u006datrices"'), True),
        "escaped key and a null duplicate": (
            base.replace(',"meta"', ',"\\u006datrices":null,"meta"'),
            False,
        ),
        "string value inside the block": (base.replace("12.5", '"12.5"', 1), False),
        "NaN": (base.replace("12.5", "NaN", 1), False),
        "1e400": (base.replace("12.5", "1e400", 1), False),
        "401-digit integer": (base.replace("12.5", "1" + "0" * 400, 1), False),
        "5000-digit integer": (base.replace("12.5", "1" * 5000, 1), False),
        "leading zero": (base.replace("12.5", "012.5", 1), False),
        "extra closing bracket": (base.replace(']]]],"meta"', ']]]]],"meta"'), False),
        "missing closing bracket": (base.replace(']]]],"meta"', ']]],"meta"'), False),
        "matrices as null": (base.replace(block, "null"), False),
        "trailing document": (base + "{}", False),
        "non-ASCII whitespace": (base.replace("[[[[", "[ [[[", 1), False),
    }
    return [pytest.param(text, accepted, id=name) for name, (text, accepted) in cases.items()]


@pytest.mark.parametrize(("text", "accepted"), _named_cases())
def test_flat_parse_named_cases(text, accepted):
    assert (_assert_flat_matches_tree(text)[0] == "accept") == accepted


def _zero_token_cases():
    """A table of one nonzero leaf, whose flat text averages under 4 bytes
    a leaf, so its zero tokens are skipped; each case rewrites one of them."""
    table = np.zeros((1, 2, 2, 2), dtype=complex)
    table[0, 0, 0, 0] = 12.5
    base = functional_to_json(SteeringFunctional.from_table(table))
    cases = {"-0": True, "00": False, "0.0": True, "0e0": True, " 0 ": True, "-0.0": True}
    return [
        pytest.param(base.replace("12.5,0]", f"12.5,{token}]", 1), accepted, id=repr(token))
        for token, accepted in cases.items()
    ] + [pytest.param(base, True, id="canonical")]


@pytest.mark.parametrize(("text", "accepted"), _zero_token_cases())
def test_flat_parse_of_tokens_near_zero(text, accepted):
    outcome = _assert_flat_matches_tree(text)
    assert (outcome[0] == "accept") == accepted
    if accepted:
        assert _streamed(text) is not None


@pytest.mark.parametrize("token", ["0", "-0", "-0.0", "0.0", "0e0", " 0 ", "0 ", "7", "00", ""])
def test_zero_token_skipping_parses_as_json(token, monkeypatch):
    """A mostly-zero block of 16 leaves, one of them `token`, is read by
    the sparse window check (_sparse_window, never the dense parse) into
    what json.loads gives for its leaves, or declined where json.loads
    rejects them."""
    leaves = ["0"] * 7 + [token] + ["0"] * 7 + ["2.5"]
    text = serialize._nested("%s", (2, 2, 2, 2)) % tuple(leaves)

    def no_dense_parse(padded, values):
        raise AssertionError("a mostly-zero block took the dense parse")

    monkeypatch.setattr(serialize, "_read_dense", no_dense_parse)
    values = serialize._read_block(serialize._TextSource(text).read, len(text) - 1, 2, 2)
    try:
        expected = np.array(json.loads("[" + ",".join(leaves) + "]"), np.float64).tobytes()
    except ValueError:
        assert values is None
        return
    assert values.tobytes() == expected


def test_flat_parse_over_many_windows_matches_the_tree_walk(monkeypatch):
    """The flat-versus-tree comparisons again with windows of a few tokens,
    so every document is checked and parsed over many windows: 61
    characters, the fewest that hold the widest gap between two commas of
    the layouts, and 256 for the mutations, which take longer."""
    monkeypatch.setattr(serialize, "_WINDOW", 61)
    test_flat_parse_matches_the_tree_walk_on_every_kind_and_layout()
    for case in _named_cases() + _zero_token_cases():
        text, accepted = case.values
        assert (_assert_flat_matches_tree(text)[0] == "accept") == accepted, case.id
    long_token = _named_cases()[0].values[0].replace("12.5", "0." + "1" * 61, 1)
    assert _streamed(long_token) is None
    assert _assert_flat_matches_tree(long_token)[0] == "accept"
    monkeypatch.setattr(serialize, "_WINDOW", 256)
    test_flat_parse_matches_the_tree_walk_under_mutation()


def _sparse_named_cases():
    """Edits of a mostly-zero table's text, whose number text averages
    under 4 bytes a leaf, so its block takes the sparse window check: each
    case is (text, accepted by the tree walk, taken by the flat parse)."""
    table = np.zeros((1, 2, 4, 4), dtype=complex)
    table[0, 0, 0, 0], table[0, 1, 2, 3] = 12.5, -0.5j
    base = functional_to_json(SteeringFunctional.from_table(table))
    block = base[len('{"matrices":') : base.index(',"meta"')]
    matrix = json.dumps(json.loads(block)[0], separators=(",", ":"))
    first = base.index("12.5")
    cases = {
        "canonical": (base, True, True),
        "glued after a bracket": (base.replace("],[", "]5,[", 1), False, False),
        "glued before a bracket": (base.replace("],[", "],5[", 1), False, False),
        "zero glued before a bracket": (base.replace(",[0,0]", ",0[,0]", 1), False, False),
        "number moved before its bracket": (
            base.replace("[[[[12.5,", "[[[12.5[,", 1),
            False,
            False,
        ),
        "whitespace inside a number": (base[:first] + "12 .5" + base[first + 4 :], False, False),
        "1 2 joined by stripping": (base.replace("[0,0]", "[1 2,0]", 1), False, False),
        "1 0 joined into a number": (base.replace("[0,0]", "[1 0,0]", 1), False, False),
        "00": (base.replace("[0,0]", "[00,0]", 1), False, False),
        "-0": (base.replace("[0,0]", "[-0,0]", 1), True, True),
        "0.0": (base.replace("[0,0]", "[0.0,0]", 1), True, True),
        "-0.0": (base.replace("[0,0]", "[-0.0,0]", 1), True, True),
        "whitespace between tokens": (
            base.replace(",0]", ", 0 ]", 5).replace("],[", "],\n\t[", 3),
            True,
            True,
        ),
        "trailing comma in a pair": (base.replace("[0,0]", "[0,0,]", 1), False, False),
        "trailing comma in the block": (base.replace(']]]],"meta"', ']]],],"meta"'), False, False),
        "non-ASCII whitespace beside a bracket": (
            base.replace("[[[[", "[\u00a0[[[", 1),
            False,
            False,
        ),
        "non-ASCII whitespace beside a zero": (
            base.replace("[0,0]", "[\u00a00,0]", 1),
            False,
            False,
        ),
        "lone surrogate": (base.replace("[0,0]", "[\ud800,0]", 1), False, False),
        "empty leaf": (base.replace("[0,0]", "[,0]", 1), False, False),
        "string leaf": (base.replace("12.5", '"12.5"', 1), False, False),
        "true leaf": (base.replace("[0,0]", "[true,0]", 1), False, False),
        "NaN": (base.replace("12.5", "NaN", 1), False, False),
        "1e400": (base.replace("12.5", "1e400", 1), False, False),
        "40-digit integer": (base.replace("12.5", "7" * 40, 1), True, True),
        "a run of 32 zeros": (base.replace("12.5", "0." + "0" * 31 + "1", 1), True, True),
        "a run of 33 zeros": (base.replace("12.5", "0." + "0" * 32 + "1", 1), True, False),
        "a run of 33 zeros ending a token": (base.replace("12.5", "1" + "0" * 33, 1), True, False),
        "integral and exponent tokens": (
            base.replace("[0,0]", "[100,1e-05]", 1).replace("12.5", "-0.125E+2", 1),
            True,
            True,
        ),
        "extra closing bracket": (base.replace(']]]],"meta"', ']]]]],"meta"'), False, False),
        "missing closing bracket": (base.replace(']]]],"meta"', ']]],"meta"'), False, False),
        "a matrix too many": (base.replace(block, block[:-1] + "," + matrix + "]"), False, False),
    }
    return [
        pytest.param(text, accepted, flat, id=name)
        for name, (text, accepted, flat) in cases.items()
    ]


@pytest.mark.parametrize(("text", "accepted", "flat"), _sparse_named_cases())
def test_sparse_block_named_cases(text, accepted, flat, monkeypatch):
    """Each case gives what the tree walk gives, and the ones the flat
    parse takes are read by the sparse window check alone."""

    def no_dense_parse(*args):
        raise AssertionError("a mostly-zero block took the dense parse")

    monkeypatch.setattr(serialize, "_read_dense", no_dense_parse)
    monkeypatch.setattr(serialize, "_glued", no_dense_parse)
    assert (_assert_flat_matches_tree(text)[0] == "accept") == accepted
    assert (_streamed(text) is not None) == flat


def test_sparse_blocks_over_many_windows_match_the_tree_walk(monkeypatch):
    """The sparse cases again with windows of a few tokens (61 and 256
    characters), so each is checked over many windows against the tiled
    all-`0` text; a token longer than a window sends the document to the
    tree walk; and mutations of mostly-zero documents still match it."""
    for window in (61, 256):
        monkeypatch.setattr(serialize, "_WINDOW", window)
        for case in _sparse_named_cases():
            text, accepted, flat = case.values
            assert (_assert_flat_matches_tree(text)[0] == "accept") == accepted, case.id
            assert (_streamed(text) is not None) == flat, case.id
        base = _sparse_named_cases()[0].values[0]
        long_token = base.replace("12.5", "0." + "1" * window, 1)
        assert _streamed(long_token) is None
        assert _assert_flat_matches_tree(long_token)[0] == "accept"
    accepted = flat_taken = 0
    for text in _mutated_documents(1000, sparse=True):
        accepted += _assert_flat_matches_tree(text)[0] == "accept"
        flat_taken += _streamed(text) is not None
    assert 50 < accepted < 950 and flat_taken > 25


def test_lone_surrogate_in_the_block_is_a_schema_error():
    """A str that no UTF-8 file decodes to, with a lone surrogate among the
    numbers, is rejected as the tree walk rejects it."""
    text = functional_to_json(SteeringFunctional.from_table(np.ones((1, 1, 2, 2))))
    text = text.replace("[[[1,0]", "[[[1,\ud800]", 1)
    assert _streamed(text) is None
    assert _assert_flat_matches_tree(text)[:2] == ("reject", "SchemaError")


def _file_stream(path):
    """What the stream reader gives for the file at `path`, read a window
    at a time, or None where it cannot vouch for it."""
    with open(path, "rb") as file:
        return serialize._load_stream(file)


def _assert_file_matches_text(path, text):
    """Write `text` to `path`; the stream reader over the file either
    declines it or gives what the tree walk gives for the file's text, and
    load_functional gives what the text gives. Returns whether the stream
    reader took the file."""
    path.write_text(text, encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    loaded = _file_stream(path)
    if loaded is not None:
        expected = _outcome(serialize._load_tree, text)
        assert expected == ("accept", loaded[0], loaded[1].shape, loaded[1].tobytes())
    assert _functional_outcome(load_functional, path) == _functional_outcome(
        functional_from_json, text
    )
    return loaded is not None


def _functional_outcome(load, source):
    try:
        functional = load(source)
    except Exception as exc:  # the comparison covers every exception type
        return ("reject", type(exc).__name__, str(exc))
    return ("accept", functional.kind, functional.seed, functional.coefficients.tobytes())


@pytest.mark.parametrize("window", [128, 256, 1 << 16])
def test_file_read_matches_the_text_read(tmp_path, monkeypatch, window):
    """Every kind and layout, the named cases and mutations, read from a
    file, with windows and edges so short that the head and the tail of a
    file are separate and the block is read over many windows, but long
    enough for the tail to hold the meta."""
    monkeypatch.setattr(serialize, "_WINDOW", window)
    monkeypatch.setattr(serialize, "_EDGE", window)
    path = tmp_path / "doc.json"
    for text in _documents():
        assert _assert_file_matches_text(path, text)  # the canonical layout
        for layout in _layouts(text)[1:]:
            _assert_file_matches_text(path, layout)
    for case in _named_cases() + _zero_token_cases():
        _assert_file_matches_text(path, case.values[0])
    taken = sum(_assert_file_matches_text(path, text) for text in _mutated_documents(600))
    assert 30 < taken < 570


def test_file_read_falls_back_for_what_it_cannot_vouch_for(tmp_path):
    """A file that is not UTF-8 is read as text, with the error that read
    gives. A key or a block past the first _EDGE bytes, a block end more
    than _EDGE before the end, and a str that is not ASCII go to the tree
    walk: each loads with the canonical text's bits through both
    functional_from_json and load_functional. A file whose meta holds raw
    UTF-8 is taken by the stream reader and loads as its str does. An
    escaped duplicate key that only the tail holds is declined, and
    rejected as the tree walk rejects it. Paths that are not files raise
    what opening them raises."""
    path = tmp_path / "doc.json"
    text = functional_to_json(mub_functional(build_mub_family(2, 3)))
    path.write_bytes(text.replace('"mub"', '"m\xffb"').encode("latin-1"))
    assert _file_stream(path) is None
    with pytest.raises(SchemaError, match="not UTF-8"):
        load_functional(path)
    canonical = _functional_outcome(functional_from_json, text)
    pad = " " * serialize._EDGE
    padded = {
        "key past the head": text.replace('{"matrices":', "{" + pad + '"matrices":'),
        "block past the head": text.replace('"matrices":', '"matrices":' + pad),
        "block end before the tail": text.replace(',"meta"', pad + ',"meta"'),
    }
    for name, layout in padded.items():
        assert _streamed(layout) is None, name
        assert not _assert_file_matches_text(path, layout), name
        assert _functional_outcome(functional_from_json, layout) == canonical, name
    non_ascii = text.replace('"version":"0.1.0"', '"version":"0.1.0-\u00e9"')
    assert "\u00e9" in non_ascii and _streamed(non_ascii) is None
    assert _assert_file_matches_text(path, non_ascii)
    assert _functional_outcome(functional_from_json, non_ascii) == canonical
    long_text = functional_to_json(mub_functional(build_mub_family(7, 8)))  # 0.1 MB
    escaped = long_text.replace(',"meta"', ',"\\u006datrices":null,"meta"')
    assert escaped.index("\\") > serialize._EDGE
    assert _streamed(escaped) is None
    assert not _assert_file_matches_text(path, escaped)
    assert _functional_outcome(functional_from_json, escaped)[:2] == ("reject", "SchemaError")
    wrong_shape = json.dumps({"meta": json.loads(text)["meta"], "matrices": [[0]] * 6})
    assert not _assert_file_matches_text(path, wrong_shape)
    with pytest.raises(IsADirectoryError):
        load_functional(tmp_path)
    with pytest.raises(FileNotFoundError):
        load_functional(tmp_path / "missing.json")


def test_load_functional_reads_a_pipe_as_its_regular_file(tmp_path, monkeypatch):
    """A FIFO fed by a writer thread gives the regular file's table bits:
    through the stream reader alone for a canonical file, and through the
    tree walk for one the stream cannot vouch for."""
    text = functional_to_json(dichotomic_functional(build_clifford_family(4, full_dimension=True)))
    declined = text.replace(',"meta"', " " * serialize._EDGE + ',"meta"')
    path, pipe = tmp_path / "doc.json", tmp_path / "pipe"
    os.mkfifo(pipe)

    def from_pipe(layout):
        writer = threading.Thread(target=pipe.write_text, args=(layout,), daemon=True)
        writer.start()
        outcome = _functional_outcome(load_functional, pipe)
        writer.join(30)
        assert not writer.is_alive()
        return outcome

    path.write_text(declined)
    assert from_pipe(declined) == _functional_outcome(load_functional, path)
    path.write_text(text)
    expected = _functional_outcome(load_functional, path)
    assert expected[0] == "accept"

    def no_tree_walk(text):
        raise AssertionError("a pipe fell back to the tree walk")

    monkeypatch.setattr(serialize, "_load_tree", no_tree_walk)
    assert from_pipe(text) == expected


def _windowed(values):
    out = []
    serialize._write_floats(values, out.append)
    return "".join(out)


def test_windowed_writer_matches_the_whole_text(monkeypatch):
    """The block written a window at a time is the text the whole-array
    formatter gives, for every kind, compact and full-dim, and for custom
    tables whose matrices, or rows, hold more leaves than a window."""
    rng = np.random.default_rng(11)
    noise = rng.standard_normal((3, 1, 9, 9)) * 10.0 ** rng.integers(-30, 30, (3, 1, 9, 9))
    noise[rng.random(noise.shape) < 0.8] = 0.0  # mostly zeros, with some dense stretches
    functionals = [
        mub_functional(build_mub_family(5, 6)),
        random_functional(4, 1),
        clifford_functional(build_clifford_family(5)),
        clifford_functional(build_clifford_family(5, full_dimension=True)),
        dichotomic_functional(build_clifford_family(6)),
        dichotomic_functional(build_clifford_family(4, full_dimension=True)),
        SteeringFunctional.from_table(noise[:, :, :3, :3] + 1j * noise[::-1, :, :3, :3]),
        SteeringFunctional.from_table(noise + 1j * noise[::-1]),
        SteeringFunctional.from_table(np.zeros((2, 2, 3, 3))),
    ]
    format_floats, shapes = serialize._format_floats, []

    def recording(values):
        shapes.append(values.shape)
        return format_floats(values)

    monkeypatch.setattr(serialize, "_format_floats", recording)
    for window in (64, 1 << 16):
        monkeypatch.setattr(serialize, "_WINDOW", window)
        for functional in functionals:
            d = functional.d
            leaves = functional.coefficients.view(np.float64).reshape(-1, d, d, 2)
            shapes.clear()
            windowed = _windowed(leaves)
            assert windowed == format_floats(leaves)
            assert functional_to_json(functional) == _reference_functional_json(functional)
            if window == 64 and d == 3:
                assert (2, 3, 2) in shapes  # a window of two rows, inside a matrix
            if window == 64 and d == 9:
                assert (8, 2) in shapes  # a window of eight pairs, inside a row
    leaves = dichotomic_functional(build_clifford_family(7, full_dimension=True)).coefficients
    leaves = leaves.view(np.float64).reshape(-1, 128, 128, 2)
    shapes.clear()
    assert _windowed(leaves) == format_floats(leaves)
    assert set(shapes) == {(64, 128, 2)}  # half a 128 x 128 matrix a window


def _splice_edge_tables():
    """d = 4 tables of two matrices whose nonzero leaves lie at the edges
    of the skeleton's cuts. At _WINDOW 64 a window is two rows (16 leaves)
    of a matrix; at 1 << 16 the whole block is one window."""

    def put(*entries):
        table = np.zeros((1, 2, 4, 4), dtype=complex)
        for index, value in entries:
            table[index] = value
        return table

    return {
        "no nonzero leaf": put(),
        # matrix 0 and rows 0-1 of matrix 1 have none
        "a window with no nonzero leaf": put(((0, 1, 3, 2), 0.5)),
        # the imaginary part of row 1's last entry ends a window, that of
        # the last matrix's last entry ends the block
        "last leaf nonzero": put(((0, 0, 1, 3), 2.5j), ((0, 1, 3, 3), -3j)),
        "nonzeros next to row boundaries": put(
            ((0, 0, 0, 0), 1.5), ((0, 0, 0, 3), 1j), ((0, 0, 1, 0), 2.0), ((0, 1, 2, 0), -1.0)
        ),
        "-0.0 and subnormal tokens": put(
            ((0, 0, 0, 1), complex(-0.0, 5e-324)),
            ((0, 0, 2, 2), -5e-324),
            ((0, 1, 1, 1), complex(2.2250738585072014e-308, -0.0)),
            ((0, 1, 3, 0), complex(-0.0, -1e-310)),
        ),
    }


@pytest.mark.parametrize("window", [64, 1 << 16])
def test_spliced_windows_match_the_per_entry_emitter(monkeypatch, window):
    """Every window of these tables takes the splice of the nonzero leaves'
    tokens into the all-`0` skeleton, and the file is the per-entry
    emitter's byte for byte."""
    nested, leaves = serialize._nested, set()

    def recording(leaf, shape):
        leaves.add(leaf)
        return nested(leaf, shape)

    monkeypatch.setattr(serialize, "_nested", recording)
    monkeypatch.setattr(serialize, "_WINDOW", window)
    for name, table in _splice_edge_tables().items():
        functional = SteeringFunctional.from_table(table)
        assert functional_to_json(functional) == _reference_functional_json(functional), name
    assert leaves == {"0"}  # no window took the dense template


def _traced_peak(action):
    """What `action` returns, and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = action()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


FULL_DIM_7_TABLE_BYTES = 14 * 128 * 128 * 16  # 3.67 MB


def test_load_holds_the_table_and_a_fraction_of_the_text():
    """The value array is the load's one table-sized allocation.

    A full-dim dichotomic n = 7 text (1.38 MB, a 3.67 MB table) was
    measured to peak at the table plus 0.49 MB while it is parsed in 64 KiB
    windows, under the table plus half the text; the load runs no
    Hermiticity pass, which would hold one setting's cells (0.66 MB) on a
    flag's first read. A copy of the table, or one mask over the whole
    text, adds more."""
    text = functional_to_json(dichotomic_functional(build_clifford_family(7, full_dimension=True)))
    functional, peak = _traced_peak(lambda: functional_from_json(text))
    assert functional.coefficients.nbytes == FULL_DIM_7_TABLE_BYTES
    assert peak <= FULL_DIM_7_TABLE_BYTES + len(text) / 2


@pytest.mark.parametrize("make", [clifford_functional, dichotomic_functional])
def test_building_a_signed_table_holds_the_table_and_no_copy(make):
    """The +- table is filled in place and no Hermiticity pass runs: the
    build was measured to peak at the table plus 2 KB, under the table plus
    the family's observables (1.84 MB), which a stacked -obs temporary
    exceeds."""
    family = build_clifford_family(7, full_dimension=True)
    functional, peak = _traced_peak(lambda: make(family))
    assert functional.coefficients.nbytes == FULL_DIM_7_TABLE_BYTES
    assert peak <= FULL_DIM_7_TABLE_BYTES + family.observables.nbytes


def test_writing_a_file_holds_a_window_of_text(tmp_path):
    """A full-dim n = 7 file (1.38 MB) is written a window at a time: the
    write was measured to peak at 0.22 MB."""
    functional = dichotomic_functional(build_clifford_family(7, full_dimension=True))
    path = tmp_path / "table.json"

    def write():
        with open(path, "w") as file:
            serialize.write_functional(functional, file.write)

    _, peak = _traced_peak(write)
    assert peak <= 0.5e6
    assert path.read_text() == functional_to_json(functional)


def test_loading_a_file_holds_the_table_and_a_window(tmp_path):
    """load_functional reads the block from the file a window at a time,
    so no text of it is held whole: a full-dim n = 7 file (1.38 MB) was
    measured to peak at the table plus 0.55 MB, with no Hermiticity pass
    run."""
    path = tmp_path / "table.json"
    path.write_text(
        functional_to_json(dichotomic_functional(build_clifford_family(7, full_dimension=True)))
    )
    functional, peak = _traced_peak(lambda: load_functional(path))
    assert functional.coefficients.nbytes == FULL_DIM_7_TABLE_BYTES
    assert peak <= FULL_DIM_7_TABLE_BYTES + 0.75e6


def test_huge_claimed_dimension_allocates_nothing():
    text = functional_to_json(SteeringFunctional.from_table(np.ones((1, 1, 2, 2), complex)))
    text = text.replace('"d":2', '"d":1000000')
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match="1000000 rows"):
            serialize._load(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    _assert_flat_matches_tree(text)


def test_every_written_file_takes_the_flat_path(tmp_path, monkeypatch):
    """A file the program writes never falls back to the tree walk, and a
    functional file is read from the file a window at a time."""
    generated = {
        "mub": ["--kind", "mub", "--d", "3"],
        "clifford": ["--kind", "clifford", "--n", "5"],
        "clifford-full": ["--kind", "clifford", "--n", "4", "--full-dim"],
        "dichotomic": ["--kind", "dichotomic", "--n", "6"],
        "dichotomic-full": ["--kind", "dichotomic", "--n", "4", "--full-dim"],
        "random": ["--kind", "random", "--d", "3", "--seed", "2"],
    }
    for name, flags in generated.items():
        assert cli_main(["generate", *flags, "--out", str(tmp_path / f"{name}.json")]) == 0
    mub = mub_functional(build_mub_family(3, 4))
    dumps = [
        functional_to_json(SteeringFunctional.from_table(table))
        for table in (
            canonical_quantum_assemblage(mub).members,
            build_mub_family(5, 6).bases[:, None],
            build_clifford_family(4).observables[:, None],
        )
    ]

    def no_tree_walk(text):
        raise AssertionError("a file fell back to the tree walk")

    def no_text_read(text):
        raise AssertionError("a file was read whole")

    monkeypatch.setattr(serialize, "_load_tree", no_tree_walk)
    with monkeypatch.context() as patch:
        patch.setattr(serialize, "_load", no_text_read)
        for name in generated:
            assert load_functional(tmp_path / f"{name}.json").n >= 1
    for text in dumps:
        functional_from_json(text)
