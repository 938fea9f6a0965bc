import json
import math
import re

import numpy as np
import pytest

import steerbound
from steerbound import (
    SchemaError,
    SteeringFunctional,
    build_clifford_family,
    build_mub_family,
)
from steerbound.functionals import (
    canonical_quantum_assemblage,
    clifford_functional,
    dichotomic_functional,
    mub_functional,
    random_functional,
)
from steerbound.serialize import (
    assemblage_from_json,
    assemblage_to_json,
    canonical_dumps,
    clifford_family_from_json,
    clifford_family_to_json,
    functional_from_json,
    functional_to_json,
    mub_family_from_json,
    mub_family_to_json,
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
    for functional in (
        SteeringFunctional.from_table(table),
        SteeringFunctional.from_table(noise + 1j * noise[::-1], seed=4),
        mub_functional(build_mub_family(5, 6)),
        dichotomic_functional(build_clifford_family(7)),
        random_functional(3, 1),
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


def test_assemblage_round_trip():
    assemblage = canonical_quantum_assemblage(mub_functional(build_mub_family(3, 4)))
    text = assemblage_to_json(assemblage)
    reloaded = assemblage_from_json(text)
    assert np.allclose(reloaded.members, assemblage.members, atol=1e-16)
    assert assemblage_to_json(reloaded) == text


def test_mub_family_round_trip_and_validation():
    family = build_mub_family(5, 6)
    text = mub_family_to_json(family)
    reloaded = mub_family_from_json(text)
    assert np.allclose(reloaded.bases, family.bases, atol=1e-16)
    assert mub_family_to_json(reloaded) == text
    doc = json.loads(text)
    doc["matrices"][0][0] = doc["matrices"][0][1]  # break orthonormality
    with pytest.raises(SchemaError, match="unbiased"):
        mub_family_from_json(json.dumps(doc))


def test_clifford_family_round_trip_and_validation():
    family = build_clifford_family(5)
    text = clifford_family_to_json(family)
    reloaded = clifford_family_from_json(text)
    assert np.array_equal(reloaded.observables, family.observables)
    assert clifford_family_to_json(reloaded) == text
    doc = json.loads(text)
    doc["matrices"][1] = doc["matrices"][0]  # repeated observable
    with pytest.raises(SchemaError, match="anticommuting"):
        clifford_family_from_json(json.dumps(doc))


def test_seventeen_digit_floats_survive_reload():
    functional = mub_functional(build_mub_family(7, 8))
    text = functional_to_json(functional)
    reloaded = functional_from_json(text)
    assert np.array_equal(reloaded.coefficients, functional.coefficients)
