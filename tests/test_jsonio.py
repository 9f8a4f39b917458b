import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from thermoshift import LocallyConstantPotential, MarkovMeasure, build_additive_table
from thermoshift.jsonio import (SchemaError, load_factor, load_measure,
                                load_potential, load_sft, parse_fraction,
                                read_json, split_word_key, table_doc, word_key)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_load_sft_roundtrip():
    doc = {"alphabet": ["a", "b"], "transitions": [[1, 1], [1, 0]]}
    sft = load_sft(doc)
    assert sft.alphabet == ("a", "b")
    assert sft.transitions == ((1, 1), (1, 0))


def test_load_sft_rejects_bad_entries():
    with pytest.raises(SchemaError):
        load_sft({"alphabet": ["a", "b"], "transitions": [[1, 2], [1, 0]]})
    with pytest.raises(SchemaError):
        load_sft({"alphabet": ["a"]})


def test_load_factor():
    doc = {"domain": {"alphabet": ["1", "2", "3"],
                      "transitions": [[1, 1, 1]] * 3},
           "map": {"1": "a", "2": "a", "3": "b"}}
    pi = load_factor(doc)
    assert pi.image_alphabet == ("a", "b")
    with pytest.raises(SchemaError):
        load_factor({"domain": doc["domain"], "map": {"1": "a"}})


def test_word_keys_single_char():
    assert split_word_key("aba", ("a", "b")) == ("a", "b", "a")
    assert split_word_key("", ("a", "b")) == ()
    assert word_key(["a", "b"]) == "ab"


def test_word_keys_multichar_need_commas():
    assert split_word_key("s1,s2", ("s1", "s2")) == ("s1", "s2")
    with pytest.raises(SchemaError):
        split_word_key("s1s2", ("s1", "s2"))
    assert word_key(["s1", "s2"]) == "s1,s2"


def test_load_potential(goldenmean):
    doc = {"range": 1, "values": {"a": math.log(2.0), "b": 0.0}}
    f = load_potential(doc, goldenmean)
    assert f.value((goldenmean.index("a"),)) == math.log(2.0)
    with pytest.raises(SchemaError):
        load_potential({"range": 2, "values": {"aa": 1.0}}, goldenmean)


def test_load_potential_zero_is_exact(goldenmean):
    f = load_potential({"range": 1, "values": {"a": 0.0, "b": 0.0}}, goldenmean)
    assert f.is_exact and f.is_zero


def test_load_potential_exact_block(goldenmean):
    doc = {"range": 1,
           "values": {"a": math.log(2.0), "b": -math.log(2.0) / 3},
           "exact": {"base": 2, "coeffs": {"a": 1, "b": "-1/3"}}}
    f = load_potential(doc, goldenmean)
    assert f.exact_base == 2
    assert f.coeff((goldenmean.index("b"),)) == Fraction(-1, 3)


def test_parse_fraction():
    assert parse_fraction("2/6") == Fraction(1, 3)
    assert parse_fraction(4) == 4
    with pytest.raises(SchemaError):
        parse_fraction(True)
    with pytest.raises(SchemaError):
        parse_fraction(0.5)


def test_load_measure_exact(full3):
    doc = {"order": 1, "exact": True,
           "P": [["1/3", "1/3", "1/3"]] * 3,
           "pi": ["1/3", "1/3", "1/3"]}
    mu = load_measure(doc, full3)
    assert mu.exact
    assert mu.cylinder_mass((0, 1)) == Fraction(1, 9)


def test_load_measure_validates_states(full2):
    doc = {"order": 1, "exact": False,
           "states": ["b", "a"],
           "P": [[0.5, 0.5], [0.5, 0.5]], "pi": [0.5, 0.5]}
    with pytest.raises(SchemaError):
        load_measure(doc, full2)


def test_measure_fixtures_load_as_bernoulli(full2, full3):
    for name, sft in (("measure_half2.json", full2), ("measure_uniform3.json", full3)):
        k = len(sft.alphabet)
        mu = load_measure(read_json(FIXTURES / name), sft)
        uniform = MarkovMeasure.bernoulli(sft, [Fraction(1, k)] * k)
        assert mu.exact
        assert mu.matrix == uniform.matrix
        assert mu.stationary == uniform.stationary


def test_table_doc_shape(goldenmean):
    f = LocallyConstantPotential.zero(goldenmean)
    t = build_additive_table(f, 3)
    doc = table_doc(t)
    assert set(doc) == {"1", "2", "3"}
    assert doc["2"] == {"aa": 0.0, "ab": 0.0, "ba": 0.0}
    json.dumps(doc)  # serializable
