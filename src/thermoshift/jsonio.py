"""JSON document schemas for shifts, factor maps, potentials and measures.

Words in object keys are concatenated symbol names when every symbol is a
single character, comma-separated otherwise; words in arrays are always
symbol-name lists.  Potentials use the natural-log convention.  Exact
rational entries are strings like "1/3".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .factor import FactorError, OneBlockFactor
from .markov import MarkovMeasure, MeasureError
from .potential import LocallyConstantPotential, PotentialError
from .shiftcore import Sft, SftError


class SchemaError(ValueError):
    pass


def _require(doc, key, kind, where):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError("%s document needs a %r field" % (where, key))
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError("%s field %r has the wrong type" % (where, key))
    return value


def parse_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise SchemaError("exact entries must be integers or strings like '1/3', got %r" % (value,))


def split_word_key(key: str, alphabet) -> tuple[str, ...]:
    if key in ("", "eps", "epsilon"):
        return ()
    if "," in key:
        return tuple(key.split(","))
    if all(len(a) == 1 for a in alphabet):
        return tuple(key)
    raise SchemaError("word key %r is ambiguous with multi-character symbols; use commas" % key)


def word_key(names) -> str:
    names = list(names)
    if all(len(n) == 1 for n in names):
        return "".join(names)
    return ",".join(names)


def load_sft(doc) -> Sft:
    alphabet = _require(doc, "alphabet", list, "Sft")
    transitions = _require(doc, "transitions", list, "Sft")
    try:
        return Sft(alphabet, transitions)
    except SftError as e:
        raise SchemaError("bad Sft: %s" % e) from e


def load_factor(doc) -> OneBlockFactor:
    domain = load_sft(_require(doc, "domain", dict, "factor"))
    mapping = _require(doc, "map", dict, "factor")
    try:
        return OneBlockFactor(domain, {str(k): str(v) for k, v in mapping.items()})
    except FactorError as e:
        raise SchemaError("bad factor map: %s" % e) from e


def load_potential(doc, language) -> LocallyConstantPotential:
    r = _require(doc, "range", int, "potential")
    raw = _require(doc, "values", dict, "potential")
    values = {}
    for key, v in raw.items():
        names = split_word_key(key, language.alphabet)
        word = language.word_from_names(names)
        values[word] = float(v)
    exact_coeffs = None
    exact_base = None
    if "exact" in doc:
        exact = _require(doc, "exact", dict, "potential")
        exact_base = _require(exact, "base", int, "potential.exact")
        raw_coeffs = _require(exact, "coeffs", dict, "potential.exact")
        exact_coeffs = {}
        for key, v in raw_coeffs.items():
            names = split_word_key(key, language.alphabet)
            exact_coeffs[language.word_from_names(names)] = parse_fraction(v)
    elif all(v == 0.0 for v in values.values()):
        # the zero potential is exact in any base
        exact_coeffs = {w: Fraction(0) for w in values}
        exact_base = 2
    try:
        return LocallyConstantPotential(language, r, values,
                                        exact_coeffs=exact_coeffs, exact_base=exact_base)
    except PotentialError as e:
        raise SchemaError("bad potential: %s" % e) from e


def load_measure(doc, sft: Sft) -> MarkovMeasure:
    order = _require(doc, "order", int, "measure")
    raw_p = _require(doc, "P", list, "measure")
    exact = bool(doc.get("exact", False))
    states = sft.blocks(order)
    if "states" in doc:
        declared = [tuple(s) if isinstance(s, list) else split_word_key(str(s), sft.alphabet)
                    for s in doc["states"]]
        expected = [sft.names(s) for s in states]
        if [tuple(d) for d in declared] != [tuple(e) for e in expected]:
            raise SchemaError("states must list the allowable %d-blocks in order %s"
                              % (order, [word_key(e) for e in expected]))
    conv = parse_fraction if exact else float
    try:
        matrix = [[conv(v) for v in row] for row in raw_p]
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError("bad transition entry: %s" % e) from e
    stationary = None
    if "pi" in doc:
        stationary = [conv(v) for v in doc["pi"]]
    try:
        return MarkovMeasure.from_transition(sft, matrix, order=order, stationary=stationary)
    except MeasureError as e:
        raise SchemaError("bad measure: %s" % e) from e


def table_doc(t) -> dict:
    """Tables as {depth: {word: log value}}, read off the level index."""
    return {str(n): {word_key([t.alphabet[i] for i in w]): v
                     for w, v in zip(level.words, level.logs.tolist())}
            for n, level in enumerate(t.levels) if n}


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError("cannot read %s: %s" % (path, e)) from e
