import pytest
from hypothesis import strategies as st

from thermoshift import LocallyConstantPotential, OneBlockFactor
from thermoshift.shiftcore import Sft

FIXDIR = None  # set lazily by tests that need files


def symbol_weights(language, weights):
    """The range-1 float potential with value weights[name] on each symbol."""
    return LocallyConstantPotential(
        language, 1, {w: float(weights[language.names(w)[0]]) for w in language.blocks(1)})


@st.composite
def small_factors(draw):
    """(transitions, symbol map) of a one-block factor on <= 4 domain
    symbols; merged symbols often give strictly sofic images."""
    k = draw(st.integers(2, 4))
    trans = [[draw(st.integers(0, 1)) for _ in range(k)] for _ in range(k)]
    for i in range(k):  # every symbol needs an outgoing and an incoming edge
        if not any(trans[i]) or not any(row[i] for row in trans):
            trans[i][i] = 1
    return trans, draw(st.lists(st.sampled_from("abc"), min_size=k, max_size=k))


@pytest.fixture(scope="session")
def full2():
    return Sft.full_shift(["a", "b"])


@pytest.fixture(scope="session")
def full3():
    return Sft.full_shift(["1", "2", "3"])


@pytest.fixture(scope="session")
def full4():
    return Sft.full_shift(["1", "2", "3", "4"])


@pytest.fixture(scope="session")
def goldenmean():
    return Sft(["a", "b"], [[1, 1], [1, 0]])


@pytest.fixture(scope="session")
def collapse(full3):
    return OneBlockFactor(full3, {"1": "a", "2": "a", "3": "b"})


@pytest.fixture(scope="session")
def identity_gm(goldenmean):
    return OneBlockFactor.identity(goldenmean)


@pytest.fixture(scope="session")
def amalgamation(full4):
    return OneBlockFactor(full4, {"1": "a", "2": "a", "3": "b", "4": "b"})


def phase_blocked_sft():
    """Domain with a period-2 doubling cluster whose entry/exit phases block
    every branching walk between consecutive 1s of odd gap; the lone slow
    loop keeps those words allowable with a single preimage."""
    alpha = ["u", "h", "p", "q", "s"]
    idx = {a: i for i, a in enumerate(alpha)}
    edges = [("u", "h"), ("u", "s"), ("h", "p"), ("h", "q"), ("p", "h"),
             ("q", "h"), ("p", "u"), ("s", "u"), ("s", "s")]
    trans = [[0] * 5 for _ in range(5)]
    for a, b in edges:
        trans[idx[a]][idx[b]] = 1
    return Sft(alpha, trans)


@pytest.fixture(scope="session")
def phase_blocked():
    sft = phase_blocked_sft()
    return OneBlockFactor(sft, {"u": "1", "h": "2", "p": "2", "q": "2", "s": "2"})


@pytest.fixture(scope="session")
def zero3(full3):
    return LocallyConstantPotential.zero(full3)
