"""The pushforward sandwich over joint (mass row, fiber row) pairs, against
the word-by-word check it replaced (``table_oracles.ref_pushforward_sandwich``),
its language check, and ``weak-gibbs`` end to end without a word index."""

from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, MarkovMeasure, OneBlockFactor,
                         build_g_table, pushforward_sandwich, weak_gibbs_constants)
from thermoshift import cli
from thermoshift.markov import _solve_stationary, _state_transitions
from thermoshift.seqtable import TableError, log_perron
from thermoshift.shiftcore import Sft

from conftest import small_factors
from table_oracles import ref_pushforward_sandwich
from test_mass_walk import _bottom_class

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _measure(draw, sft, order: int, exact: bool, low: int) -> MarkovMeasure:
    """A Markov measure of the given order on sft with integer weights
    low-3 per allowed move (one per state positive), stationary on one
    closed class of its states: zero-mass words occur."""
    states = sft.blocks(order)
    _, moves = _state_transitions(sft, states)
    matrix = []
    for row in moves:
        ws = [draw(st.integers(low, 3)) for _ in row]
        ws = ws if any(ws) else [1] + ws[1:]
        line = [Fraction(0)] * len(states)
        for (j, _), w in zip(row, ws):
            line[j] = Fraction(w, sum(ws))
        matrix.append(line)
    closed = _bottom_class([[j for j, p in enumerate(line) if p] for line in matrix],
                           draw(st.integers(0, len(states) - 1)))
    sub = _solve_stationary([[matrix[i][j] for j in closed] for i in closed], True)
    stationary = [Fraction(0)] * len(states)
    for i, p in zip(closed, sub):
        stationary[i] = p
    if not exact:
        matrix = [[float(p) for p in line] for line in matrix]
        stationary = [float(p) for p in stationary]
    return MarkovMeasure.from_transition(sft, matrix, order=order, stationary=stationary)


@st.composite
def sandwiches(draw):
    """The arguments of pushforward_sandwich: a small factor, an exact or
    float measure of order 1 or 2, f = 0 or a random float potential of
    range 1 or 2, its table (auto or float), a pressure and exact bases
    that may be off (so pairs fail), and the depth.  Half the draws take
    the exact path's inputs (an exact measure with every allowed move
    positive, f = 0, an exact table); zero masses send some of them to the
    float path."""
    trans, targets = draw(small_factors())
    sft = Sft([str(i) for i in range(len(trans))], trans)
    pi = OneBlockFactor(sft, targets)
    exact = draw(st.booleans())
    mu = _measure(draw, sft, draw(st.integers(1, 2)), exact or draw(st.booleans()),
                  1 if exact else draw(st.integers(0, 1)))
    if exact or draw(st.booleans()):
        f = LocallyConstantPotential.zero(sft)
    else:
        r = draw(st.integers(1, 2))
        f = LocallyConstantPotential(sft, r, {w: draw(st.floats(-2, 2)) for w in sft.blocks(r)})
    depth = draw(st.integers(1, 6))
    mode = "auto" if exact else draw(st.sampled_from(["auto", "float"]))
    gt = build_g_table(pi, f, depth, mode=mode)
    pressure, _, _, root, _ = log_perron(f)
    pressure += draw(st.sampled_from([0.0, 0.25, -1.0]))
    # the integer Perron root where there is one, or a wrong base
    base = st.sampled_from([None, Fraction(2 if root is None else root[0])]) | \
        st.fractions(Fraction(1, 2), 4, max_denominator=3)
    weak = weak_gibbs_constants(mu, f, pressure, depth, exact_base=draw(base))
    return mu, pi, f, gt, pressure, draw(base), weak, depth


@settings(max_examples=200, deadline=None)
@given(sandwiches())
def test_pair_walk_matches_the_word_walk(args):
    got, want = pushforward_sandwich(*args), ref_pushforward_sandwich(*args)
    assert (got.ok, got.exact, got.depth) == (want.ok, want.exact, want.depth)
    assert got.worst_margin.hex() == want.worst_margin.hex()
    assert got.failures[:5] == want.failures[:5]
    assert got.as_dict() == want.as_dict()


def test_zero_mass_failures_are_spelled_in_word_order(full2):
    # [b] never follows itself: bb and every word through it has zero mass
    mu = MarkovMeasure.from_transition(
        full2, [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1), Fraction(0)]])
    pi, f = OneBlockFactor.identity(full2), LocallyConstantPotential.zero(full2)
    gt = build_g_table(pi, f, 5, mode="float")
    weak = weak_gibbs_constants(mu, f, log_perron(f)[0], 5)
    args = (mu, pi, f, gt, log_perron(f)[0], None, weak, 5)
    got = pushforward_sandwich(*args)
    assert not got.ok and got.as_dict() == ref_pushforward_sandwich(*args).as_dict()
    assert got.failures == [{"n": 2, "word": ["b", "b"], "reason": "zero mass"},
                            {"n": 3, "word": ["a", "b", "b"], "reason": "zero mass"},
                            {"n": 3, "word": ["b", "b", "a"], "reason": "zero mass"},
                            {"n": 3, "word": ["b", "b", "b"], "reason": "zero mass"},
                            {"n": 4, "word": ["a", "a", "b", "b"], "reason": "zero mass"}]


def test_a_table_of_another_language_is_refused(collapse, full3, identity_gm):
    mu = MarkovMeasure.bernoulli(full3, [Fraction(1, 3)] * 3)
    f = LocallyConstantPotential.zero(full3)
    weak = weak_gibbs_constants(mu, f, log_perron(f)[0], 4)
    # the golden mean has no bb, the image of collapse every word on a, b
    gt = build_g_table(identity_gm, LocallyConstantPotential.zero(identity_gm.domain), 4)
    with pytest.raises(TableError, match="table words at depth 2 are not the image words of pi"):
        pushforward_sandwich(mu, collapse, f, gt, log_perron(f)[0], None, weak, 4)
    gt = build_g_table(OneBlockFactor.identity(full3), f, 4)  # three image symbols, not two
    with pytest.raises(TableError, match="table words at depth 1 are not the image words of pi"):
        pushforward_sandwich(mu, collapse, f, gt, log_perron(f)[0], None, weak, 4)


def test_weak_gibbs_builds_no_word_index(tmp_path):
    """Through cli.main on collapse at depth 10: neither the g-table the
    sandwich reads nor the partition table behind the pressure builds a
    word level."""
    made = []

    def kept(build):
        def wrapper(*args, **kwargs):
            made.append(build(*args, **kwargs))
            return made[-1]
        return wrapper

    with mock.patch.multiple(cli, build_g_table=kept(cli.build_g_table),
                             partition_table=kept(cli.partition_table)):
        assert cli.main(["weak-gibbs", "--factor", str(FIXTURES / "factor_collapse.json"),
                         "--measure", str(FIXTURES / "measure_uniform3.json"), "--depth", "10",
                         "--out", str(tmp_path / "report.json")]) == 0
    assert [t.kind for t in made] == ["g", "g"] and made[1].factor.image_alphabet == ("*",)
    assert [t.levels.built for t in made] == [0, 0]
