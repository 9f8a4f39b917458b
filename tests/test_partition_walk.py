"""The partition sums Z_n of ``pressure`` come from one walk over the domain
states (``partition_table``, the g-table of the total collapse), not from a
g-table with a row per image word.

Oracles: the full g-table of a random factor of the same domain and
potential (``partition_sum_exact`` / ``partition_sum``) and a brute-force
sum over ``dom.blocks(n)`` of e^{sup S_n f}.  Inputs are random SFTs on
<= 4 symbols (reducible ones too), random one-block maps, r in {1, 2, 3},
f = 0 or values in [-3, 3], and modes auto / float.
"""

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (LocallyConstantPotential, OneBlockFactor, build_g_table,
                         partition_sum, partition_sum_exact, partition_table)
from thermoshift import factor, seqtable
from thermoshift.cli import main
from thermoshift.numerics import logsumexp
from thermoshift.potential import birkhoff_sup
from thermoshift.shiftcore import Sft

DEPTH = 6


@st.composite
def cases(draw, values=st.floats(-3, 3), modes=("auto", "float")):
    """(factor, potential, mode) with the potential on the factor's domain:
    f = 0 or drawn from ``values``."""
    n = draw(st.integers(1, 4))
    trans = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    # a permutation of edges gives every symbol a follower and a predecessor
    for i, j in enumerate(draw(st.permutations(range(n)))):
        trans[i][j] = 1
    sft = Sft([str(i) for i in range(n)], trans)
    targets = draw(st.lists(st.sampled_from("abcd"[:n]), min_size=n, max_size=n))
    r = draw(st.integers(1, 3))
    zero = draw(st.booleans())
    f = {w: 0.0 if zero else draw(values) for w in sft.blocks(r)}
    mode = draw(st.sampled_from(modes))
    return OneBlockFactor(sft, targets), LocallyConstantPotential(sft, r, f), mode


@settings(max_examples=120, deadline=None)
@given(cases())
def test_walk_matches_the_g_table_and_the_domain_words(case):
    pi, f, mode = case
    dom = pi.domain
    z = partition_table(f, DEPTH, mode)
    t = build_g_table(pi, f, DEPTH, mode=mode)
    assert z.is_exact == t.is_exact == (f.is_zero and mode != "float")
    for n in range(1, DEPTH + 1):
        assert len(z.levels[n]) == 1
        words = dom.blocks(n)
        if z.is_exact:
            assert partition_sum_exact(z, n) == partition_sum_exact(t, n) == len(words)
            assert partition_sum(z, n) == partition_sum(t, n)
            continue
        brute = _brute(f, n)
        for got in (partition_sum(z, n), partition_sum(t, n)):
            assert math.isclose(got, brute, rel_tol=1e-12, abs_tol=1e-12), (n, got, brute)


# windows down to -700: every weight e^{f - fmax} a normal float, while
# V_n spans far more than one float scale
WIDE = st.one_of(st.just(0.0), st.floats(-700, 0))


def _brute(f, n: int) -> float:
    return logsumexp(birkhoff_sup(f, w) for w in f.language.blocks(n))


@settings(max_examples=150, deadline=None)
@given(cases(WIDE, modes=("float",)))
def test_walk_keeps_widely_spread_potentials(case):
    _, f, mode = case
    z = partition_table(f, DEPTH, mode)
    for n in range(1, DEPTH + 1):
        got, brute = partition_sum(z, n), _brute(f, n)
        assert math.isclose(got, brute, rel_tol=1e-12, abs_tol=1e-12), (n, got, brute)


def test_walk_keeps_states_that_catch_up():
    # a chain 0 -> 1 -> 2 -> 3 with self-loops of weight e^-300: the state a
    # path lingers in falls e^-300 per step behind the fastest one, and that
    # path catches up once the fastest reaches 3; on one scale for all states
    # the lingering ones underflow and Z_n drops by e^1.4 at depth 12
    sft = Sft(["0", "1", "2", "3"], [[int(j in (i, i + 1)) for j in range(4)] for i in range(4)])
    f = LocallyConstantPotential(sft, 2, {w: -300.0 if w[0] == w[1] else 0.0
                                          for w in sft.blocks(2)})
    z = partition_table(f, 12, "float")
    for n in range(1, 13):
        assert math.isclose(partition_sum(z, n), _brute(f, n), rel_tol=1e-12)


def _documents(root: Path, pi, f) -> dict:
    dom = pi.domain
    sft = {"alphabet": list(dom.alphabet), "transitions": [
        [int(dom.follows(a, b)) for b in range(dom.size)] for a in range(dom.size)]}
    paths = {"sft": root / "sft.json", "factor": root / "factor.json",
             "potential": root / "potential.json"}
    paths["sft"].write_text(json.dumps(sft))
    paths["factor"].write_text(json.dumps({"domain": sft, "map": {
        a: pi.image_alphabet[pi.symbol_map[i]] for i, a in enumerate(dom.alphabet)}}))
    paths["potential"].write_text(json.dumps({"range": f.range, "values": {
        "".join(dom.alphabet[x] for x in w): f.value(w) for w in dom.blocks(f.range)}}))
    return {k: str(v) for k, v in paths.items()}


@settings(max_examples=40, deadline=None)
@given(cases())
def test_pressure_report_does_not_depend_on_table_out(case):
    """The same bytes with and without --table-out, for --factor and --sft;
    without it the fiber rows (``factor._Rows``), float or exact, keep one
    row per level and no word index is built: Z_n is read from the rows."""
    pi, f, mode = case
    made, words = [], []

    def rows(*args):
        made.append(factor._Rows(*args))
        return made[-1]

    def word_levels(walk):
        for level in factor._word_levels(walk):
            words.append(len(level[0]))  # one row id per word
            yield level

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        docs = _documents(root, pi, f)
        for source in ("factor", "sft"):
            argv = ["pressure", "--" + source, docs[source], "--potential", docs["potential"],
                    "--depth", str(DEPTH), "--mode", mode]
            out = {}
            for name, extra in (("plain", []), ("table", ["--table-out", str(root / "t.json")])):
                made.clear()
                words.clear()
                with mock.patch.multiple(seqtable, _Rows=rows, _word_levels=word_levels):
                    assert main(argv + extra + ["--out", str(root / name)]) == 0
                out[name] = (root / name).read_bytes()
                if not extra:
                    assert words == []
                    assert [len(g) for walk in made for g in walk.g[1:]] == [1] * DEPTH
            assert out["plain"] == out["table"]
