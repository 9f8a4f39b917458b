"""The library entry points the repository documents or measures outside
the CLI: the README's library quickstart runs as written and gives the
values its comments state, and every function the benchmark traces
(``LAYER_FUNCTIONS`` in ``perfbench/run.py``, read without importing it)
exists, so deleting a traced name fails here by name."""

import ast
import importlib
import math
import re
from fractions import Fraction
from pathlib import Path

from thermoshift.verdicts import Verdict

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\s+```python\n(.*?)```", readme, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert ns["est"].exact_base == 3
    a, b = (ns["pi"].image.word_from_names([s]) for s in "ab")
    fit = ns["fit"]
    assert fit.values[a] == math.log(2) and fit.values[b] == 0
    assert fit.tstar == 0 and fit.tstar_exact == 0
    assert ns["report"].verdict == Verdict.CERTIFIED
    assert ns["mass"] == Fraction(2, 9)


def test_traced_layer_functions_exist():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets))
    assert names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module("thermoshift." + module)
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        assert callable(obj), name
