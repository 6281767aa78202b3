"""Fuzz every JSON loader through cli.main: whatever the input file holds,
the CLI answers with an exit code in {0, 1, 2, 3}, lets no exception out and
writes only standard JSON.

Each input is a valid document with up to three of its nodes (the whole
document included) replaced by arbitrary JSON, so the loaders' deep checks
are reached as well as their first ones.
"""

import json
import os
import random
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thetanulls.cli import main
from thetanulls.f2core import _q0
from thetanulls.thetanum import random_int_symplectic

EXIT_CODES = {0, 1, 2, 3}

# any JSON value, including the NaN and Infinity tokens json.load accepts
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8)
weird = st.sampled_from([0.5, 1.0, True, "1", None, -1, 2, [], {}]) \
    | json_values


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _paths(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _paths(val, path + (i,))


@st.composite
def near_valid(draw, valid):
    doc = draw(valid)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(weird)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = draw(weird)
    return doc


def bit_lists(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


@st.composite
def quadruples(draw):
    g = draw(st.integers(2, 3))
    evens = [m for m in range(1 << (2 * g)) if _q0(m, g) == 0]
    masks = draw(st.lists(st.sampled_from(evens), min_size=4, max_size=4,
                          unique=True))
    return {"g": g,
            "chars": [[(m >> i) & 1 for i in range(2 * g)] for m in masks]}


@st.composite
def siegel(draw, g):
    """A symmetric Z with diagonally dominant imaginary part."""
    re = [[0.0] * g for _ in range(g)]
    im = [[0.0] * g for _ in range(g)]
    for i in range(g):
        im[i][i] = draw(st.floats(0.6, 1.5))
        for j in range(i, g):
            re[i][j] = re[j][i] = draw(st.floats(-1, 1))
            if j > i:
                im[i][j] = im[j][i] = draw(st.floats(-0.2, 0.2))
    return {"g": g, "re": re, "im": im}


def theta_eval(g):
    return st.fixed_dictionaries({"z": siegel(g), "k": bit_lists(2 * g)})


def int_symplectic(g):
    return st.integers(0, 10 ** 6).map(lambda s: random_int_symplectic(
        g, random.Random(s), steps=2).to_json_dict())


genus = st.integers(1, 2)
theta_transform = genus.flatmap(lambda g: st.fixed_dictionaries(
    {"m": int_symplectic(g), "z": siegel(g), "k": bit_lists(2 * g)}))
theta_split = st.fixed_dictionaries(
    {"blocks": st.lists(theta_eval(1), min_size=1, max_size=3)})


@st.composite
def node_sets(draw):
    g = draw(st.integers(3, 4))
    nodes = draw(st.lists(st.integers(-20, 20), min_size=2 * g + 2,
                          max_size=2 * g + 2, unique=True))
    doc = {"g": g, "nodes": [f"{x}/{draw(st.integers(1, 5))}"
                             for x in nodes]}
    return doc, ",".join(str(i) for i in range(1, g - 1)), g


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _check(doc, argv_for_path, capsys) -> None:
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main(argv_for_path(path))
    finally:
        os.unlink(path)
    out = capsys.readouterr().out
    assert code in EXIT_CODES
    if out:
        json.loads(out, parse_constant=_reject_constant)


@SETTINGS
@given(doc=near_valid(quadruples()))
def test_fuzz_classify(doc, capsys):
    _check(doc, lambda p: ["classify", "--input", p], capsys)


@SETTINGS
@given(doc=near_valid(genus.flatmap(theta_eval)))
def test_fuzz_theta_eval(doc, capsys):
    _check(doc, lambda p: ["theta", "eval", "--input", p], capsys)


@SETTINGS
@given(doc=near_valid(theta_transform))
def test_fuzz_theta_transform(doc, capsys):
    _check(doc, lambda p: ["theta", "transform", "--input", p], capsys)


@SETTINGS
@given(doc=near_valid(theta_split))
def test_fuzz_theta_split(doc, capsys):
    _check(doc, lambda p: ["theta", "split", "--input", p], capsys)


@SETTINGS
@given(case=node_sets(), mutated=st.data())
def test_fuzz_transversal(case, mutated, capsys):
    doc, points, g = case
    doc = mutated.draw(near_valid(st.just(doc)))
    _check(doc, lambda p: ["transversal", "--genus", str(g), "--nodes", p,
                           "--points", points], capsys)
