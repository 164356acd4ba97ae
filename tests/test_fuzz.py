"""Fuzz gate: no input file ends in a traceback or in stdout that is not JSON.

Mutations of the fixture ket files (read by ``pair --kets``) and triangulation
texts (read by ``grow --input``) run in process through ``cli.main``.  Every
run must return 0, 2, 3 or 4 without an exception escaping, and at exit 0 its
stdout must parse under a JSON loader that rejects ``NaN`` and ``Infinity``.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalchain.cli import main

DATA = Path(__file__).parent / "data"
KET_FILES = ("kets_dim0.json", "kets_dim1.json", "kets_mock.json")
TETRA = "dim=2\ns 2 0 1 2\ns 2 0 3 1\ns 2 1 3 2\ns 2 0 2 3\n"
TEXTS = ((DATA / "circle3.txt").read_text(), (DATA / "points22.txt").read_text(), TETRA)
POINTS = {"dimension": 0, "points": [0, 1]}
MOCK = {"kets": ["A", "B"], "glue": {"A|A": "s", "A|B": "s", "B|B": "s"}}

# the keys and labels the format uses, so mutations reach the reader's branches
NAMES = st.sampled_from([
    "boundary", "mock", "kets", "dimension", "points", "circles", "matching",
    "free_circles", "free_circle", "components", "closed", "re", "im", "id", "glue",
    "A", "B", "C", "A|B", "A|Z", "a", "b", "c0", "",
])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | NAMES
    | st.sampled_from([1e308, -1e308, 2**1100]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=8,
)
TOKENS = st.sampled_from([
    "v", "s", "b", "-", "0", "1", "2", "3", "5", "-1", "x", "0-1", "5-6", "1-0",
    "lower", "upper", "len2=1", "len2=0", "len2=-1", "len2=1/0", "len2=1e400", "len2=nan",
    "dim=0", "dim=1", "dim=2", "#",
])
LINES = st.sampled_from([
    "v 4", "v 0 -", "s 1 0 1", "s 1 0 2 len2=2", "s 1 1 1", "s 2 0 1 2", "s 2 0 1 3",
    "b 0 lower", "b 3 upper", "b 0-1 lower", "b 5-6 lower", "dim=2",
]) | st.lists(TOKENS, min_size=1, max_size=5).map(" ".join)


def _reject_constant(name):
    raise ValueError(f"stdout holds {name}, which JSON does not")


def _check_run(argv):
    """Run ``cli.main`` in process and hold it to the gate."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:  # both commands print only on success
        assert out.getvalue() == ""


def _paths(node, path=()):
    """Every path into a parsed JSON value, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@st.composite
def mutated_ket_file(draw):
    data = json.loads((DATA / draw(st.sampled_from(KET_FILES))).read_text())
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        op = draw(st.sampled_from(["replace", "copy", "delete", "insert"]))
        if not path:
            if op == "replace":
                data = draw(JSON_VALUES)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if op == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif op == "copy":  # another part of the same file, so shapes stay near the format's
            node = data
            for key in draw(st.sampled_from(list(_paths(data)))):
                node = node[key]
            parent[path[-1]] = copy.deepcopy(node)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(NAMES)] = draw(JSON_VALUES)
        else:
            parent.insert(path[-1], copy.deepcopy(draw(st.sampled_from(parent))))
    return json.dumps(data)  # writes NaN and Infinity, which the reader's json.load takes


@st.composite
def mutated_text(draw):
    lines = draw(st.sampled_from(TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines)))  # the dim= header stays
        op = draw(st.sampled_from(["insert", "delete", "replace", "token"]))
        if op == "insert" or not lines[i:]:
            lines.insert(i, draw(LINES))
        elif op == "delete":
            del lines[i]
        elif op == "replace":
            lines[i] = draw(LINES)
        else:
            parts = lines[i].split()
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=mutated_ket_file())
@example(text=json.dumps({"boundary": POINTS, "kets": [{"matching": [[0, 1]], "free_circle": 2}]}))
@example(text=json.dumps({"boundary": POINTS, "mock": MOCK, "kets": [{"id": "A", "re": 1.0}]}))
@example(text=json.dumps({"mock": MOCK, "kets": [{"id": "A", "matching": [["A", "B"]]}]}))
@example(text=json.dumps({"boundary": POINTS, "kets": [], "ket": []}))
@example(text=json.dumps({"boundary": {"dimension": 0, "points": ["a", "b"]},
                          "kets": [{"matching": [{"a": 1, "b": 2}], "re": 1.0}]}))
@example(text=json.dumps({"boundary": {"dimension": 1, "circles": ["c0"]},
                          "kets": [{"components": [[0, "c0"]], "re": 1.0}]}))
def test_pair_kets_fuzz(scratch, text):
    f = scratch / "kets.json"
    f.write_text(text)
    _check_run(["pair", "--kets", str(f)])


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=mutated_text(), subdivisions=st.sampled_from(["1", "1", "1", "2", "0", "-3", "7"]))
@example(text=TETRA + "b 5-6 lower\n", subdivisions="1")
@example(text="dim=2\nv 0 -\n" + TETRA[6:], subdivisions="1")
@example(text=TETRA + "s 1 0 5\n", subdivisions="1")
@example(text=TETRA + "s 1 0 1 len2=2\ns 1 1 0 len2=3\n", subdivisions="1")
@example(text=TEXTS[0], subdivisions="7")
@example(text=TEXTS[1], subdivisions="0")
def test_grow_input_fuzz(scratch, text, subdivisions):
    f = scratch / "slice.txt"
    f.write_text(text)
    _check_run(["grow", "--input", str(f), "--seed", "3", "--subdivisions", subdivisions])
