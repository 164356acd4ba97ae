"""Golden outputs: CLI stdout and trace CSVs compared byte for byte.

The fixtures in ``tests/data`` pin the exact output of a few small runs, so a
refactor that claims unchanged behaviour can prove it.  ``sample``, ``pair``,
``grow``, ``gap`` and ``positivity`` print JSON (``<case>.json``), and a
``sample`` trace goes to ``<case>.csv``; ``twofield`` and ``series`` print
CSV (``<case>.csv``).  Regenerate them only together with a stated behaviour
change, naming the cases that change (all of them when none is named):

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

Runs use a relative ``--trace`` name in a scratch directory, because the trace
path is echoed in the JSON.  The ``grow`` slices and the ``pair`` ket files are
written into the run directory first, so regeneration leaves them in
``tests/data`` next to the outputs they produce.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from formalchain.cli import main
from formalchain.topo import circle, to_text
from support import signed_points

DATA = Path(__file__).parent / "data"

# slices for ``grow``, written into the run directory under these names
GROW_INPUTS = {"circle3.txt": circle(3), "points22.txt": signed_points(2, 2)}
# ket files for ``pair --kets``, written into the run directory under these names
KET_INPUTS = {
    # matchings of four points, two of them with free circles
    "kets_dim0.json": {
        "boundary": {"dimension": 0, "points": [0, 1, 2, 3]},
        "kets": [
            {"matching": [[0, 1], [2, 3]], "free_circles": 1, "re": 0.5},
            {"matching": [[0, 2], [1, 3]], "re": -0.5, "im": 0.25},
            {"matching": [[0, 3], [1, 2]], "free_circles": 2, "re": 0.75},
        ],
    },
    # surfaces over two circles, one with a closed genus-2 component riding along
    "kets_dim1.json": {
        "boundary": {"dimension": 1, "circles": ["a", "b"]},
        "kets": [
            {"components": [[0, ["a", "b"]]], "re": 1.0},
            {"components": [[1, ["a"]], [0, ["b"]]], "closed": [2], "re": -0.5},
            {"components": [[0, ["a"]], [2, ["b"]]], "re": 0.25, "im": -0.5},
        ],
    },
    # opaque kets; the missing half of the symmetric table is filled in
    "kets_mock.json": {
        "mock": {"kets": ["A", "B", "C"],
                 "glue": {"A|A": "s", "A|B": "t", "A|C": "s", "B|B": "s", "B|C": "u",
                          "C|C": "t"}},
        "kets": [{"id": "A", "re": 1.0}, {"id": "B", "re": -1.0}, {"id": "C", "im": 0.5}],
    },
}
# commands whose stdout is CSV rather than JSON
CSV_COMMANDS = ("twofield", "series")

# Acceptance-9 couplings; the free and the stiff run differ only in h.1.
MIXED = [
    "g.0=0.5", "g.1=1", "g.2=6", "f.0=0.01", "f.1=0.01", "f.2=0.01",
    "Lambda.0=0.05", "Lambda.1=0", "Lambda.2=0.5",
    "weight.extend=0.15", "weight.fluctuate=0.65", "weight.reweight=0.2",
]
# Cheap volume terms, so chains climb through dimension 2 into the mock stage.
MOCK = [
    "g.0=0.1", "g.1=0.1", "g.2=0.1",
    "weight.extend=0.5", "weight.fluctuate=0.3", "weight.reweight=0.2",
]
# Partial layers and shed components, priced low enough to reach dimension 2.
PARTIAL = MOCK + ["layer=partial", "topology_change=true", "p_circle=0.3",
                  "singular_penalty=1"]


def _sample(name, seed, chains, sweeps, settings):
    argv = ["sample", "--seed", str(seed), "--chains", str(chains), "--sweeps", str(sweeps)]
    for item in settings:
        argv += ["--set", item]
    return argv + ["--trace", f"{name}.csv"]


CASES = {
    "sample_free": _sample("sample_free", 5000, 4, 100, MIXED + ["h.1=0"]),
    "sample_stiff": _sample("sample_stiff", 5000, 4, 100, MIXED + ["h.1=100"]),
    "sample_mock_s0": _sample("sample_mock_s0", 0, 6, 80, MOCK),
    "sample_mock_s1": _sample("sample_mock_s1", 1, 6, 80, MOCK),
    "sample_partial": _sample("sample_partial", 21, 4, 80, PARTIAL),
    "pair_cancellation": ["pair", "--example", "cancellation-3.2"],
    "pair_freedman": ["pair", "--example", "freedman-3.1"],
    "pair_kets_dim0": ["pair", "--kets", "kets_dim0.json"],
    "pair_kets_dim1": ["pair", "--kets", "kets_dim1.json"],
    "pair_kets_mock": ["pair", "--kets", "kets_mock.json"],
    # the coupling V keeps the state on the 2D grid
    "twofield_coupled": ["twofield", "--lambda", "0.5", "--v-depth", "0.8", "--grid", "32",
                         "--steps", "200", "--dt", "0.002", "--stride", "20"],
    # without V the product state evolves and is recorded as its two factors
    "twofield_uncoupled": ["twofield", "--lambda", "0.5", "--grid", "32",
                           "--steps", "200", "--dt", "0.002", "--stride", "20"],
    "positivity_p6": ["positivity", "--seed", "3", "--points", "6", "--families", "4"],
    # three distinct kets exist, so every family is short of --kets-per-family
    "positivity_p4_short": ["positivity", "--seed", "5", "--points", "4", "--families", "5",
                            "--kets-per-family", "5"],
    "positivity_free": ["positivity", "--seed", "7", "--points", "6", "--families", "3",
                        "--max-free-circles", "2"],
    "series": ["series", "--gmax", "6"],
    "grow_circle": ["grow", "--seed", "3", "--input", "circle3.txt"],
    "grow_points": ["grow", "--seed", "3", "--input", "points22.txt"],
    "gap_sphere": ["gap", "--graph", "sphere:40"],
    "gap_circles": ["gap", "--graph", "circles:1:6"],
}


def _write_inputs(directory):
    for name, space in GROW_INPUTS.items():
        (Path(directory) / name).write_text(to_text(space))
    for name, data in KET_INPUTS.items():
        (Path(directory) / name).write_text(json.dumps(data, indent=2) + "\n")


def _stdout_file(name):
    return DATA / (f"{name}.csv" if CASES[name][0] in CSV_COMMANDS else f"{name}.json")


def _run(name, capsys):
    """(stdout, trace text or None) of one case, run in the current directory."""
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    trace = Path(f"{name}.csv")
    return out, trace.read_text() if trace.exists() else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    out, trace = _run(name, capsys)
    assert out == _stdout_file(name).read_text()
    if "--trace" in CASES[name]:
        assert trace == (DATA / f"{name}.csv").read_text()
    else:
        assert trace is None


def _stdouts_under_hash_seeds(argv, cwd):
    """Stdout of one CLI run in a fresh process per ``PYTHONHASHSEED``."""
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "formalchain"] + argv,
            cwd=cwd, env=env, capture_output=True, text=True, check=True,
        )
        outs.append(proc.stdout)
    return outs


def test_sample_stdout_independent_of_hash_seed(tmp_path):
    outs = _stdouts_under_hash_seeds(CASES["sample_mock_s0"], tmp_path)
    assert outs[0] == outs[1]
    assert outs[0] == (DATA / "sample_mock_s0.json").read_text()


@pytest.mark.parametrize("argv", [
    ["positivity", "--seed", "3", "--points", "6", "--families", "4"],
    ["pair", "--example", "freedman-3.1"],
    ["pair", "--example", "cancellation-3.2"],
    ["pair", "--kets", "kets_mock.json"],
    ["series", "--gmax", "6"],
    ["grow", "--seed", "3", "--input", "circle3.txt"],
    ["grow", "--seed", "3", "--input", "points22.txt"],
    ["gap", "--graph", "sphere:40"],
    ["gap", "--graph", "circles:1:6"],
    ["twofield", "--steps", "50", "--grid", "32", "--stride", "10"],
], ids=["positivity", "pair", "pair_cancellation", "pair_kets_mock", "series", "grow_circle", "grow_points",
        "gap_sphere", "gap_circles", "twofield"])
def test_stdout_independent_of_hash_seed(argv, tmp_path):
    _write_inputs(tmp_path)
    outs = _stdouts_under_hash_seeds(argv, tmp_path)
    assert outs[0] == outs[1]


if __name__ == "__main__":
    import contextlib
    import io

    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    DATA.mkdir(exist_ok=True)
    os.chdir(DATA)
    _write_inputs(DATA)
    for case in names:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(CASES[case]) == 0
        _stdout_file(case).write_text(buf.getvalue())
