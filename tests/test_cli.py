"""Command-line interface: exit codes, determinism, output shapes."""

import json
import math
from pathlib import Path

import pytest

from formalchain import config as cfgmod
from formalchain.cli import main
from formalchain.topo import circle, to_text
from formalchain.twofield import TwoFieldParams, _propagator_pays

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero():
    for sub in ("pair", "series", "grow", "sample", "gap", "twofield", "positivity"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0


def test_pair_example_31(capsys):
    code, out, _ = run_cli(capsys, "pair", "--example", "freedman-3.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm2"] == 1.75
    assert payload["norm2_exact"] == "7/4"
    assert len(payload["result"]["terms"]) == 7


def test_pair_example_32(capsys):
    code, out, _ = run_cli(capsys, "pair", "--example", "cancellation-3.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["terms"] == []
    assert payload["terminated"] and payload["terminated_dimension"] == 1


def test_pair_single_ket_file(tmp_path, capsys):
    f = tmp_path / "kets.json"
    f.write_text(json.dumps({
        "boundary": {"dimension": 0, "points": [0, 1]},
        "kets": [{"matching": [[0, 1]], "free_circles": 0, "re": 1.0, "im": 0.0}],
    }))
    code, out, _ = run_cli(capsys, "pair", "--kets", str(f))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]["terms"]) == 1


def test_pair_boundary_mismatch_exit_3(tmp_path, capsys):
    f = tmp_path / "kets.json"
    f.write_text(json.dumps({
        "boundary": {"dimension": 0, "points": [0, 1]},
        "kets": [
            {"matching": [[0, 1]], "re": 1.0},
            {"matching": [[2, 3]], "re": -1.0},
        ],
    }))
    code, _, err = run_cli(capsys, "pair", "--kets", str(f))
    assert code == 3
    assert "boundary" in err.lower()


def test_pair_declared_boundary_mismatch_exit_3(tmp_path, capsys):
    # kets that agree with each other but not with the declared boundary
    mock = {"kets": ["A"], "glue": {"A|A": "s"}}
    cases = [
        ({"boundary": {"dimension": 0, "points": [0, 1, 2, 3]},
          "kets": [{"matching": [[0, 1]], "re": 1.0}]},
         "ket match[0-1]+0o does not match boundary [0, 1, 2, 3]"),
        ({"boundary": {"dimension": 1, "circles": ["a", "b"]},
          "kets": [{"components": [[0, ["a"]]], "re": 1.0}]},
         "ket surf[g0(a)] does not cover circles ['a', 'b']"),
        ({"mock": mock, "kets": [{"id": "A", "re": 1.0}, {"id": "B", "re": 1.0}]},
         "unknown mock ket 'B'"),
    ]
    f = tmp_path / "kets.json"
    for data, message in cases:
        f.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "pair", "--kets", str(f))
        assert code == 3
        assert out == ""
        assert err.startswith("boundary mismatch: ") and message in err
    # every ket is parsed before the boundary is checked
    f.write_text(json.dumps({"boundary": {"dimension": 0, "points": [0, 1, 2, 3]},
                             "kets": [{"matching": [[0, 1]], "re": 1.0}, {"re": 1.0}]}))
    code, _, err = run_cli(capsys, "pair", "--kets", str(f))
    assert code == 2 and "ket 1 has no 'matching'" in err


def test_pair_bad_file_exit_2(tmp_path, capsys):
    mock = {"kets": ["A", "B"], "glue": {"A|A": "s", "A|B": "s", "B|A": "s", "B|B": "s"}}
    points = {"dimension": 0, "points": [0, 1]}
    circles = {"dimension": 1, "circles": ["a"]}
    cases = [
        ("{not json", ""),
        (json.dumps({"boundary": points}), "'kets'"),
        (json.dumps({"boundary": points, "kets": [{"re": 1.0}]}), "ket 0 has no 'matching'"),
        (json.dumps({"mock": mock, "kets": [{"id": "B", "re": 1.0}, {"id": "A", "re": "one"}]}),
         "ket 1: 're' must be a number"),
        ('{"boundary": {"dimension": 0, "points": [0, 1]}, "kets": [{"matching": [[0, 1]], '
         '"re": NaN}]}', "ket 0: 're' must be finite, got nan"),
        ('{"boundary": {"dimension": 0, "points": [0, 1]}, "kets": [{"matching": [[0, 1]], '
         '"re": 1.0, "im": -Infinity}]}', "ket 0: 'im' must be finite, got -inf"),
        (json.dumps({"boundary": points, "kets": [{"matching": [[0, 1]], "re": 1.0},
                                                  {"matching": [[0, 1]], "re": True}]}),
         "ket 1: 're' must be a number, got True"),
        (json.dumps({"mock": {"kets": ["A"]}, "kets": [{"id": "A", "re": 1.0}]}), "'glue'"),
        (json.dumps({"mock": {"kets": "A", "glue": {}}, "kets": []}), "'kets' list of names"),
        ("[1, 2]", "ket file must hold a JSON object"),
        (json.dumps({"boundary": 5, "kets": []}), "'boundary' must be an object"),
        (json.dumps({"boundary": {"dimension": 0, "points": 5}, "kets": []}),
         "'boundary.points' must be a list"),
        (json.dumps({"boundary": {"dimension": 1, "circles": 5}, "kets": []}),
         "'boundary.circles' must be a list"),
        (json.dumps({"boundary": {"dimension": 0, "points": [[0], [1]]},
                     "kets": [{"matching": [[[0], [1]]], "re": 1.0}]}),
         "'boundary.points' entry 0 must be a label"),
        (json.dumps({"boundary": {"dimension": 1, "circles": [["a"], "b"]}, "kets": []}),
         "'boundary.circles' entry 0 must be a label"),
        (json.dumps({"boundary": {"dimension": 1, "circles": ["a", {"b": 1}]}, "kets": []}),
         "'boundary.circles' entry 1 must be a label"),
        (json.dumps({"mock": mock, "kets": [{"id": ["A"], "re": 1.0}]}),
         "ket 0: 'id' must be a name"),
        (json.dumps({"boundary": points, "kets": [{"matching": [[0]], "re": 1.0}]}),
         "ket 0: arc [0] must join two points"),
        (json.dumps({"boundary": points, "kets": [{"matching": [[0, 1, 2, 3]], "re": 1.0}]}),
         "ket 0: arc [0, 1, 2, 3] must join two points"),
        # kets sort their labels, so no ket fits labels that do not compare
        (json.dumps({"boundary": {"dimension": 0, "points": [1, "a"]},
                     "kets": [{"matching": [[0, 1]], "re": 1.0}]}),
         "'boundary.points' mixes labels that do not compare: [1, 'a']"),
        (json.dumps({"boundary": points, "kets": [{"matching": [[0, 1]], "free_circles": 1.5}]}),
         "ket 0: free circle count must be an integer"),
        (json.dumps({"boundary": points, "kets": [{"matching": [[0, 1]], "free_circles": True}]}),
         "ket 0: free circle count must be an integer"),
        (json.dumps({"boundary": circles, "kets": [{"components": [[0, ["a"]]], "closed": [0.5]}]}),
         "ket 0: genus must be an integer"),
        (json.dumps({"boundary": circles, "kets": [{"components": [[1.5, ["a"]]]}]}),
         "ket 0: genus must be an integer"),
        (json.dumps({"boundary": {"dimension": 0, "points": [0, 1, 0]}, "kets": []}),
         "boundary point labels must be unique"),
        (json.dumps({"boundary": {"dimension": 1, "circles": ["a", "a"]}, "kets": []}),
         "boundary circle labels must be unique"),
        (json.dumps({"mock": {"kets": ["A"], "glue": {"A|A": "s", "AA": "t"}},
                     "kets": [{"id": "A", "re": 1.0}]}), "mock glue key 'AA'"),
        (json.dumps({"mock": {"kets": ["A"], "glue": {"A|A": "s", "A|A|A": "t"}},
                     "kets": [{"id": "A", "re": 1.0}]}), "mock glue key 'A|A|A'"),
        (json.dumps({"mock": {"kets": ["A"], "glue": {"A|A": "s", "A|Z": "u"}},
                     "kets": [{"id": "A", "re": 1.0}]}), "mock glue key 'A|Z'"),
        (json.dumps({"mock": {"kets": ["A"], "glue": {"A|A": "s", "Z|A": "u"}},
                     "kets": [{"id": "A", "re": 1.0}]}), "mock glue key 'Z|A'"),
        # each object takes only its declared keys
        (json.dumps({"boundary": points, "kets": [{"matching": [[0, 1]], "free_circle": 2}]}),
         "ket 0 has unknown key 'free_circle'"),
        (json.dumps({"boundary": points, "mock": mock, "kets": [{"id": "A", "re": 1.0}]}),
         "ket file needs exactly one of a 'boundary' and a 'mock' object"),
        (json.dumps({"mock": mock, "kets": [{"id": "A", "matching": [["A", "B"]], "re": 1.0}]}),
         "ket 0 has unknown key 'matching'"),
        (json.dumps({"boundary": points, "kets": [], "ket": []}), "ket file has unknown key 'ket'"),
        (json.dumps({"boundary": {**points, "dim": 0}, "kets": []}),
         "'boundary' has unknown key 'dim'"),
        (json.dumps({"mock": {**mock, "classes": {}}, "kets": []}), "'mock' has unknown key 'classes'"),
        # the ket classes check the shape of what the file holds
        (json.dumps({"boundary": {"dimension": 0, "points": ["a", "b"]},
                     "kets": [{"matching": [{"a": 1, "b": 2}], "re": 1.0}]}),
         "ket 0: arc {'a': 1, 'b': 2} must join two points"),
        (json.dumps({"boundary": points, "kets": [{"matching": ["01"], "re": 1.0}]}),
         "ket 0: arc '01' must join two points"),
        (json.dumps({"boundary": {"dimension": 1, "circles": ["c0"]},
                     "kets": [{"components": [[0, "c0"]], "re": 1.0}]}),
         "ket 0: component [0, 'c0'] must be a genus and a list of circle labels"),
        # a surface piece bounds each circle at most once
        (json.dumps({"boundary": circles, "kets": [{"components": [[0, ["a", "a"]]], "re": 1.0}]}),
         "ket 0: component [0, ['a', 'a']] lists a boundary circle twice"),
        (json.dumps({"boundary": {"dimension": 1, "circles": ["a", "b"]},
                     "kets": [{"components": [[0, ["a"]]], "re": 1.0},
                              {"components": [[1, ["b", "a", "b"]]], "re": 1.0}]}),
         "ket 1: component [1, ['b', 'a', 'b']] lists a boundary circle twice"),
        # the boundary's labels follow its dimension
        (json.dumps({"boundary": {**points, "circles": ["x"]},
                     "kets": [{"matching": [[0, 1]], "re": 1.0}]}),
         "'boundary' has unknown key 'circles'"),
        (json.dumps({"boundary": {**circles, "points": [0, 1]},
                     "kets": [{"components": [[0, ["a"]]], "re": 1.0}]}),
         "'boundary' has unknown key 'points'"),
        (json.dumps({"boundary": {"dimension": 2, "circles": ["a"]}, "kets": []}),
         "unsupported boundary dimension 2"),
        (json.dumps({"boundary": {"dimension": [0], "points": [0, 1]}, "kets": []}),
         "unsupported boundary dimension [0]"),
        (json.dumps({"boundary": {"dimension": True, "circles": ["a"]},
                     "kets": [{"components": [[0, ["a"]]], "re": 1.0}]}),
         "unsupported boundary dimension True"),
        (json.dumps({"boundary": {"dimension": 0.0, "points": [0, 1]},
                     "kets": [{"matching": [[0, 1]], "re": 1.0}]}),
         "unsupported boundary dimension 0.0"),
    ]
    f = tmp_path / "kets.json"
    for text, message in cases:
        f.write_text(text)
        code, out, err = run_cli(capsys, "pair", "--kets", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("data", [
    {"boundary": {"dimension": 0, "points": [0, 1]},
     "kets": [{"matching": [[0, 1]], "re": 1e308},
              {"matching": [[0, 1]], "free_circles": 1, "re": 1e308}]},
    {"mock": {"kets": ["A"], "glue": {"A|A": "s"}}, "kets": [{"id": "A", "re": 1e308}]},
], ids=["boundary", "mock"])
def test_pair_non_finite_result_exit_4(tmp_path, capsys, data):
    # finite amplitudes whose pairing overflows: JSON holds no Infinity
    f = tmp_path / "kets.json"
    f.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "pair", "--kets", str(f))
    assert code == 4
    assert out == ""
    assert err.startswith("numeric failure: result is not finite")


def test_pair_requires_exactly_one_source(capsys):
    code, _, _ = run_cli(capsys, "pair")
    assert code == 2


def test_series_small(capsys):
    code, out, _ = run_cli(capsys, "series", "--gmax", "4", "--exact-upto", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "g,coefficient,partial_sum_of_squares"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
    assert float(rows[2][1]) == pytest.approx(11 / 12)
    exact_lines = [l for l in out.splitlines() if l.startswith("# exact")]
    assert "# exact g=2: 11/12" in exact_lines
    assert "# exact g=3: 5/6" in exact_lines


@pytest.mark.parametrize("flag", ["--gmax", "--exact-upto"])
def test_series_negative_count_exit_2(capsys, flag):
    code, out, err = run_cli(capsys, "series", "--gmax", "5", flag, "-1")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be nonnegative\n"


def test_series_gmax_zero(capsys):
    code, out, _ = run_cli(capsys, "series", "--gmax", "0")
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert code == 0 and len(rows) == 2
    assert rows[1].startswith("0,1.0,")


def test_grow_roundtrip(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text(to_text(circle(4)))
    out_t = tmp_path / "d.txt"
    code, out, _ = run_cli(capsys, "grow", "--input", str(f), "--seed", "9",
                           "--out", str(out_t))
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_constraint_satisfied"] is True
    assert payload["double_class"] == "surface(g1)"
    assert out_t.exists()


def test_grow_missing_seed_rejected(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text(to_text(circle(4)))
    with pytest.raises(SystemExit) as exc:
        main(["grow", "--input", str(f)])
    assert exc.value.code == 2


def test_grow_bad_input_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    cases = [
        ("dim=1\nnonsense\n", "line 2"),
        # a boundary pair that is no side of any face
        ("dim=2\ns 2 0 1 2\nb 5-6 lower\n", "line 3: boundary edge 5-6 is no side of a face"),
        # a sign on a circle's vertex, which nothing reads
        ("dim=1\nv 0 -\nv 1\nv 2\ns 1 0 1\ns 1 1 2\ns 1 2 0\n",
         "line 2: a dimension-1 vertex takes no sign"),
    ]
    for text, message in cases:
        f.write_text(text)
        code, _, err = run_cli(capsys, "grow", "--input", str(f), "--seed", "1")
        assert code == 2
        assert message in err


def test_grow_len2_overflow_exit_2(tmp_path, capsys):
    # an exact rational whose float overflows where the geometry reads it
    f = tmp_path / "big.txt"
    f.write_text("dim=1\nv 0\nv 1\nv 2\ns 1 0 1 len2=1e400\ns 1 1 2\ns 1 2 0\n")
    code, out, err = run_cli(capsys, "grow", "--input", str(f), "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: line 5: len2 '1e400' is not a finite rational\n"


@pytest.mark.parametrize("data, value, need", [
    ("points22.txt", "0", "at least 1"),
    ("circle3.txt", "-3", "1: circle growth has no arcs to subdivide"),
    ("circle3.txt", "7", "1: circle growth has no arcs to subdivide"),
])
def test_grow_subdivisions_checked_exit_2(capsys, data, value, need):
    code, out, err = run_cli(capsys, "grow", "--input", str(DATA / data), "--seed", "3",
                             "--subdivisions", value)
    assert (code, out) == (2, "")
    assert err == f"error: --subdivisions must be {need}, got {value}\n"


def test_grow_config_sets_growth_keys_only(tmp_path, capsys):
    f = tmp_path / "slice.txt"
    f.write_text("dim=0\nv 0\nv 1\n")
    cfg = tmp_path / "run.cfg"
    out_file = tmp_path / "double.txt"
    cfg.write_text("alpha.1 = 2\n")
    code, _, err = run_cli(capsys, "grow", "--input", str(f), "--seed", "1",
                           "--config", str(cfg), "--out", str(out_file))
    assert code == 0, err
    edges = [l for l in out_file.read_text().splitlines() if l.startswith("s 1 ")]
    assert edges and all(l.endswith(" len2=2") for l in edges)
    # sampler and action keys are not read by grow, so they are not accepted
    for text, key in (("chains = 3\n", "chains"), ("G = 5\nh.1 = 100\n", "G")):
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "grow", "--input", str(f), "--seed", "1",
                                 "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: line 1: unknown key '{key}'\n"


# every user-facing key, spelled out so that renaming a config field cannot
# silently rename its key
PUBLIC_KEYS = [
    "G", "Lambda.0", "Lambda.1", "Lambda.2", "c.0", "c.1", "c.2", "f.0", "f.1", "f.2",
    "g.0", "g.1", "g.2", "h.0", "h.1", "h.2", "singular_penalty",
    "alpha.0", "alpha.1", "alpha.2", "a", "layer", "topology_change", "p_circle",
    "chains", "sweeps", "max_dimension", "mock_stage", "initial_points", "x1_candidates",
    "weight.extend", "weight.fluctuate", "weight.reweight", "temperature",
]


def test_config_keys_are_pinned():
    assert list(cfgmod.ACTION_KEYS) == PUBLIC_KEYS[:17]
    assert list(cfgmod.GROWTH_KEYS) == PUBLIC_KEYS[17:24]
    assert list(cfgmod.SAMPLER_KEYS) == PUBLIC_KEYS[24:]
    assert list(cfgmod.SAMPLE_COMMAND_KEYS) == PUBLIC_KEYS


def test_readme_run_config_builds():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("### Run config format", 1)[1].split("```")[1]
    settings = cfgmod.parse_config_text(example, cfgmod.SAMPLE_COMMAND_KEYS)
    assert cfgmod.action_params_from(settings).Lambda[2] == 0.5
    cfg = cfgmod.sampler_config_from(settings, 11)
    assert (cfg.seed, cfg.sweeps, cfg.weight_fluctuate) == (11, 200, 0.65)
    assert cfg.growth == cfgmod.growth_config_from(settings)


def test_sample_deterministic(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chains = 3\nsweeps = 20\ng.0 = 0.5\ng.1 = 1\ng.2 = 6\n")
    code1, out1, _ = run_cli(capsys, "sample", "--seed", "4", "--config", str(cfg))
    code2, out2, _ = run_cli(capsys, "sample", "--seed", "4", "--config", str(cfg))
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["config"]["seed"] == "4"
    assert payload["config"]["chains"] == "3"


def test_sample_zero_sweeps_flag(capsys):
    code, out, _ = run_cli(capsys, "sample", "--seed", "1", "--sweeps", "0",
                           "--chains", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["termination_histogram"] == {}
    assert payload["unterminated"] == 2


@pytest.mark.parametrize("sweeps, warning", [
    ("100", "warning: accepted 0 of 400 proposals\n"),
    ("0", ""),
])
def test_sample_warns_when_nothing_accepted(capsys, sweeps, warning):
    # the default volume couplings (g_d = 10) reject every first extend
    code, out, err = run_cli(capsys, "sample", "--seed", "11", "--chains", "4",
                             "--sweeps", sweeps)
    assert code == 0
    assert err == warning
    payload = json.loads(out)
    assert all(v["accepted"] == 0 for v in payload["acceptance"].values())


# the couplings and proposal weights of acceptance 9, free kinetic term
ACCEPTANCE_9 = ["g.0=0.5", "g.1=1", "g.2=6", "f.0=0.01", "f.1=0.01", "f.2=0.01",
                "Lambda.0=0.05", "Lambda.2=0.5",
                "weight.extend=0.15", "weight.fluctuate=0.65", "weight.reweight=0.2"]


@pytest.mark.parametrize("sweeps, warning", [
    ("200", "warning: 137 of 342 extend proposals raised an error (StructureError 137)\n"),
    ("0", ""),
])
def test_sample_warns_when_proposals_keep_raising(capsys, sweeps, warning):
    # extends over a one-edge circle raise StructureError
    argv = ["sample", "--seed", "5000", "--chains", "12", "--sweeps", sweeps]
    for item in ACCEPTANCE_9:
        argv += ["--set", item]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == warning
    payload = json.loads(out)
    assert "errors" not in payload
    if warning:
        assert payload["acceptance"]["extend"]["proposed"] == 342


# the golden sample_partial settings without their finite singular_penalty
PARTIAL = ["g.0=0.1", "g.1=0.1", "g.2=0.1",
           "weight.extend=0.5", "weight.fluctuate=0.3", "weight.reweight=0.2",
           "layer=partial", "topology_change=true", "p_circle=0.3"]


def test_sample_infinite_singular_penalty(capsys):
    argv = ["sample", "--seed", "21", "--chains", "4", "--sweeps", "80"]
    for item in PARTIAL + ["singular_penalty=inf"]:
        argv += ["--set", item]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["config"]["singular_penalty"] == "inf"
    assert payload["unterminated"] + sum(payload["termination_histogram"].values()) == 4
    for bad in ("singular_penalty=nan", "singular_penalty=-inf", "g.1=inf", "G=inf"):
        code2, out2, err2 = run_cli(capsys, "sample", "--seed", "1", "--sweeps", "1",
                                    "--set", bad)
        assert code2 == 2, bad
        assert out2 == ""
        assert err2 == f"error: key {bad.split('=')[0]!r}: bad number {bad.split('=')[1]!r}\n"


def test_sample_number_out_of_float_range_exit_2(capsys):
    code, out, err = run_cli(capsys, "sample", "--seed", "1", "--set", "g.0=1e400")
    assert code == 2
    assert out == ""
    assert err == "error: key 'g.0': number '1e400' is out of float range\n"


@pytest.mark.parametrize("flag, value", [("--chains", "-2"), ("--sweeps", "-1")])
def test_sample_negative_count_exit_2(capsys, flag, value):
    code, out, err = run_cli(capsys, "sample", "--seed", "1", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag[2:]} must be nonnegative\n"


def test_sample_set_override(capsys):
    code, out, _ = run_cli(capsys, "sample", "--seed", "1", "--sweeps", "2",
                           "--set", "g.1=3", "--set", "chains=2")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["g.1"] == "3"
    for bad, named in (
        ("nonsense=1", "'nonsense'"),
        ("a=0", "a must be positive"),
        ("a=abc", "'abc'"),
        ("alpha.2=-1", "alpha must be positive"),
        ("initial_points=-1", "initial_points must be at least 0, got -1"),
        ("x1_candidates=0", "x1_candidates must be at least 1, got 0"),
        ("x1_candidates=-2", "x1_candidates must be at least 1, got -2"),
        ("max_dimension=-1", "max_dimension must be at least 0, got -1"),
        ("p_circle=1", "p_circle must lie in [0, 1), got 1.0"),
        ("p_circle=-0.1", "p_circle must lie in [0, 1), got -0.1"),
        ("partial_retry=64", "unknown key 'partial_retry'"),
    ):
        code2, _, err = run_cli(capsys, "sample", "--seed", "1", "--sweeps", "1",
                                "--set", bad)
        assert code2 == 2, bad
        assert err.startswith("error: "), bad
        assert named in err, bad


def test_sample_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chains = 3\nturbo = yes\n")
    code, _, err = run_cli(capsys, "sample", "--seed", "4", "--config", str(cfg))
    assert code == 2
    assert "turbo" in err


def test_sample_trace_csv(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chains = 2\nsweeps = 5\n")
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "sample", "--seed", "4", "--config", str(cfg),
                           "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "sweep,chain_id,S_total,S_curv,S_vol,S_kin,terminated_d"
    assert len(lines) == 1 + 2 * 5


def test_gap_known_graphs(capsys):
    for spec, want in (("path2", 2.0), ("cycle4", 2.0), ("star3", 1.0)):
        code, out, _ = run_cli(capsys, "gap", "--graph", spec)
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] == pytest.approx(want, abs=1e-6)
        assert payload["oracle_abs_diff"] < 1e-6


def test_gap_circle_classes(capsys):
    code, out, _ = run_cli(capsys, "gap", "--graph", "circles:3:7")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 5
    assert payload["gap"] == pytest.approx(2 - 2 * math.cos(math.pi / 5), abs=1e-6)


def test_gap_unknown_spec(capsys):
    cases = [(spec, repr(spec)) for spec in ("dodecahedron", "pathx", "star", "circles:3",
                                             "sphere:abc")]
    # circles have at least one edge
    cases += [("circles:-2:1", "min_size -2 "), ("circles:0:3", "min_size 0 ")]
    # a vertex cap below the seed sphere's 4 vertices
    cases += [("sphere:-1", "size cap -1 "), ("sphere:3", "size cap 3 ")]
    for spec, message in cases:
        code, out, err = run_cli(capsys, "gap", "--graph", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


def test_twofield_csv(capsys):
    code, out, _ = run_cli(
        capsys, "twofield", "--lambda", "0", "--steps", "200", "--dt", "0.002",
        "--grid", "64", "--stride", "100",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "t,joint_norm,phi_norm,com_x"
    assert len(lines) >= 3


def test_twofield_nan_norm_exit_4(capsys):
    # an overflowing potential turns every norm into NaN, which must fail the
    # drift check instead of printing nan rows; with the coupling V the state
    # evolves on the 2D grid, without it as two factors, advanced a stride at
    # a time by the propagator, or by the split step when no stride fits
    for potential, steps, stride in (("--v-depth", 2, 1), ("--lambda", 2, 1),
                                     ("--lambda", 8, 4), ("--lambda", 2, 4)):
        argv = (potential, "1e308", "--dt", "1e10", "--steps", str(steps),
                "--grid", "16", "--stride", str(stride))
        p = TwoFieldParams(steps=steps, grid_n=16, sample_stride=stride)
        assert _propagator_pays(p) is (steps >= stride)
        code, out, err = run_cli(capsys, "twofield", *argv)
        assert code == 4, argv
        assert "nan" not in out, argv
        assert "numeric failure" in err, argv


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_twofield_bad_stride_exit_2(capsys, stride):
    code, out, err = run_cli(capsys, "twofield", "--steps", "2", "--grid", "16",
                             "--stride", stride)
    assert code == 2
    assert out == ""
    assert err == "error: sample stride must be at least 1\n"


def test_positivity_report(capsys):
    code, out, _ = run_cli(
        capsys, "positivity", "--seed", "1", "--points", "4", "--families", "2",
        "--kets-per-family", "3", "--trials", "8", "--steps", "120",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order_violations"] == 0
    assert payload["mock_null_residual"] < 1e-8
    assert all(r > 0.05 for r in payload["min_residuals"])
    assert payload["mock_argmin_ratio_re"] == pytest.approx(-1.0, abs=1e-3)


def test_positivity_warns_when_families_hold_every_ket(capsys):
    # 4 points have 3 matchings, so a family of 4 distinct kets cannot exist
    code, out, err = run_cli(
        capsys, "positivity", "--seed", "1", "--points", "4", "--families", "2",
        "--trials", "4", "--steps", "20",
    )
    assert code == 0
    assert json.loads(out)["config"]["kets_per_family"] == 4
    assert "warning: families have 3 kets, not --kets-per-family 4" in err
    code, _, err = run_cli(
        capsys, "positivity", "--seed", "1", "--points", "4", "--families", "2",
        "--kets-per-family", "3", "--trials", "4", "--steps", "20",
    )
    assert code == 0
    assert "warning" not in err


@pytest.mark.parametrize("flag, value", [
    ("--points", "3"),
    ("--families", "-2"),
    ("--max-free-circles", "-1"),
    ("--kets-per-family", "0"),
    ("--kets-per-family", "-3"),
    ("--trials", "0"),
    ("--steps", "-5"),
])
def test_positivity_bad_flag_exit_2(capsys, flag, value):
    code, out, err = run_cli(capsys, "positivity", "--seed", "1", "--steps", "5", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be")
