"""Batch experiment runner.

Subcommands: pair, series, grow, sample, gap, twofield, positivity.
Single-object results are printed as JSON, traces as CSV; every output embeds
the resolved configuration and seed, and diagnostics go to stderr.  Exit
codes: 0 success, 2 configuration or parse error, 3 boundary mismatch,
4 numeric failure (a non-finite result, or an oracle off its tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import List, Optional

import numpy as np

from . import config as cfgmod
from .chains import ACCEPTED, example_cancellation_chain, run as run_chains
from .errors import (
    BoundaryError,
    ConfigError,
    FormalChainError,
    NumericError,
    ParseError,
    StructureError,
)
from .graphs import (
    NeighborGraph,
    build_neighbor_graph,
    cycle_graph,
    path_graph,
    spectral_gap,
    star_graph,
)
from .growth import grow_layer, mirror_double
from .pairing import (
    Bounded1Ket,
    BoundedSurfaceKet,
    MockEquivalence,
    cauchy_schwarz_check,
    example_mock_null_family,
    example_superposed_arcs,
    glue_1d,
    glue_2d,
    l2_handle_series,
    lightlike_search,
    order_circle_count,
    pair,
    square_partial_sums,
)
from .superpose import Superposition, superposition_to_json
from .topo import classify_curves, classify_surface, from_text, iso_key, to_text
from .twofield import TwoFieldParams, evolve, gaussian_packet, product_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BOUNDARY = 3
EXIT_NUMERIC = 4

GRAPH_SPECS = "path<n> | cycle<n> | star<n> | circles:<min>:<max> | sphere:<max vertices>"
# graph spec prefix -> how many integers follow it
GRAPH_SPEC_INTS = {"path": 1, "cycle": 1, "star": 1, "circles:": 2, "sphere:": 1}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="formalchain",
        description="Formal chains of combinatorial manifolds: pairings, growth, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pair = sub.add_parser("pair", help="pair a superposition of kets with itself")
    p_pair.add_argument("--example", choices=["freedman-3.1", "cancellation-3.2"])
    p_pair.add_argument("--kets", help="JSON ket file")

    p_series = sub.add_parser("series", help="handle-series coefficients and square sums")
    p_series.add_argument("--gmax", type=int, default=10000)
    p_series.add_argument("--exact-upto", type=int, default=8)

    p_grow = sub.add_parser("grow", help="grow one Lorentzian layer over a slice")
    p_grow.add_argument("--input", required=True, help="triangulation text file")
    p_grow.add_argument("--seed", type=int, required=True)
    p_grow.add_argument("--config", help="run config file")
    p_grow.add_argument("--subdivisions", type=int, default=1)
    p_grow.add_argument("--out", help="write the mirror double as triangulation text")

    p_sample = sub.add_parser("sample", help="sample formal chains")
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--config", help="run config file")
    p_sample.add_argument("--sweeps", type=int, help="override the sweeps setting")
    p_sample.add_argument("--chains", type=int, help="override the chains setting")
    p_sample.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any run-config key (repeatable)",
    )
    p_sample.add_argument("--trace", help="write per-sweep action trace CSV here")

    p_gap = sub.add_parser("gap", help="spectral gap of a neighbor graph")
    p_gap.add_argument("--graph", required=True, help=GRAPH_SPECS)

    p_two = sub.add_parser("twofield", help="two-particle molecule evolution")
    two = TwoFieldParams()
    p_two.add_argument("--lambda", dest="lam", type=float, default=two.lam)
    p_two.add_argument("--steps", type=int, default=two.steps)
    p_two.add_argument("--dt", type=float, default=two.dt)
    p_two.add_argument("--grid", type=int, default=two.grid_n)
    p_two.add_argument("--v-depth", type=float, default=two.v_depth)
    p_two.add_argument("--v-width", type=float, default=two.v_width)
    p_two.add_argument("--stride", type=int, default=two.sample_stride)

    p_pos = sub.add_parser("positivity", help="order checks and light-like search")
    p_pos.add_argument("--seed", type=int, required=True)
    p_pos.add_argument("--points", type=int, default=4, help="boundary points (even)")
    p_pos.add_argument("--families", type=int, default=5)
    p_pos.add_argument("--kets-per-family", type=int, default=4)
    p_pos.add_argument("--trials", type=int, default=40)
    p_pos.add_argument("--steps", type=int, default=300)
    p_pos.add_argument(
        "--max-free-circles", type=int, default=0,
        help="allow kets with up to this many free circles (positivity still "
             "holds but the 0.05 floor is only for pure matchings)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return {
            "pair": cmd_pair,
            "series": cmd_series,
            "grow": cmd_grow,
            "sample": cmd_sample,
            "gap": cmd_gap,
            "twofield": cmd_twofield,
            "positivity": cmd_positivity,
        }[args.command](args)
    except (ConfigError, ParseError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BoundaryError as exc:
        print(f"boundary mismatch: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FormalChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _emit_json(payload: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        raise NumericError(f"result is not finite: {exc}")
    print(text)


def _norm2_entry(s: Superposition) -> dict:
    n2 = s.norm2()
    entry = {"norm2": float(n2)}
    if isinstance(n2, Fraction):
        entry["norm2_exact"] = str(n2)
    return entry


def cmd_pair(args) -> int:
    if bool(args.example) == bool(args.kets):
        raise ConfigError("pass exactly one of --example / --kets")
    if args.example == "cancellation-3.2":
        chain = example_cancellation_chain()
        result, at_dim = chain.sites[-1].state, chain.terminated_dim
        payload = {"example": args.example, "terminated": at_dim is not None,
                   "terminated_dimension": at_dim}
    else:
        if args.example:
            v, glue = example_superposed_arcs()
            payload = {"example": args.example}
        else:
            with open(args.kets) as fh:
                v, glue = _kets_from_json(json.load(fh))
            payload = {"kets": args.kets}
        result = pair(v, v, glue)
    payload["result"] = superposition_to_json(result)
    payload.update(_norm2_entry(result))
    _emit_json(payload)
    return EXIT_OK


def _json_object(value, keys: set, name: str, must: str) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``, else :class:`ConfigError`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must {must}, got {value!r}")
    unknown = sorted(value.keys() - keys)
    if unknown:
        raise ConfigError(f"{name} has unknown key {unknown[0]!r}")
    return value


def _kets_from_json(data: dict):
    """Ket file: {"boundary": {...}, "kets": [...]} or {"mock": {...}, "kets": [...]}.

    Returns the superposition and its glue function.  A missing, malformed or
    unknown entry raises :class:`ConfigError` naming the ket index or the key;
    once every ket is parsed, a ket whose boundary is not the declared one
    raises :class:`BoundaryError`.
    """
    _json_object(data, {"boundary", "mock", "kets"}, "ket file", "hold a JSON object")
    if ("boundary" in data) == ("mock" in data):
        raise ConfigError("ket file needs exactly one of a 'boundary' and a 'mock' object")
    declared = None
    if "mock" in data:
        mock = _json_object(data["mock"], {"kets", "glue"}, "'mock'", "be an object")
        names, classes = mock.get("kets"), mock.get("glue")
        if not isinstance(names, list) or not all(isinstance(k, str) for k in names):
            raise ConfigError(f"mock table needs a 'kets' list of names, got {names!r}")
        if not isinstance(classes, dict) or not all(isinstance(c, str) for c in classes.values()):
            raise ConfigError(f"mock table needs a 'glue' object of class names, got {classes!r}")
        table = {}
        for key, cls in classes.items():
            ab = tuple(key.split("|"))
            if len(ab) != 2 or not set(ab) <= set(names):
                raise ConfigError(f"mock glue key {key!r} must be 'A|B' over names in 'kets'")
            table[ab] = cls
        table.update({(b, a): cls for (a, b), cls in table.items() if (b, a) not in table})
        glue, ket_keys = MockEquivalence(names, table).glue, {"id"}

        def make(k):
            if not isinstance(k["id"], str):
                raise TypeError(f"'id' must be a name, got {k['id']!r}")
            return k["id"]
    else:
        bd = data["boundary"]
        # the labels are points in dimension 0 and circles in dimension 1; a
        # boundary that is no object fails its key check below
        dimension = bd.get("dimension") if isinstance(bd, dict) else 0
        # a JSON true or 0.0 is no dimension either
        if type(dimension) is not int or dimension not in (0, 1):
            raise ConfigError(f"unsupported boundary dimension {dimension!r}")
        key = "points" if dimension == 0 else "circles"
        _json_object(bd, {"dimension", key}, "'boundary'", "be an object")
        labels = bd.get(key, [])
        if not isinstance(labels, list):
            raise ConfigError(f"'boundary.{key}' must be a list, got {labels!r}")
        for i, label in enumerate(labels):
            if isinstance(label, (list, dict)):
                raise ConfigError(f"'boundary.{key}' entry {i} must be a label, got {label!r}")
        if len(set(labels)) != len(labels):
            raise ConfigError(f"boundary {key[:-1]} labels must be unique")
        try:  # kets sort their labels, so labels that do not compare fit no ket
            sorted(labels)
        except TypeError:
            raise ConfigError(f"'boundary.{key}' mixes labels that do not compare: {labels!r}")
        declared = frozenset(labels)
        if dimension == 0:
            glue, mismatch, ket_keys = glue_1d, "match boundary", {"matching", "free_circles"}

            def make(k):
                return Bounded1Ket(k["matching"], k.get("free_circles", 0))
        else:
            glue, mismatch, ket_keys = glue_2d, "cover circles", {"components", "closed"}

            def make(k):
                return BoundedSurfaceKet(k["components"], k.get("closed", ()))
    kets = data.get("kets")
    if not isinstance(kets, list):
        raise ConfigError("ket file needs a 'kets' list")
    terms = []
    for i, k in enumerate(kets):
        _json_object(k, ket_keys | {"re", "im"}, f"ket {i}", "be an object")
        for key in ("re", "im"):
            value = k.get(key, 0.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"ket {i}: {key!r} must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past float range
                raise ConfigError(f"ket {i}: {key!r} must be finite, got {value!r}")
        try:
            ket = make(k)
        except KeyError as exc:
            raise ConfigError(f"ket {i} has no {exc.args[0]!r}") from None
        except (TypeError, ValueError, StructureError) as exc:
            raise ConfigError(f"ket {i}: {exc}") from None
        terms.append((complex(k.get("re", 0.0), k.get("im", 0.0)), ket))
    if declared is not None:
        for _, ket in terms:
            if ket.labels != declared:
                raise BoundaryError(f"ket {ket} does not {mismatch} {sorted(declared)}")
    return Superposition(terms), glue


def cmd_series(args) -> int:
    if args.gmax < 0:
        raise ConfigError("--gmax must be nonnegative")
    if args.exact_upto < 0:
        raise ConfigError("--exact-upto must be nonnegative")
    exact_up = min(args.exact_upto, args.gmax)
    exact = l2_handle_series(lambda n: Fraction(1, n + 1), exact_up)
    full = l2_handle_series(lambda n: 1.0 / (n + 1), args.gmax)
    rows = square_partial_sums(full)
    print("# handle series, c_n = 1/(n+1); coefficients collected by genus")
    print("# square-summability of the collected series is reported, not asserted:")
    print("# partial sums of squares are the last column")
    for g, c in exact:
        print(f"# exact g={g}: {c}")
    print("g,coefficient,partial_sum_of_squares")
    for g, c, acc in rows:
        print(f"{g},{c!r},{acc!r}")
    return EXIT_OK


def cmd_grow(args) -> int:
    with open(args.input) as fh:
        y = from_text(fh.read())
    if args.subdivisions < 1 or (y.dim == 1 and args.subdivisions != 1):
        need = "1: circle growth has no arcs to subdivide" if y.dim == 1 else "at least 1"
        raise ConfigError(f"--subdivisions must be {need}, got {args.subdivisions}")
    settings = {}
    if args.config:
        with open(args.config) as fh:
            settings = cfgmod.parse_config_text(fh.read(), cfgmod.GROWTH_KEYS)
    growth = cfgmod.growth_config_from(settings)
    rng = random.Random(f"{args.seed}:grow")
    cob = grow_layer(y, growth, rng, subdivisions=args.subdivisions)
    doubled = mirror_double(cob)
    if doubled.dim == 2 and doubled.is_pure():
        key = str(classify_surface(doubled))
    elif doubled.dim == 1:
        key = str(classify_curves(doubled))
    else:
        key = str(iso_key(doubled))
    payload = {
        "config": cfgmod.resolved_echo(settings, args.seed),
        "input_chi": y.euler_characteristic(),
        "layer_chi": cob.space.euler_characteristic(),
        "chi_constraint_satisfied": cob.space.euler_characteristic() == y.euler_characteristic(),
        "upper_slice_chi": cob.upper_slice().euler_characteristic(),
        "double_class": key,
        "double_chi": doubled.euler_characteristic(),
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(to_text(doubled))
        payload["out"] = args.out
    _emit_json(payload)
    return EXIT_OK


def cmd_sample(args) -> int:
    settings = {}
    if args.config:
        with open(args.config) as fh:
            settings = cfgmod.parse_config_text(fh.read(), cfgmod.SAMPLE_COMMAND_KEYS)
    overrides = []
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        overrides.append(item)
    if args.sweeps is not None:
        overrides.append(f"sweeps={args.sweeps}")
    if args.chains is not None:
        overrides.append(f"chains={args.chains}")
    if overrides:
        extra = cfgmod.parse_config_text("\n".join(overrides), cfgmod.SAMPLE_COMMAND_KEYS)
        settings.update(extra)
    params = cfgmod.action_params_from(settings)
    cfg = cfgmod.sampler_config_from(settings, args.seed)
    stats = run_chains(cfg, params)
    proposed = sum(sum(by.values()) for by in stats.outcomes.values())
    if proposed and not any(ACCEPTED in by for by in stats.outcomes.values()):
        print(f"warning: accepted 0 of {proposed} proposals", file=sys.stderr)
    for kind, by in sorted(stats.outcomes.items()):
        errors = [(o.partition(":")[2], count) for o, count in sorted(by.items())
                  if o.startswith("error:")]
        raised, n = sum(count for _, count in errors), sum(by.values())
        if raised * 10 > n:
            classes = ", ".join(f"{name} {count}" for name, count in errors)
            print(f"warning: {raised} of {n} {kind} proposals raised an error ({classes})",
                  file=sys.stderr)
    payload = stats.as_dict()
    payload["config"] = cfgmod.resolved_echo(settings, args.seed)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("sweep,chain_id,S_total,S_curv,S_vol,S_kin,terminated_d\n")
            for row in stats.trace:
                fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")
        payload["trace"] = args.trace
    _emit_json(payload)
    return EXIT_OK


def _parse_graph(spec: str) -> NeighborGraph:
    kind = next((k for k in GRAPH_SPEC_INTS if spec.startswith(k)), None)
    if kind is None:
        raise ConfigError(f"unknown graph spec {spec!r}; expected {GRAPH_SPECS}")
    try:
        n = [int(x) for x in spec[len(kind):].split(":")]
    except ValueError:
        n = []
    if len(n) != GRAPH_SPEC_INTS[kind]:
        raise ConfigError(f"malformed graph spec {spec!r}; expected {GRAPH_SPECS}")
    if kind == "path":
        return path_graph(n[0])
    if kind == "cycle":
        return cycle_graph(n[0])
    if kind == "star":
        return star_graph(n[0])
    if kind == "circles:":
        return build_neighbor_graph(1, n[1], min_size=n[0])
    return build_neighbor_graph(2, n[0])


def cmd_gap(args) -> int:
    g = _parse_graph(args.graph)
    gap, connected = spectral_gap(g)
    payload = {
        "graph": args.graph,
        "vertices": g.n,
        "edges": len(g.edges),
        "connected": connected,
        "gap": gap,
        "truncated": g.truncated,
    }
    if g.n <= 200:
        dense = sorted(np.linalg.eigvalsh(g.laplacian()))
        oracle = 0.0 if not connected else next((x for x in dense if x > 1e-9), 0.0)
        payload["dense_oracle"] = float(oracle)
        payload["oracle_abs_diff"] = abs(gap - oracle)
        if abs(gap - oracle) > 1e-6:
            _emit_json(payload)
            print("numeric failure: iterative gap disagrees with dense oracle", file=sys.stderr)
            return EXIT_NUMERIC
    _emit_json(payload)
    return EXIT_OK


def cmd_twofield(args) -> int:
    p = TwoFieldParams(
        lam=args.lam, v_depth=args.v_depth, v_width=args.v_width,
        dt=args.dt, steps=args.steps, grid_n=args.grid, sample_stride=args.stride,
    )
    psi = gaussian_packet(p, center=1.0)
    traj = evolve(product_state(p, psi, psi), p)
    print(f"# lambda = {args.lam}, v_depth = {args.v_depth}, v_width = {args.v_width}")
    print(f"# dt = {args.dt}, steps = {args.steps}, grid = {args.grid}, L = {p.grid_l}")
    print("t,joint_norm,phi_norm,com_x")
    for t, jn, en, cm in zip(traj.times, traj.joint_norms, traj.erased_norms, traj.com_means):
        print(f"{t!r},{jn!r},{en!r},{cm!r}")
    return EXIT_OK


def cmd_positivity(args) -> int:
    if args.points % 2 or args.points < 2:
        raise ConfigError("--points must be even and at least 2")
    if args.families < 1:
        raise ConfigError("--families must be at least 1")
    if args.kets_per_family < 1:
        raise ConfigError("--kets-per-family must be at least 1")
    if args.max_free_circles < 0:
        raise ConfigError("--max-free-circles must be nonnegative")
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    if args.steps < 0:
        raise ConfigError("--steps must be nonnegative")
    labels = tuple(range(args.points))
    all_matchings = _perfect_matchings(labels)
    violations = cauchy_schwarz_check(all_matchings, glue_1d, order_circle_count)
    rng = random.Random(f"{args.seed}:positivity")
    families = [
        _random_family(all_matchings, args.kets_per_family, rng, args.max_free_circles)
        for _ in range(args.families)
    ]
    # family i searches from seed + i
    results = lightlike_search(
        families, glue_1d, trials=args.trials, steps=args.steps, seed=args.seed, step_size=0.1
    )
    residuals = [res.min_residual for res in results]
    short_sizes = {len(fam) for fam in families if len(fam) < args.kets_per_family}
    if short_sizes:
        distinct = (args.max_free_circles + 1) * len(all_matchings)
        print(
            f"warning: families have {', '.join(map(str, sorted(short_sizes)))} kets, "
            f"not --kets-per-family {args.kets_per_family} ({distinct} distinct kets exist)",
            file=sys.stderr,
        )
    mock_kets, mock = example_mock_null_family()
    [mock_res] = lightlike_search(
        [mock_kets], mock.glue, trials=max(4, args.trials // 4), steps=args.steps,
        seed=args.seed, step_size=0.1,
    )
    amps = {k: complex(a) for k, a in mock_res.argmin.items()}
    ratio = amps.get("B", 0j) / amps.get("A", 1j) if amps.get("A") else 0j
    payload = {
        "config": {
            "points": args.points, "families": args.families,
            "kets_per_family": args.kets_per_family,
            "trials": args.trials, "steps": args.steps, "seed": args.seed,
        },
        "order_violations": len(violations),
        "min_residuals": residuals,
        "min_residual_floor": min(residuals),
        "mock_null_residual": mock_res.min_residual,
        "mock_argmin_ratio_re": ratio.real,
        "mock_argmin_ratio_im": ratio.imag,
    }
    _emit_json(payload)
    if mock_res.min_residual > 1e-8:
        print("numeric failure: constructed null vector not found", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _perfect_matchings(labels):
    labels = list(labels)
    if not labels:
        return [Bounded1Ket(())]
    out = []

    def rec(rest, acc):
        if not rest:
            out.append(Bounded1Ket(tuple(acc)))
            return
        first = rest[0]
        for i in range(1, len(rest)):
            rec(rest[1:i] + rest[i + 1:], acc + [(first, rest[i])])

    rec(labels, [])
    return out


def _random_family(matchings, size, rng, max_free_circles=0):
    """Up to ``size`` distinct kets drawn at random; all of them if ``size`` is larger."""
    size = min(size, (max_free_circles + 1) * len(matchings))
    fam = set()
    guard = 0
    while len(fam) < size and guard < 10000:
        m = matchings[rng.randrange(len(matchings))]
        free = rng.randrange(max_free_circles + 1)
        fam.add(Bounded1Ket(m.matching, free))
        guard += 1
    return sorted(fam, key=str)


if __name__ == "__main__":
    sys.exit(main())
