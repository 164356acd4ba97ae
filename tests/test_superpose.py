"""Collection, norms, algebra and JSON form of superpositions."""

import math
import random
from fractions import Fraction

from formalchain.superpose import (
    RC,
    Superposition,
    abs2,
    conj,
    rc,
    superposition_to_json,
)


def test_collect_sums_equal_keys():
    s = Superposition.collect([(Fraction(1, 2), "torus"), (Fraction(1, 2), "torus")])
    assert s.amplitude("torus") == Fraction(1)
    assert len(s) == 1


def test_collect_exact_cancellation_drops_key():
    s = Superposition.collect([(1, "K"), (-1, "K")])
    assert s.is_zero()


def test_collect_cancellation_three_terms():
    s = Superposition.collect([(1, "loop3"), (-2, "loop3"), (1, "loop3")])
    assert s.is_zero()


def test_norm2_of_collected_example_profile():
    amps = [Fraction(1, 4), Fraction(-1, 2), Fraction(-1, 4), Fraction(1),
            Fraction(-1, 4), Fraction(-1, 2), Fraction(1, 4)]
    s = Superposition.collect([(a, i) for i, a in enumerate(amps)])
    assert s.norm2() == Fraction(7, 4)


def test_norm2_zero_superposition():
    assert Superposition().norm2() == 0


def test_norm2_complex_unit():
    s = Superposition([(rc(Fraction(3, 5)), "A"), (RC(Fraction(0), Fraction(4, 5)), "B")])
    assert s.norm2() == Fraction(1)


def test_collect_idempotent():
    rng = random.Random(0)
    for _ in range(50):
        raw = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.randrange(5))
               for _ in range(rng.randrange(1, 12))]
        once = Superposition.collect(raw)
        twice = Superposition.collect([(a, k) for k, a in once.items()])
        assert once == twice


def test_norm_triangle_inequality_random():
    rng = random.Random(1)
    for _ in range(100):
        x = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.randrange(4))
             for _ in range(rng.randrange(1, 6))]
        y = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.randrange(4))
             for _ in range(rng.randrange(1, 6))]
        nx = float(Superposition.collect(x).norm2())
        ny = float(Superposition.collect(y).norm2())
        nxy = float(Superposition.collect(x + y).norm2())
        assert nxy <= (math.sqrt(nx) + math.sqrt(ny)) ** 2 + 1e-9


def test_norm_without_collisions_is_raw_sum():
    rng = random.Random(2)
    for _ in range(50):
        raw = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), i)
               for i in range(rng.randrange(1, 8))]
        collected = Superposition.collect(raw)
        raw_sum = sum(float(abs2(a)) for a, _ in raw)
        assert math.isclose(float(collected.norm2()), raw_sum, rel_tol=1e-12)


def test_rc_arithmetic_and_conj():
    z = rc(1, 2) * rc(3, -1)
    assert (z.re, z.im) == (Fraction(5), Fraction(5))
    assert conj(z).im == Fraction(-5)
    assert abs2(rc(3, 4)) == Fraction(25)
    assert complex(rc(1, 1)) == 1 + 1j


def test_map_key_collects():
    s = Superposition([(1, "a"), (-1, "b")])
    assert s.map_key("a", "b").is_zero()


def test_json_roundtrippable_shape():
    s = Superposition([(rc(Fraction(1, 2)), "k1"), (complex(0, 1) * 0 + 0.25, "k2")])
    payload = superposition_to_json(s)
    keys = {t["key"] for t in payload["terms"]}
    assert keys == {"k1", "k2"}
    exact = next(t for t in payload["terms"] if t["key"] == "k1")
    assert exact["re_exact"] == "1/2"
