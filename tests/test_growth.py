"""Growth layers, Wick rotation, mirror doubling, superposed growth."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from formalchain.action import ActionParams
from formalchain.chains import FormalChain, SamplerConfig, step
from formalchain.errors import (
    EulerConstraintError,
    GeometryError,
    StructureError,
    SuperpositionForbiddenError,
    UnsupportedError,
)
from formalchain.growth import (
    Cobordism,
    GrowthConfig,
    double_cross,
    grow_layer,
    grow_superposed,
    mirror_double,
)
from formalchain.topo import (
    LOWER,
    UPPER,
    Triangulation,
    circle,
    classify_0d,
    classify_curves,
    classify_surface,
    insert_vertex,
    point_set,
    sphere_triangulation,
    surface_from_faces,
)
from support import remove_faces


def cfg(**kw):
    return GrowthConfig(**kw)


def test_grow_two_points_two_arcs():
    y = point_set(2)
    x = grow_layer(y, cfg(), random.Random(0))
    assert x.space.euler_characteristic() == 2 == y.euler_characteristic()
    up = x.upper_slice()
    assert len(up.vertex_sign) == 2


def test_grow_circle_full_layer_annulus():
    y = circle(6)
    x = grow_layer(y, cfg(), random.Random(0))
    assert x.space.euler_characteristic() == 0
    assert classify_curves(x.upper_slice()) == classify_curves(y)
    marks = set(x.space.boundary_mark.values())
    assert marks == {LOWER, UPPER}


def test_pair_of_pants_proposal_rejected():
    # a sphere with three pairwise-disjoint faces removed: chi = -1, three
    # boundary circles; as a cobordism over one circle it must be refused
    s = sphere_triangulation()
    for _ in range(2):
        for f in sorted(s.faces):
            s = insert_vertex(s, f)
    disjoint = []
    for f, (fv, _) in sorted(s.faces.items()):
        if all(not (set(fv) & set(s.faces[g][0])) for g in disjoint):
            disjoint.append(f)
        if len(disjoint) == 3:
            break
    assert len(disjoint) == 3, "need three vertex-disjoint faces"
    pants = remove_faces(s, disjoint)
    assert pants.euler_characteristic() == -1
    with pytest.raises(EulerConstraintError):
        Cobordism(pants, 0)


def test_wick_rotation_simple():
    y = point_set(1)
    x = grow_layer(y, cfg(alpha=(1, 1, 1)), random.Random(0))
    e = next(iter(x.space.edges))
    assert float(x.space.edge_len2[e]) == -1.0
    w = x.space.wick_rotated()
    assert float(w.edge_len2[e]) == 1.0


def test_wick_rotation_alpha_range():
    # alpha = 1 gives the equilateral (1,1,1) layer triangle, valid
    y = circle(4)
    x = grow_layer(y, cfg(alpha=(1, 1, 1)), random.Random(0))
    x.space.wick_rotated()
    # alpha <= 1/4 degenerates the (a, -alpha a, -alpha a) triangles
    x_bad = grow_layer(y, cfg(alpha=(1, 1, Fraction(1, 5))), random.Random(0))
    with pytest.raises(GeometryError) as err:
        x_bad.space.wick_rotated()
    assert "alpha" in str(err.value)


def test_alpha_must_be_positive():
    with pytest.raises(StructureError):
        GrowthConfig(alpha=(1, 0, 1))
    with pytest.raises(StructureError):
        GrowthConfig(alpha=(1, 1, -2))


@pytest.mark.parametrize("field, value", [
    ("a", math.nan), ("a", math.inf),
    ("alpha", (1, math.nan, 1)), ("alpha", (1, 1, math.inf)),
    ("p_circle", 1.0), ("p_circle", 1.5), ("p_circle", -0.1), ("p_circle", math.nan),
    ("p_circle", math.inf),
])
def test_growth_config_rejects_bad_settings(field, value):
    # with topology change on, p_circle >= 1 would never stop drawing circles
    with pytest.raises(StructureError, match=rf"^{field} must"):
        GrowthConfig(topology_change=True, **{field: value})


def test_growth_config_accepts_p_circle_range():
    for p in (0.0, 0.5, 0.999):
        assert GrowthConfig(topology_change=True, p_circle=p).p_circle == p


def test_mirror_double_arc_is_circle():
    y = point_set(1)
    x = grow_layer(y, cfg(), random.Random(0))
    d = mirror_double(x)
    assert classify_curves(d) == classify_curves(circle(2))
    assert d.is_closed()


def test_mirror_double_annulus_is_torus():
    y = circle(5)
    x = grow_layer(y, cfg(), random.Random(0))
    d = mirror_double(x)
    assert d.is_closed()
    assert classify_surface(d).genera == (1,)
    # chi(double) = 2 chi(X) - chi(boundary); circles contribute 0
    assert d.euler_characteristic() == 2 * x.space.euler_characteristic()


def test_mirror_double_points():
    y = point_set(2)
    x = grow_layer(y, cfg(), random.Random(0))
    up = x.upper_slice()
    doubled = up.double()
    assert classify_0d(doubled) == classify_0d(up.disjoint_union(up.mirrored()))
    assert len(doubled.vertex_sign) == 4
    signs = sorted(doubled.vertex_sign.values())
    assert signs == [-1, -1, 1, 1]


def test_double_of_double_key_symmetric():
    # the double is invariant under swapping the layer with its mirror
    y = circle(4)
    x = grow_layer(y, cfg(), random.Random(0))
    from formalchain.topo import iso_key

    d1 = mirror_double(x)
    mirror_cob = Cobordism(x.space.mirrored(), x.lower_chi)
    d2 = mirror_double(mirror_cob)
    assert iso_key(d1) == iso_key(d2)


def test_collar_double_classification_matches_product():
    # doubling a collar over circles gives one torus per circle component
    y = circle(3).disjoint_union(circle(4))
    x = grow_layer(y, cfg(), random.Random(0))
    d = mirror_double(x)
    assert classify_surface(d).genera == (1, 1)


def test_grow_superposed_two_candidates():
    y = point_set(2)
    terms = grow_superposed(1.0, y, cfg(), 2, random.Random(0))
    assert len(terms) == 2
    weights = [abs(complex(a)) ** 2 for a, _ in terms]
    assert math.isclose(sum(weights), 1.0, abs_tol=1e-12)
    assert math.isclose(weights[0], 0.5, abs_tol=1e-12)


def test_grow_superposed_single_candidate():
    y = circle(4)
    terms = grow_superposed(1.0, y, cfg(), 1, random.Random(0))
    assert len(terms) == 1
    assert abs(abs(complex(terms[0][0])) - 1.0) < 1e-12


def test_grow_superposed_forbidden_above_dim1():
    y = circle(4)
    with pytest.raises(SuperpositionForbiddenError):
        grow_superposed(1.0, y, cfg(), 2, random.Random(0))


def test_cross_double_profiles():
    y = point_set(1)
    (a1, c1), (a2, c2) = grow_superposed(1.0, y, cfg(), 2, random.Random(0))
    from formalchain.topo import curve_profile

    assert curve_profile(double_cross(c1, c1)) == (("circle", "1", "1"),)
    assert curve_profile(double_cross(c1, c2)) == (("circle", "1", "1", "1"),)
    assert curve_profile(double_cross(c2, c2)) == (("circle", "1", "1", "1", "1"),)


def test_extra_circles_respect_chi():
    y = point_set(2)
    x = grow_layer(y, cfg(topology_change=True, p_circle=0.5), random.Random(3),
                   extra_closed=2)
    assert x.space.euler_characteristic() == y.euler_characteristic()
    d = mirror_double(x)
    # arcs double to one circle each, extra circles double to two each
    assert classify_curves(d).circles == 2 + 4


def test_extra_tori_respect_chi():
    y = circle(3)
    x = grow_layer(y, cfg(topology_change=True), random.Random(3), extra_closed=1)
    assert x.space.euler_characteristic() == 0
    d = mirror_double(x)
    assert classify_surface(d).genera == (1, 1, 1)


def test_partial_layer_chi_and_upper_slice():
    y = circle(8)
    rng = random.Random(12)
    found_partial = False
    for _ in range(20):
        x = grow_layer(y, cfg(layer="partial"), rng)
        assert x.space.euler_characteristic() == 0
        up = x.upper_slice()
        assert classify_curves(up).circles == 1
        if len(x.space.faces) < 16:
            found_partial = True
    assert found_partial, "random partial layers never skipped an edge"


def test_open_upper_slice_is_rejected():
    # one triangle over its lower side: the two upper sides form an open path
    tri = surface_from_faces(
        [(0, 1, 2)], boundary_by_pair={(0, 1): LOWER, (1, 2): UPPER, (2, 0): UPPER}
    )
    with pytest.raises(StructureError, match="boundary marks"):
        Cobordism(tri, 1).upper_slice()


def test_partial_layer_double_is_singular():
    y = circle(8)
    rng = random.Random(1)
    for _ in range(20):
        x = grow_layer(y, cfg(layer="partial"), rng)
        if len(x.space.faces) < 16:
            d = mirror_double(x)
            if not d.is_pure():
                from formalchain.topo import iso_key

                key = iso_key(d)
                assert key[0] == "mixed"
                return
    pytest.skip("no strictly partial layer drawn")


def test_growth_dim_cap():
    t = sphere_triangulation()
    with pytest.raises(UnsupportedError):
        grow_layer(t, cfg(), random.Random(0))


def test_grown_spaces_carry_no_vertex_sign():
    # from_text takes a vertex sign only in dimension 0, so to_text must write
    # none in dimensions 1 and 2: every space grow and the sampler build there
    # has +1 signs.  The golden grow slices, and sampler chains at the
    # acceptance-9 couplings; chain 1 of seed 5001 reaches dimension 2.
    spaces = []
    for y in (circle(3), point_set(2, 2)):
        x = grow_layer(y, cfg(), random.Random("3:grow"))
        spaces += [x.space, x.upper_slice(), mirror_double(x)]
    p = ActionParams(g=(0.5, 1.0, 6.0), f=(0.01, 0.01, 0.01), Lambda=(0.05, 0.0, 0.5))
    sampler = SamplerConfig(weight_extend=0.15, weight_fluctuate=0.65, weight_reweight=0.2)
    for ci in range(4):
        rng = random.Random(f"5001:{ci}")
        chain, br = FormalChain(), None
        for _ in range(200):
            chain, info = step(chain, p, sampler, rng, br)
            br = info.breakdown
            if chain.terminated_dim is not None:
                break
        for site in chain.sites:
            spaces += [t for t in site.reps.values() if isinstance(t, Triangulation)]
            spaces += [x.space for _, x in site.x_terms if isinstance(x, Cobordism)]
    dims = Counter(t.dim for t in spaces)
    assert dims[1] > 100 and dims[2] > 4
    for t in spaces:
        if t.dim > 0:
            assert set(t.vertex_sign.values()) == {1}
