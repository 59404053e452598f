import numpy as np
import pytest
from scipy import stats

from ergomix.errors import SingularInputError
from ergomix.fields import VelocityFieldSpec, make_field
from ergomix.maps import CAT_MATRIX, BakerMap, CatMap, TimeOneFlowMap, make_map
from ergomix.torus import wrap
from torus_distance import distance


def test_cat_map_example_point():
    cat = CatMap()
    out = cat.apply(np.array([0.5, 0.5]))
    assert out == pytest.approx([0.5, 0.0], abs=1e-15)
    assert np.array_equal(cat.jacobian(np.array([0.1, 0.2])), [[2.0, 1.0], [1.0, 1.0]])


def test_cat_map_apply_is_bitwise_the_matrix_product():
    rng = np.random.default_rng(3)
    below_one = np.nextafter(1.0, 0.0)
    edges = np.array([[0.5, 0.25], [0.0, 0.0], [0.75, below_one], [below_one, below_one], [0.5, 0.5]])
    dyadic = rng.integers(0, 2**20, (64, 2)) / 2**20
    for points in (rng.random(2), rng.random((1000, 2)), rng.random((7, 9, 2)), edges, dyadic):
        oracle = wrap(points @ CAT_MATRIX.T)
        assert np.array_equal(CatMap().apply(points).view(np.uint64), oracle.view(np.uint64))


def test_cat_map_inverse_matrix():
    cat = CatMap()
    assert cat.inverse(np.array([0.5, 0.0])) == pytest.approx([0.5, 0.5], abs=1e-15)
    rng = np.random.default_rng(0)
    pts = rng.random((500, 2))
    assert np.max(distance(cat.inverse(cat.apply(pts)), pts)) < 1e-12


def test_baker_piecewise_formulas():
    baker = BakerMap()
    assert baker.apply(np.array([0.25, 0.5])) == pytest.approx([0.5, 0.25], abs=1e-15)
    assert baker.inverse(np.array([0.5, 0.25])) == pytest.approx([0.25, 0.5], abs=1e-15)
    jac = baker.jacobian(np.array([0.25, 0.5]))
    assert np.array_equal(jac, [[2.0, 0.0], [0.0, 0.5]])
    right = baker.apply(np.array([0.75, 0.2]))
    assert right == pytest.approx([0.5, 0.6], abs=1e-15)


def test_baker_singular_lines_raise():
    baker = BakerMap()
    with pytest.raises(SingularInputError):
        baker.apply(np.array([0.5, 0.3]))
    with pytest.raises(SingularInputError):
        baker.jacobian(np.array([[0.1, 0.1], [0.5, 0.9]]))
    with pytest.raises(SingularInputError):
        baker.inverse(np.array([0.3, 0.5]))


def test_baker_inverse_consistency_off_singular_set():
    baker = BakerMap()
    rng = np.random.default_rng(1)
    pts = rng.random((1000, 2))
    assert np.max(distance(baker.inverse(baker.apply(pts)), pts)) < 1e-12


def test_time_one_flow_inverse_consistency():
    field = make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=1.0))
    mapping = TimeOneFlowMap(field)
    rng = np.random.default_rng(2)
    pts = rng.random((1000, 2))
    assert np.max(distance(mapping.inverse(mapping.apply(pts)), pts)) <= 1e-5


def test_make_map_dispatch():
    assert make_map("cat").kind == "cat"
    assert make_map("baker").kind == "baker"
    field = make_field(VelocityFieldSpec(kind="zero"))
    assert make_map("time_one_flow", field=field).kind == "time_one_flow"
    with pytest.raises(Exception):
        make_map("horseshoe")


@pytest.mark.parametrize("kind", ["cat", "baker", "time_one_flow"])
def test_measure_preservation_chi_squared(kind):
    if kind == "time_one_flow":
        field = make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=1.0))
        mapping = TimeOneFlowMap(field)
    else:
        mapping = make_map(kind)
    rng = np.random.default_rng(3)
    pts = rng.random((1_000_000, 2))
    images = mapping.apply(pts)
    bins = 32
    hist, _, _ = np.histogram2d(images[:, 0], images[:, 1], bins=bins, range=[[0, 1], [0, 1]])
    expected = len(pts) / bins**2
    chi2 = float(np.sum((hist - expected) ** 2 / expected))
    assert chi2 < stats.chi2.ppf(0.999, bins**2 - 1)


def test_chain_rule_along_orbit():
    # Jacobian of the two-period flow equals the product of one-period
    # tangents along the orbit.
    from ergomix.flow import advect_cocycle

    field = make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=1.0))
    rng = np.random.default_rng(4)
    pts = rng.random((100, 2))
    middle, first = advect_cocycle(field, pts, 0.0, 1.0, 256)
    _, second = advect_cocycle(field, middle, 0.0, 1.0, 256)
    _, direct = advect_cocycle(field, pts, 0.0, 2.0, 512)
    product = second @ first
    assert np.max(np.abs(product - direct)) <= 1e-8


def test_cat_lusin_lipschitz_bound():
    # d(Tx, Ty) <= e^{g(x)+g(y)} d(x,y) with g = log(3)/2: the matrix operator
    # norm is (3+sqrt 5)/2 < 3
    cat = CatMap()
    rng = np.random.default_rng(5)
    a = rng.random((10_000, 2))
    b = rng.random((10_000, 2))
    ratio = distance(cat.apply(a), cat.apply(b)) / distance(a, b)
    assert np.max(ratio) <= 3.0 + 1e-12


def test_baker_lusin_lipschitz_bound_same_branch():
    # Restricted to pairs in one branch and at least 1e-3 from the singular
    # line; any finite-sample check across the discontinuity is vacuous.
    # The baker map lives naturally on the unit square, so distances here are
    # square-Euclidean: the torus seam y = 0 is part of its singular set (the
    # halving of y tears that seam apart).
    baker = BakerMap()
    rng = np.random.default_rng(6)
    a = rng.random((20_000, 2))
    b = rng.random((20_000, 2))
    same_branch = (a[:, 0] < 0.5) == (b[:, 0] < 0.5)
    clear = (np.abs(a[:, 0] - 0.5) > 1e-3) & (np.abs(b[:, 0] - 0.5) > 1e-3)
    keep = same_branch & clear
    a, b = a[keep], b[keep]
    assert keep.sum() > 5000
    ratio = np.linalg.norm(baker.apply(a) - baker.apply(b), axis=1) / np.linalg.norm(a - b, axis=1)
    assert np.max(ratio) <= 2.0 + 1e-12
