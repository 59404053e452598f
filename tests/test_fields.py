from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from ergomix.errors import ConfigError, IntegrationDivergedError
from ergomix.flow import advect
from ergomix.fields import (
    CATALOG,
    FIELD_KINDS,
    MAX_STEPS_PER_UNIT,
    VelocityField,
    grad_l1_time_average,
)

ALL_FIELDS = [
    VelocityField(kind="zero"),
    VelocityField(kind="constant", amplitude=0.7, phases=(0.2,)),
    VelocityField(kind="steady_shear", amplitude=1.0),
    VelocityField(kind="alternating_shear", amplitude=1.3, phases=(0.1, 0.6)),
    VelocityField(kind="cellular", amplitude=1.1, phases=(0.3, 0.05), wavenumber=2),
]


def test_make_field_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        VelocityField(kind="vortex")


def test_make_field_rejects_negative_amplitude():
    with pytest.raises(ConfigError):
        VelocityField(kind="zero", amplitude=-1.0)


def test_make_field_rejects_bad_phase():
    with pytest.raises(ConfigError):
        VelocityField(kind="steady_shear", phases=(1.5,))


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_spec_rejects_phases_its_kind_does_not_read(kind):
    limit = CATALOG[kind].phases
    assert VelocityField(kind=kind, phases=(0.1, 0.5)[:limit]).phases == (0.1, 0.5)[:limit]
    with pytest.raises(ConfigError, match=f"reads at most {limit} phases"):
        VelocityField(kind=kind, phases=(0.1, 0.5, 0.7)[: limit + 1])


PARAMETERS = ["kind", "amplitude", "phases", "wavenumber"]


def test_the_parameters_are_the_only_dataclass_fields():
    assert [f.name for f in fields(VelocityField)] == PARAMETERS


@pytest.mark.parametrize("field", ALL_FIELDS, ids=[s.kind for s in ALL_FIELDS])
def test_derived_facts_stay_out_of_asdict_equality_and_hash(field):
    assert field.facts == CATALOG[field.kind] and field.constant_along_flow == field.facts.constant_along_flow
    assert {"facts", "constant_along_flow"} <= set(vars(field))  # computed once, then read from the instance
    assert list(asdict(field)) == PARAMETERS
    twin = VelocityField(**asdict(field))
    assert twin == field and hash(twin) == hash(field)
    assert replace(field, kind="cellular", phases=()).facts == CATALOG["cellular"]


@pytest.mark.parametrize(
    "field, changes",
    [
        (VelocityField(kind="cellular", amplitude=1.1), dict(amplitude=-1.0)),
        (VelocityField(kind="steady_shear"), dict(phases=(0.1, 0.2))),
    ],
    ids=["negative-amplitude", "steady-shear-two-phases"],
)
def test_replace_checks_the_new_field(field, changes):
    with pytest.raises(ConfigError):
        replace(field, **changes)


def test_replace_gives_a_checked_field_that_the_flow_evaluates():
    field = replace(VelocityField(kind="alternating_shear", amplitude=0.95, phases=(0.13, 0.41)), amplitude=1.2)
    direct = VelocityField(kind="alternating_shear", amplitude=1.2, phases=(0.13, 0.41))
    assert field == direct
    points = np.random.default_rng(5).random((64, 2))
    assert np.array_equal(advect(field, points, 0.0, 1.0, 4), advect(direct, points, 0.0, 1.0, 4))


def test_zero_field_is_zero():
    field = VelocityField(kind="zero")
    x = np.array([0.2, 0.9])
    assert np.all(field.velocity(0.3, x) == 0.0)
    assert np.all(field.gradient(0.3, x) == 0.0)


def test_steady_shear_catalog_formula():
    field = VelocityField(kind="steady_shear", amplitude=1.0)
    x = np.array([0.4, 0.25])
    # sin(pi/2) = 1, and the gradient entry d_y b_1 = 2 pi cos(pi/2) = 0
    assert field.velocity(0.0, x) == pytest.approx([1.0, 0.0], abs=1e-15)
    assert field.gradient(0.0, x)[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_alternating_shear_switches_halves():
    field = VelocityField(kind="alternating_shear", amplitude=1.0)
    x = np.array([0.25, 0.1])
    early = field.velocity(0.25, x)
    assert early[1] == 0.0
    # second half at x = 0.25: purely vertical with speed |sin(pi/2)| = 1
    late = field.velocity(0.75, x)
    assert late[0] == 0.0
    assert abs(late[1]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=[s.kind for s in ALL_FIELDS])
def test_divergence_free_and_time_periodic(field):
    rng = np.random.default_rng(7)
    points = rng.random((1000, 2))
    times = rng.uniform(0.0, 3.0, 4)
    for t in times:
        grad = field.gradient(t, points)
        trace = grad[..., 0, 0] + grad[..., 1, 1]
        assert np.max(np.abs(trace)) <= 1e-12
        assert np.max(np.abs(field.velocity(t + 1.0, points) - field.velocity(t, points))) <= 1e-12


@pytest.mark.parametrize("field", ALL_FIELDS, ids=[s.kind for s in ALL_FIELDS])
def test_gradient_matches_finite_differences(field):
    rng = np.random.default_rng(3)
    points = rng.random((200, 2))
    h = 1e-6
    for t in (0.2, 0.8):
        grad = field.gradient(t, points)
        for j in range(2):
            shift = np.zeros(2)
            shift[j] = h
            fd = (field.velocity(t, points + shift) - field.velocity(t, points - shift)) / (2 * h)
            assert np.max(np.abs(fd - grad[..., :, j])) < 1e-5


@pytest.mark.parametrize("wavenumber", [1, 2])
def test_cellular_gradient_is_bitwise_the_four_product_form(wavenumber):
    # each trigonometric product is computed once and negated: negation is exact, signed zeros included
    field = VelocityField(kind="cellular", amplitude=1.1, phases=(0.3, 0.05), wavenumber=wavenumber)
    points = np.random.default_rng(wavenumber).uniform(-2.0, 2.0, size=(5, 4096, 2))
    points[0, 0] = [-0.3, -0.05]  # sin X = sin Y = +0: the products' signed zeros are compared too
    xs = 2.0 * np.pi * wavenumber * (points[..., 0] + 0.3)
    ys = 2.0 * np.pi * wavenumber * (points[..., 1] + 0.05)
    c = 2.0 * np.pi * wavenumber * 1.1
    expected = np.stack(
        [
            np.stack([c * np.cos(xs) * np.cos(ys), -c * np.sin(xs) * np.sin(ys)], axis=-1),
            np.stack([c * np.sin(xs) * np.sin(ys), -c * np.cos(xs) * np.cos(ys)], axis=-1),
        ],
        axis=-2,
    )
    got = field.gradient(0.4, points)
    assert got.tobytes() == expected.tobytes()


def test_steady_shear_is_x_independent():
    field = VelocityField(kind="steady_shear", amplitude=1.0)
    rng = np.random.default_rng(11)
    y = rng.random(500)
    a = np.stack([rng.random(500), y], axis=1)
    b = np.stack([rng.random(500), y], axis=1)
    assert np.max(np.abs(field.velocity(0.0, a) - field.velocity(0.0, b))) <= 1e-12


@given(st.floats(0.0, 3.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(0.9999999999999999, 0.5, 0.25)
@settings(max_examples=100, deadline=None)
def test_alternating_shear_periodicity_property(t, x, y):
    field = VelocityField(kind="alternating_shear", amplitude=0.9, phases=(0.1, 0.6))
    p = np.array([x, y])
    # s and s - 1.0 are exactly one period apart; t and t + 1.0 need not be
    # (t + 1.0 rounds to 2.0 at t = 0.9999999999999999)
    s = t + 1.0
    assert np.allclose(field.velocity(s, p), field.velocity(s - 1.0, p), atol=1e-12)


# --- gradient average ------------------------------------------------------


def spectral_norm_2x2(mats):
    """Largest singular value of a stack of 2x2 matrices, by closed form."""
    mats = np.asarray(mats, dtype=float)
    frob2 = np.sum(mats * mats, axis=(-2, -1))
    det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    gap = np.sqrt(np.maximum(frob2 * frob2 - 4.0 * det * det, 0.0))
    return np.sqrt(0.5 * (frob2 + gap))


def _gauss2_nodes(cells):
    # two-point Gauss-Legendre nodes on each of `cells` uniform subintervals of [0, 1]
    width = 1.0 / cells
    centers = (np.arange(cells) + 0.5) * width
    offset = width / (2.0 * np.sqrt(3.0))
    return np.sort(np.concatenate([centers - offset, centers + offset]))


def grad_l1_quadrature(field, cells):
    """Quadrature oracle for ``grad_l1_time_average``.

    Time is integrated exactly: the field is steady between its time
    breakpoints, so each piece contributes its length times the spatial mean
    at its midpoint.  Space uses two Gauss-Legendre nodes per cell on
    ``cells`` cells per axis: positive weights, and fourth order when every
    |cos| kink of the norm falls on a cell boundary (for a phase-free field,
    any multiple of 4w cells); a kink inside a cell costs about two orders.
    The norms are filled in row blocks of at most 16384 nodes, so no full
    grid of gradients is held.
    """
    xs = _gauss2_nodes(cells)
    edges = sorted({0.0, 1.0, *field.time_breakpoints})
    rows = max(1, 16384 // len(xs))
    norms = np.empty((len(xs), len(xs)))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        for start in range(0, len(xs), rows):
            block = np.stack(np.meshgrid(xs[start : start + rows], xs, indexing="ij"), axis=-1)
            norms[start : start + rows] = spectral_norm_2x2(field.gradient(0.5 * (a + b), block))
        total += (b - a) * float(np.mean(norms))
    return total


def test_grad_l1_zero_field():
    assert grad_l1_time_average(VelocityField(kind="zero")) == 0.0


ORACLE_FIELDS = ALL_FIELDS + [VelocityField(kind="steady_shear", amplitude=0.6, phases=(0.35,), wavenumber=2)]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=[f"{s.kind}-w{s.wavenumber}" for s in ORACLE_FIELDS])
def test_grad_l1_closed_form_matches_quadrature_oracle(field):
    # 640 cells put every |cos| kink of these fields (phases 0.05 to 0.6, w <= 2)
    # on a cell boundary, where the rule is fourth order: its error is below 1e-9
    assert grad_l1_time_average(field) == pytest.approx(grad_l1_quadrature(field, 640), abs=1e-8)


def test_grad_l1_steady_shear_quadrature_oracle():
    # 1-d oracle: integral of 2 pi |cos(2 pi y)| dy over [0,1]
    oracle, err = integrate.quad(lambda y: 2 * np.pi * abs(np.cos(2 * np.pi * y)), 0.0, 1.0,
                                 points=[0.25, 0.75])
    assert err < 1e-10
    assert oracle == pytest.approx(4.0, abs=1e-9)
    field = VelocityField(kind="steady_shear", amplitude=1.0)
    assert grad_l1_time_average(field) == pytest.approx(oracle, abs=1e-9)


# kind -> its gradient average at wavenumber w and amplitude a, as each closed form was first written
GRAD_L1_CLOSED_FORMS = {
    "zero": lambda w, a: 0.0,
    "constant": lambda w, a: 0.0,
    "steady_shear": lambda w, a: 4.0 * w * a,
    "alternating_shear": lambda w, a: 4.0 * w * a,
    "cellular": lambda w, a: 16.0 * w * a / np.pi,
}


@given(st.sampled_from(FIELD_KINDS), st.floats(0.0, 8.0), st.integers(1, 5))
@example("cellular", 1.3, 3)
@settings(max_examples=300, deadline=None)
def test_grad_l1_is_bitwise_the_closed_form_of_its_kind(kind, amplitude, wavenumber):
    # the table keeps 16/pi as a ratio: (16/pi) * 3 * 1.3 is one ulp off 16 * 3 * 1.3 / pi
    field = VelocityField(kind=kind, amplitude=amplitude, wavenumber=wavenumber)
    expected = GRAD_L1_CLOSED_FORMS[kind](wavenumber, amplitude)
    assert grad_l1_time_average(field).hex() == float(expected).hex()


def test_grad_l1_alternating_shear_scales_with_amplitude():
    field = VelocityField(kind="alternating_shear", amplitude=1.7)
    assert grad_l1_time_average(field) == 4.0 * 1.7


def test_grad_l1_cellular_closed_form():
    # |grad b| = 2 pi w A (|cos X cos Y| + |sin X sin Y|), integral = 16 w A / pi
    field = VelocityField(kind="cellular", amplitude=1.3, wavenumber=2)
    assert grad_l1_time_average(field) == pytest.approx(grad_l1_quadrature(field, 512), rel=1e-6)


GRAD_L1_FIELDS = [
    VelocityField(kind="alternating_shear", amplitude=0.95, phases=(0.13, 0.41)),
    VelocityField(kind="steady_shear", amplitude=1.0),
    VelocityField(kind="cellular", amplitude=1.3, wavenumber=2),
]


@pytest.mark.parametrize("field", GRAD_L1_FIELDS, ids=[s.kind for s in GRAD_L1_FIELDS])
def test_grad_l1_exact_time_integral_matches_time_quadrature(field):
    # the oracle's exact time integral against two Gauss-Legendre nodes on each of 16 time cells
    xs = _gauss2_nodes(64)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    oracle = np.mean([np.mean(spectral_norm_2x2(field.gradient(t, grid))) for t in _gauss2_nodes(16)])
    assert grad_l1_quadrature(field, 64) == pytest.approx(oracle, rel=1e-14)


def test_grad_l1_converges_at_first_order_or_better():
    field = VelocityField(kind="steady_shear", amplitude=1.0)
    errors = [abs(grad_l1_quadrature(field, cells) - grad_l1_time_average(field)) for cells in (20, 40, 80)]
    assert errors[1] <= errors[0] / 2.0
    assert errors[2] <= errors[1] / 2.0
    assert abs(grad_l1_quadrature(field, 512) - 4.0) < 1e-6


def test_spectral_norm_closed_form_matches_svd():
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(50, 2, 2))
    expected = np.linalg.svd(mats, compute_uv=False)[..., 0]
    assert np.allclose(spectral_norm_2x2(mats), expected, atol=1e-12)


def test_catalog_is_complete():
    assert set(FIELD_KINDS) == {"zero", "constant", "steady_shear", "alternating_shear", "cellular"}
    assert set(GRAD_L1_CLOSED_FORMS) == set(FIELD_KINDS)


def test_cellular_steps_grow_with_w_a_up_to_the_cap():
    # 256 per unit time up to w A = 5.12, then ceil(50 w A), refused above MAX_STEPS_PER_UNIT
    assert VelocityField(kind="cellular", amplitude=5.12).rk4_steps(1.0) == 256
    assert VelocityField(kind="cellular", amplitude=20.0).rk4_steps(1.0) == 1000
    assert VelocityField(kind="cellular", amplitude=10.0, wavenumber=2).rk4_steps(0.5) == 500
    assert VelocityField(kind="cellular", amplitude=MAX_STEPS_PER_UNIT / 50.0).rk4_steps(1.0) == MAX_STEPS_PER_UNIT
    with pytest.raises(IntegrationDivergedError, match="RK4 steps per unit time"):
        VelocityField(kind="cellular", amplitude=MAX_STEPS_PER_UNIT / 50.0 + 0.01).rk4_steps(1.0)
    assert VelocityField(kind="alternating_shear", amplitude=1e9).rk4_steps(1.0) == 1  # exact at one step
