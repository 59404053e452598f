from dataclasses import asdict

import numpy as np
import pytest

from ergomix import workers
from ergomix.errors import ConfigError, IntegrationDivergedError
from ergomix.fields import CATALOG, FIELD_KINDS, VelocityField
from ergomix.flow import advect, advect_cocycle
from ergomix.maps import TimeOneFlowMap
from torus_distance import distance

STEADY = VelocityField(kind="steady_shear", amplitude=1.0)
ALTERNATING = VelocityField(kind="alternating_shear", amplitude=1.0)
CELLULAR = VelocityField(kind="cellular", amplitude=1.0)

AMPLITUDE_TWO_FIELDS = [
    VelocityField(kind="constant", amplitude=2.0),
    VelocityField(kind="steady_shear", amplitude=2.0),
    VelocityField(kind="alternating_shear", amplitude=2.0, phases=(0.1, 0.6)),
    VelocityField(kind="cellular", amplitude=2.0),
]


def test_zero_field_identity_flow():
    field = VelocityField(kind="zero")
    x = np.array([0.31, 0.77])
    assert np.array_equal(advect(field, x, 0.0, 5.0, 32), x)
    _, tangent = advect_cocycle(field, x, 0.0, 5.0, 32)
    assert np.array_equal(tangent, np.eye(2))


def test_constant_field_translates_exactly():
    field = VelocityField(kind="constant", amplitude=0.25)
    x = np.array([0.5, 0.5])
    out = advect(field, x, 0.0, 3.0, 7)
    assert out == pytest.approx([0.25, 0.5], abs=1e-15)


def test_steady_shear_closed_form_positions():
    # y conserved, x shifts by t sin(2 pi y); from (0.5, 0.25) over one period back to itself
    out = advect(STEADY, np.array([0.5, 0.25]), 0.0, 1.0, 256)
    assert out == pytest.approx([0.5, 0.25], abs=1e-12)
    rng = np.random.default_rng(0)
    pts = rng.random((100, 2))
    out = advect(STEADY, pts, 0.0, 2.5, 64)
    expected_x = (pts[:, 0] + 2.5 * np.sin(2 * np.pi * pts[:, 1])) % 1.0
    assert np.max(np.abs(out[:, 0] - expected_x)) < 1e-12
    assert np.array_equal(out[:, 1], pts[:, 1])


def test_steady_shear_cocycle_closed_form():
    rng = np.random.default_rng(1)
    pts = rng.random((50, 2))
    _, tangent = advect_cocycle(STEADY, pts, 0.0, 1.0, 128)
    expected = np.zeros((50, 2, 2))
    expected[:, 0, 0] = 1.0
    expected[:, 1, 1] = 1.0
    expected[:, 0, 1] = 2 * np.pi * np.cos(2 * np.pi * pts[:, 1])
    assert np.max(np.abs(tangent - expected)) < 1e-10


def test_alternating_shear_closed_form_composition():
    # two half-period shears composed: the flow and tangent are exact for RK4
    rng = np.random.default_rng(2)
    pts = rng.random((200, 2))
    position, tangent = advect_cocycle(ALTERNATING, pts, 0.0, 1.0, 256)
    c1 = np.pi * np.cos(2 * np.pi * pts[:, 1])
    x1 = pts[:, 0] + 0.5 * np.sin(2 * np.pi * pts[:, 1])
    c2 = np.pi * np.cos(2 * np.pi * x1)
    y1 = pts[:, 1] + 0.5 * np.sin(2 * np.pi * x1)
    expected_pos = np.stack([x1 % 1.0, y1 % 1.0], axis=1)
    assert np.max(distance(position, expected_pos)) < 1e-8
    expected_tan = np.empty((200, 2, 2))
    expected_tan[:, 0, 0] = 1.0
    expected_tan[:, 0, 1] = c1
    expected_tan[:, 1, 0] = c2
    expected_tan[:, 1, 1] = 1.0 + c1 * c2
    assert np.max(np.abs(tangent - expected_tan)) < 1e-8


def test_alternating_shear_determinant_one():
    rng = np.random.default_rng(3)
    pts = rng.random((100, 2))
    _, tangent = advect_cocycle(ALTERNATING, pts, 0.0, 1.0, 256)
    assert np.max(np.abs(np.linalg.det(tangent) - 1.0)) <= 1e-6


@pytest.mark.parametrize("field", AMPLITUDE_TWO_FIELDS, ids=[s.kind for s in AMPLITUDE_TWO_FIELDS])
def test_inverse_consistency(field):
    rng = np.random.default_rng(4)
    pts = rng.random((1000, 2))
    forward = advect(field, pts, 0.0, 1.0, 256)
    back = advect(field, forward, 1.0, 0.0, 256)
    assert np.max(distance(back, pts)) <= 1e-5


# det(W) - 1 can only be resolved to 1e-6 in float64 while |W| stays below
# ~3e4 (the 2x2 determinant cancels catastrophically beyond that), so the
# hyperbolic alternating shear is checked on horizons keeping |W| in that
# regime; the exponent-sum test below covers volume preservation in the log
# domain for the full horizon.
VOLUME_CASES = [
    (VelocityField(kind="constant", amplitude=2.0), 10.0),
    (VelocityField(kind="steady_shear", amplitude=2.0), 10.0),
    (VelocityField(kind="cellular", amplitude=2.0), 10.0),
    (VelocityField(kind="alternating_shear", amplitude=2.0, phases=(0.1, 0.6)), 2.0),
    (VelocityField(kind="alternating_shear", amplitude=1.0), 5.0),
    (VelocityField(kind="alternating_shear", amplitude=0.5), 10.0),
]


@pytest.mark.parametrize(
    "field,horizon", VOLUME_CASES, ids=[f"{s.kind}-a{s.amplitude}-t{h}" for s, h in VOLUME_CASES]
)
def test_volume_preservation_long_horizon(field, horizon):
    rng = np.random.default_rng(5)
    pts = rng.random((1000, 2))
    _, tangent = advect_cocycle(field, pts, 0.0, horizon, int(256 * horizon))
    assert np.max(np.abs(np.linalg.det(tangent) - 1.0)) <= 1e-6


def test_exponent_sum_vanishes_on_long_horizon():
    # log-domain volume check where raw determinants cancel: lambda_1 +
    # lambda_2 = 0 within 1e-3 at t = 10 for the strongly hyperbolic case
    from ergomix.lyapunov import ensemble_spectrum

    field = VelocityField(kind="alternating_shear", amplitude=1.0)
    mapping = TimeOneFlowMap(field)
    report = ensemble_spectrum(mapping, 200, 10, seed=17)
    sums = np.sum(report.per_sample_exponents, axis=1)
    assert np.max(np.abs(sums)) <= 1e-3


def test_group_property_period_splitting():
    rng = np.random.default_rng(6)
    pts = rng.random((200, 2))
    one_then_two = advect(ALTERNATING, advect(ALTERNATING, pts, 0.0, 1.0, 256), 1.0, 2.0, 256)
    direct = advect(ALTERNATING, pts, 0.0, 2.0, 512)
    assert np.max(distance(one_then_two, direct)) <= 1e-8


def test_rk4_order_on_cellular():
    # alternating/steady shears integrate exactly, so the order check needs a
    # field with genuinely coupled dynamics
    rng = np.random.default_rng(7)
    pts = rng.random((100, 2))
    reference = advect(CELLULAR, pts, 0.0, 1.0, 1024)
    err = {}
    for steps in (16, 32):
        err[steps] = np.max(distance(advect(CELLULAR, pts, 0.0, 1.0, steps), reference))
    assert err[16] / err[32] >= 8.0


def test_alternating_shear_integrates_exactly_at_coarse_steps():
    rng = np.random.default_rng(8)
    pts = rng.random((100, 2))
    coarse = advect(ALTERNATING, pts, 0.0, 1.0, 2)
    fine = advect(ALTERNATING, pts, 0.0, 1.0, 512)
    assert np.max(distance(coarse, fine)) < 1e-12


@pytest.mark.parametrize(
    "t0,t1,steps", [(0.25, 1.75, 5), (0.25, 1.75, 7), (0.3, 1.9, 5), (0.0, 2.0, 6), (0.0, 2.0, 10)]
)
def test_steps_straddling_integer_times_match_composition(t0, t1, steps):
    # alternating_shear also switches at integer times; a step across t = 1
    # must not integrate both sides with one piece
    field = VelocityField(kind="alternating_shear", amplitude=0.95, phases=(0.13, 0.41))
    pts = np.random.default_rng(11).random((200, 2))
    composed = advect(field, advect(field, pts, t0, 1.0, 512), 1.0, t1, 512)
    assert np.max(distance(advect(field, pts, t0, t1, steps), composed)) < 1e-11
    assert np.max(distance(advect(field, composed, t1, t0, steps), pts)) < 1e-11


def _field(kind):
    return VelocityField(kind=kind, amplitude=0.95, phases=(0.13, 0.41)[: CATALOG[kind].phases])


# every kind whose row says it is constant along its own flow
SHEAR_FIELDS = [_field(kind) for kind, facts in CATALOG.items() if facts.constant_along_flow]
# off the breakpoints, across integer and half-integer times, both directions
EXACT_INTERVALS = [(0.3, 2.7), (2.7, 0.3), (0.8, 1.2), (1.45, 0.55), (0.0, 1.0), (1.0, 0.0)]


@pytest.mark.parametrize("field", SHEAR_FIELDS, ids=[s.kind for s in SHEAR_FIELDS])
def test_shear_members_one_step_per_piece_matches_fine_rk4(field):
    pts = np.random.default_rng(12).random((300, 2))
    for t0, t1 in EXACT_INTERVALS:
        steps = field.rk4_steps(t1 - t0)
        assert steps == 1
        fine = int(512 * abs(t1 - t0))
        position, tangent = advect_cocycle(field, pts, t0, t1, steps)
        ref_position, ref_tangent = advect_cocycle(field, pts, t0, t1, fine)
        assert np.max(distance(advect(field, pts, t0, t1, steps), ref_position)) < 1e-11
        assert np.max(distance(position, ref_position)) < 1e-11
        # relative Frobenius error; |W| reaches ~240 over [0.3, 2.7] and the
        # 1228-step reference's own roundoff then reaches ~4e-12
        scale = np.linalg.norm(ref_tangent, axis=(-2, -1))
        error = np.linalg.norm(tangent - ref_tangent, axis=(-2, -1))
        assert np.max(error / scale) < 1e-10


def test_positions_bitwise_equal_with_and_without_tangent():
    rng = np.random.default_rng(9)
    pts = rng.random((64, 2))
    plain = advect(CELLULAR, pts, 0.0, 1.0, 64)
    position, _ = advect_cocycle(CELLULAR, pts, 0.0, 1.0, 64)
    assert np.array_equal(plain, position)


def test_divergence_is_reported():
    hot = VelocityField(kind="cellular", amplitude=1e9)
    with pytest.raises(IntegrationDivergedError):
        advect_cocycle(hot, np.array([0.3, 0.4]), 0.0, 1.0, 4)


def test_nan_position_is_reported():
    pts = np.array([[0.3, 0.4], [np.nan, 0.5]])
    with pytest.raises(IntegrationDivergedError):
        advect(ALTERNATING, pts, 1.0, 0.0, 16)
    with pytest.raises(IntegrationDivergedError):
        advect(ALTERNATING, pts, 0.0, 0.0, 16)


@pytest.mark.parametrize("field", [CELLULAR, ALTERNATING], ids=["cellular", "alternating"])
def test_zero_steps_is_a_config_error(field):
    with pytest.raises(ConfigError):
        advect(field, np.array([0.3, 0.4]), 0.0, 1.0, 0)
    with pytest.raises(ConfigError):
        advect_cocycle(field, np.array([0.3, 0.4]), 0.0, 1.0, 0)


def test_time_one_map_wraps_field():
    mapping = TimeOneFlowMap(VelocityField(kind="zero"))
    x = np.array([0.123, 0.456])
    assert np.array_equal(mapping.apply(x), x)
    mapping = TimeOneFlowMap(STEADY)
    assert mapping.steps == 1 and TimeOneFlowMap(CELLULAR).steps == 256
    rng = np.random.default_rng(10)
    pts = rng.random((50, 2))
    expected = np.stack([(pts[:, 0] + np.sin(2 * np.pi * pts[:, 1])) % 1.0, pts[:, 1]], axis=1)
    assert np.max(distance(mapping.apply(pts), expected)) < 1e-12


class FourStageField(VelocityField):
    """A catalog field that reports the four-evaluation RK4 step as needed."""

    constant_along_flow = False


class OneColumnField(VelocityField):
    """A catalog field whose full velocity must not be evaluated."""

    def velocity(self, t, points):
        raise AssertionError("the one-column step evaluated the full velocity")


@pytest.mark.parametrize("field", SHEAR_FIELDS, ids=[s.kind for s in SHEAR_FIELDS])
def test_reused_stage_step_equals_four_evaluation_step(field):
    forced = FourStageField(**asdict(field))
    assert not forced.constant_along_flow
    assert field.constant_along_flow
    # the reused step takes one velocity, one gradient and one tangent stage k1 for all four
    pts = np.random.default_rng(13).random((500, 2))
    for t0, t1 in EXACT_INTERVALS:
        for steps in (1, 3):
            position, tangent = advect_cocycle(field, pts, t0, t1, steps)
            ref_position, ref_tangent = advect_cocycle(forced, pts, t0, t1, steps)
            assert np.array_equal(position, ref_position)
            assert np.array_equal(tangent, ref_tangent)
        assert np.array_equal(advect(field, pts, t0, t1, 3), advect(forced, pts, t0, t1, 3))


ONE_COLUMN_FIELDS = [
    VelocityField(kind="steady_shear", amplitude=0.95, phases=(0.13,)),
    VelocityField(kind="steady_shear", amplitude=1.7, phases=(0.6,), wavenumber=2),
    VelocityField(kind="alternating_shear", amplitude=0.95, phases=(0.13, 0.41)),
    VelocityField(kind="alternating_shear", amplitude=2.0, phases=(0.6, 0.05), wavenumber=2),
]


@pytest.mark.parametrize(
    "field", ONE_COLUMN_FIELDS, ids=[f"{s.kind}-w{s.wavenumber}" for s in ONE_COLUMN_FIELDS]
)
def test_one_column_shear_step_equals_four_stage_step(field):
    # the four-stage RK4 step is the oracle; the one-column step must not
    # evaluate the full velocity at all, so the comparison is not vacuous
    forced = FourStageField(**asdict(field))
    field = OneColumnField(**asdict(field))
    rows = 2 * workers._PIECE_ROWS + 77  # three pieces, the last one short
    # coordinates outside [0, 1) check the wrap of the input as well
    pts = np.random.default_rng(14).random((rows, 2)) * 3.0 - 1.0
    for t0, t1 in EXACT_INTERVALS:
        for steps in (1, 3):
            expected = advect(forced, pts, t0, t1, steps)
            assert np.array_equal(advect(field, pts, t0, t1, steps), expected)
            in_place = pts.copy()
            assert advect(field, in_place, t0, t1, steps, out=in_place) is in_place
            assert np.array_equal(in_place, expected)


@pytest.mark.parametrize("column", [0, 1])
def test_one_column_step_reports_non_finite_positions(column):
    # a NaN in the moved or in the driving column, for each shear piece
    pts = np.full((3, 2), 0.3)
    pts[1, column] = np.nan
    for field, t0, t1 in ((STEADY, 0.0, 1.0), (ALTERNATING, 0.0, 0.25), (ALTERNATING, 1.0, 0.75)):
        with pytest.raises(IntegrationDivergedError):
            advect(field, pts, t0, t1, 1)


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_constant_along_flow_holds_exactly_where_the_row_says(kind):
    # velocity and gradient at p + s v(p) against those at p, bitwise, in both halves of a period:
    # all equal where the row lets a step reuse its first stage, none equal where it does not
    field = _field(kind)
    pts = np.random.default_rng(15).random((500, 2))
    for t in (0.2, 0.7):
        velocity, gradient = field.velocity(t, pts), field.gradient(t, pts)
        same = [
            field.velocity(t, moved).tobytes() == velocity.tobytes()
            and field.gradient(t, moved).tobytes() == gradient.tobytes()
            for moved in (pts + s * velocity for s in (0.5, -1.3, 7.0))
        ]
        assert all(same) if field.constant_along_flow else not any(same)


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_velocity_changes_in_time_exactly_at_the_breakpoints(kind):
    # steady between consecutive crossings k + frac of a breakpoint, bitwise, and changed across each
    field = _field(kind)
    rng = np.random.default_rng(16)
    pts = rng.random((200, 2))
    crossings = sorted(k + frac for k in range(4) for frac in field.time_breakpoints)
    edges = sorted({0.0, 3.0, *crossings})
    for a, b in zip(edges[:-1], edges[1:]):
        expected = field.velocity(a, pts).tobytes()
        for t in (*rng.uniform(a, b, 5), np.nextafter(b, a)):
            assert field.velocity(t, pts).tobytes() == expected
    for c in crossings:
        assert field.velocity(np.nextafter(c, -np.inf), pts).tobytes() != field.velocity(c, pts).tobytes()


def test_run_chunked_bounds_pieces():
    piece_rows = []

    def double(chunk):
        piece_rows.append(len(chunk))
        return 2.0 * chunk, chunk[:, :1]

    for rows in (8192 * 2, 262144, 100003):
        points = np.arange(2.0 * rows).reshape(rows, 2)
        doubled, first = workers.run_chunked(double, points, (np.empty_like(points), np.empty((rows, 1))))
        assert np.array_equal(doubled, 2.0 * points) and np.array_equal(first, points[:, :1])
    assert len(piece_rows) == 2 + 32 + 13
    assert min(piece_rows) >= 4096 and max(piece_rows) <= 8192
    # a batch under two pieces is one piece
    piece_rows.clear()
    (doubled,) = workers.run_chunked(lambda chunk: double(chunk)[0], np.ones((5, 2)), (np.empty((5, 2)),))
    assert piece_rows == [5] and np.array_equal(doubled, np.full((5, 2), 2.0))


def test_run_chunked_visits_row_ranges_in_order():
    # the orbit coder draws each piece's points inside func, so the visiting order is contract
    seen = []

    def rows(piece):
        seen.append(piece)
        return np.arange(piece.start, piece.stop)

    (out,) = workers.run_chunked(rows, range(3 * 8192 + 5), (np.empty(3 * 8192 + 5, dtype=int),))
    assert np.array_equal(out, np.arange(3 * 8192 + 5))
    assert [(piece.start, piece.stop) for piece in seen] == workers.piece_bounds(3 * 8192 + 5)
