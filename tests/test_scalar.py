import collections
import json
import re
import sys
import threading
import time

import numpy as np
import pytest

from ergomix import scalar, workers
from ergomix.cli import main
from ergomix.errors import ConfigError, IntegrationDivergedError
from ergomix.fields import VelocityField
from ergomix.flow import advect
from ergomix.scalar import (
    GridField,
    InitialDatum,
    grid_nodes,
    load_grid,
    sample_scalar,
    save_grid,
    scalar_series,
)

ZERO = VelocityField(kind="zero")
STEADY = VelocityField(kind="steady_shear", amplitude=1.0)
ALTERNATING = VelocityField(kind="alternating_shear", amplitude=1.0)
CELLULAR = VelocityField(kind="cellular", amplitude=0.5, phases=(0.1, 0.3))


def test_sinusoid_norms():
    datum = InitialDatum("sinusoid", wavevector=(1, 0))
    assert datum.sup_norm == 1.0
    assert datum.l2_norm == pytest.approx(1.0 / np.sqrt(2.0))
    assert datum.bv_seminorm == pytest.approx(4.0)
    nodes = grid_nodes(64)
    values = datum.evaluate(nodes)
    assert np.allclose(values, np.sin(2 * np.pi * nodes[..., 0]))


def test_sinusoid_rejects_zero_wavevector():
    with pytest.raises(ConfigError):
        InitialDatum("sinusoid", wavevector=(0, 0))


def test_checkerboard_level_one_pattern():
    datum = InitialDatum("checkerboard", level=1)
    # sign(sin 2 pi x * sin 2 pi y) pattern, values exactly +-1, mean zero
    values = datum.evaluate(grid_nodes(64))
    assert set(np.unique(values)) == {-1.0, 1.0}
    assert np.mean(values) == 0.0
    assert datum.evaluate(np.array([0.2, 0.3])) == 1.0
    assert datum.evaluate(np.array([0.7, 0.3])) == -1.0
    assert datum.bv_seminorm == pytest.approx(8.0)


def test_checkerboard_cell_size():
    datum = InitialDatum("checkerboard", level=2)
    # sign flips every 2^-2 along each axis
    assert datum.evaluate(np.array([0.1, 0.1])) != datum.evaluate(np.array([0.35, 0.1]))
    assert datum.bv_seminorm == pytest.approx(16.0)


def test_stripe_level_zero():
    datum = InitialDatum("stripe", level=0)
    values = datum.evaluate(grid_nodes(32))
    assert np.all(values[:16] == 1.0)
    assert np.all(values[16:] == -1.0)
    assert np.mean(values) == 0.0


SQUARE_WAVES = [("checkerboard", level) for level in (1, 2, 5, 9)] + [("stripe", level) for level in (0, 1, 4, 8)]


def _sine_rule(kind, level, points):
    # the square waves as sign(sin) >= 0, exact away from the jumps only
    def wave(coords, freq):
        return np.where(np.sin(2.0 * np.pi * freq * coords) >= 0.0, 1.0, -1.0)

    if kind == "checkerboard":
        return wave(points[:, 0], 2 ** (level - 1)) * wave(points[:, 1], 2 ** (level - 1))
    return wave(points[:, 0], 2**level)


@pytest.mark.parametrize("kind, level", SQUARE_WAVES)
def test_square_wave_parity_matches_sine_rule_off_the_jumps(kind, level):
    points = np.random.default_rng(level).random((10**5, 2))
    half_periods = (points if kind == "checkerboard" else points[:, :1]) * 2.0 ** (
        level if kind == "checkerboard" else level + 1
    )
    away = np.all(np.abs(half_periods - np.round(half_periods)) > 1e-9, axis=1)
    assert away.sum() > 0.99 * len(points)
    datum = InitialDatum(kind, level=level)
    assert np.array_equal(datum.evaluate(points[away]), _sine_rule(kind, level, points[away]))


@pytest.mark.parametrize("kind, level", SQUARE_WAVES)
def test_square_wave_takes_the_right_value_at_its_jumps(kind, level):
    # each wave is +1 on [0, half period) and -1 on the next half period
    cells = 2**level if kind == "checkerboard" else 2 ** (level + 1)
    k = np.arange(cells + 1)
    jumps = k / cells
    inside = np.full_like(jumps, 0.5 / cells)
    datum = InitialDatum(kind, level=level)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    assert np.array_equal(datum.evaluate(np.stack([jumps, inside], axis=1)), sign)
    if kind == "checkerboard":
        assert np.array_equal(datum.evaluate(np.stack([inside, jumps], axis=1)), sign)
        assert np.array_equal(datum.evaluate(np.stack([jumps, jumps], axis=1)), np.ones_like(jumps))
    else:
        assert np.array_equal(datum.evaluate(np.stack([jumps, jumps[::-1]], axis=1)), sign)


def _float_parity(kind, level, points):
    # the float formula the integer parity replaced: floor, sum, % 2.0
    x, y = points[:, 0], points[:, 1]
    if kind == "checkerboard":
        index = np.floor(x * 2.0**level) + np.floor(y * 2.0**level)
    else:
        index = np.floor(x * 2.0 ** (level + 1))
    index %= 2.0
    index *= -2.0
    index += 1.0
    return index


@pytest.mark.parametrize("kind, level", SQUARE_WAVES)
def test_integer_parity_equals_the_float_formula(kind, level):
    # negative and unwrapped coordinates, points exactly on the jumps, and a
    # batch of several pieces with a short last one
    cells = 2**level if kind == "checkerboard" else 2 ** (level + 1)
    jumps = np.arange(-2 * cells, 2 * cells + 1) / cells
    rng = np.random.default_rng(level)
    on_jumps = np.stack([rng.choice(jumps, 5000), rng.choice(jumps, 5000)], axis=1)
    mixed = np.stack([rng.choice(jumps, 5000), rng.uniform(-2.0, 2.0, 5000)], axis=1)
    spread = rng.uniform(-3.0, 3.0, (2 * workers._PIECE_ROWS + 7, 2))
    points = np.concatenate([on_jumps, mixed, mixed[:, ::-1], spread])
    values = InitialDatum(kind, level=level).evaluate(points)
    assert np.array_equal(values.view(np.int64), _float_parity(kind, level, points).view(np.int64))


@pytest.mark.parametrize(
    "kind, level", [("checkerboard", level) for level in range(1, 13)] + [("stripe", level) for level in range(13)]
)
def test_square_wave_has_4_nodes_per_half_period_on_its_coarsest_grid(kind, level):
    # the datum's values and its own resolution rule read the same half period
    datum = InitialDatum(kind, level=level)
    n = datum.coarsest_resolution()
    centers = (np.arange(n) + 0.5) / n  # one row of grid_nodes(n), without the n^2 grid
    row = np.stack([centers, np.full(n, 0.5 / n)], axis=1)
    for line in [row, row[:, ::-1]] if kind == "checkerboard" else [row]:
        runs = datum.evaluate(line).reshape(-1, 4)
        assert np.all(runs == runs[:, :1])
        assert np.array_equal(runs[1:, 0], -runs[:-1, 0])


@pytest.mark.parametrize("kind", ["sinusoid", "checkerboard"])
def test_evaluate_keeps_the_point_shape(kind):
    datum = InitialDatum(kind)
    nodes = grid_nodes(64)
    values = datum.evaluate(nodes)
    assert values.shape == (64, 64)
    assert np.array_equal(values.ravel(), datum.evaluate(nodes.reshape(-1, 2)))
    assert np.array_equal(values[::-1, ::2], datum.evaluate(nodes[::-1, ::2]))
    assert datum.evaluate(np.array([0.2, 0.3])).shape == ()


@pytest.mark.parametrize("kind", ["checkerboard", "stripe"])
def test_square_waves_default_to_level_2_and_stop_at_12(kind):
    assert InitialDatum(kind) == InitialDatum(kind, level=2)
    assert InitialDatum(kind, level=12).level == 12
    with pytest.raises(ConfigError, match=rf"^{kind} level must lie in \[[01], 12\], got 13$"):
        InitialDatum(kind, level=13)


@pytest.mark.parametrize(
    "kind, parameters, shown",
    [
        ("checkerboard", {"level": 2.7}, "level must be an integer, got 2.7"),
        ("stripe", {"level": 2.0}, "level must be an integer, got 2.0"),
        ("checkerboard", {"level": True}, "level must be an integer, got True"),
        ("sinusoid", {"wavevector": (1.5, 0)}, "wavevector must have integer components, got (1.5, 0)"),
        ("sinusoid", {"wavevector": (1, False)}, "wavevector must have integer components, got (1, False)"),
    ],
)
def test_datum_parameters_are_integers_never_truncated(kind, parameters, shown):
    with pytest.raises(ConfigError, match=f"^{kind} {re.escape(shown)}$"):
        InitialDatum(kind, **parameters)


def test_unknown_datum_kind():
    with pytest.raises(ConfigError):
        InitialDatum("blob")


def test_zero_field_samples_initial_datum():
    datum = InitialDatum("checkerboard", level=2)
    grid = sample_scalar(ZERO, datum, 3.0, 64)
    assert np.array_equal(grid.values, datum.evaluate(grid_nodes(64)))


def test_steady_shear_invariant_datum():
    # sin(2 pi y) depends only on y, which the shear conserves
    datum = InitialDatum("sinusoid", wavevector=(0, 1))
    grid = sample_scalar(STEADY, datum, 4.0, 64)
    assert np.max(np.abs(grid.values - datum.evaluate(grid_nodes(64)))) < 1e-9


def test_steady_shear_closed_form_transport():
    datum = InitialDatum("sinusoid", wavevector=(1, 0))
    t = 2.0
    grid = sample_scalar(STEADY, datum, t, 128)
    nodes = grid_nodes(128)
    expected = np.sin(2 * np.pi * (nodes[..., 0] - t * np.sin(2 * np.pi * nodes[..., 1])))
    assert np.max(np.abs(grid.values - expected)) < 1e-9


def test_range_preserved_exactly():
    datum = InitialDatum("checkerboard", level=2)
    for grid in scalar_series(ALTERNATING, datum, 5, 64):
        assert set(np.unique(grid.values)) == {-1.0, 1.0}


def test_discrete_mean_small():
    datum = InitialDatum("checkerboard", level=2)
    grid = sample_scalar(ALTERNATING, datum, 3.0, 256)
    assert abs(grid.mean()) <= 1e-3


def test_series_matches_direct_integration():
    datum = InitialDatum("checkerboard", level=2)
    series_grids = list(scalar_series(ALTERNATING, datum, 5, 64))
    # both backward paths take one RK4 step per steady half-period piece, so
    # they do identical arithmetic and agree bitwise
    for t in (1, 3, 5):
        direct = sample_scalar(ALTERNATING, datum, float(t), 64)
        assert np.array_equal(series_grids[t].values, direct.values)


MIXING_SHEAR = VelocityField(kind="alternating_shear", amplitude=0.95, phases=(0.13, 0.41))


@pytest.mark.parametrize(
    "field", [MIXING_SHEAR, STEADY, CELLULAR], ids=["alternating_shear", "steady_shear", "cellular"]
)
def test_series_equals_a_serial_march_bitwise(field, monkeypatch):
    # the feet advected one unit map at a time in this thread; a sinusoid shows
    # every bit of the feet in its values, and cellular takes the RK4 oracle path
    datum = InitialDatum("sinusoid", wavevector=(1, 2))
    evaluate = scalar.InitialDatum.evaluate

    def slow_evaluate(self, points):
        time.sleep(0.005)  # a helper started before the datum read the feet would move them
        return evaluate(self, points)

    monkeypatch.setattr(scalar.InitialDatum, "evaluate", slow_evaluate)
    feet = grid_nodes(64)
    times = []
    for grid in scalar_series(field, datum, 6, 64):
        times.append(grid.time)
        assert np.array_equal(grid.values.view(np.int64), datum.evaluate(feet).view(np.int64))
        advect(field, feet, 1.0, 0.0, field.rk4_steps(1.0), out=feet)
    assert times == [float(t) for t in range(7)]


def test_series_marches_every_row_once_per_unit_map_on_at_most_one_helper(monkeypatch):
    # 256^2 feet are 8 pieces; a slow advect lets the consumer claim some of them
    calls = []

    def recording(field, x, t0, t1, steps, out=None):
        first_row = x.__array_interface__["data"][0] // x.strides[0]
        calls.append((first_row, len(x), threading.current_thread(), threading.active_count()))
        time.sleep(0.002)
        return advect(field, x, t0, t1, steps, out=out)

    monkeypatch.setattr(scalar, "advect", recording)  # the series' binding of flow.advect
    n, horizon = 256, 4
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that a racy claim would show
    try:
        for grid in scalar_series(ALTERNATING, InitialDatum("stripe"), horizon, n):
            # the march to the next grid may have started, but none beyond it
            rows = sum(call[1] for call in calls)
            assert grid.time * n * n <= rows <= min(grid.time + 1, horizon) * n * n
    finally:
        sys.setswitchinterval(interval)
    assert sum(call[1] for call in calls) == horizon * n * n  # nothing ran after the last grid
    assert threading.active_count() == before
    assert max(call[3] for call in calls) == before + 1
    pieces = collections.Counter(call[:2] for call in calls)
    assert set(pieces.values()) == {horizon} and len(pieces) == 8  # each piece once per unit map
    starts, rows = zip(*sorted(pieces))
    assert np.array_equal(np.diff(starts), rows[:-1]) and sum(rows) == n * n  # they tile the feet
    assert any(call[2] is threading.main_thread() for call in calls)
    assert len({call[2] for call in calls if call[2] is not threading.main_thread()}) <= horizon


def test_concurrent_shear_advects_of_interleaved_pieces_equal_one_serial_advect():
    # the series' two threads each advect every other row piece of one feet array,
    # four unit maps back, so that their shear steps overlap many times
    rows, steps = workers._PIECE_ROWS, MIXING_SHEAR.rk4_steps(4.0)
    feet = np.random.default_rng(19).random((16 * rows, 2))
    expected = advect(MIXING_SHEAR, feet, 4.0, 0.0, steps)
    pieces = [feet[start : start + rows] for start in range(0, len(feet), rows)]

    def lane(first):
        for piece in pieces[first::2]:
            advect(MIXING_SHEAR, piece, 4.0, 0.0, steps, out=piece)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that shared state would show
    try:
        helper = threading.Thread(target=lane, args=(1,))
        helper.start()
        lane(0)
        helper.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not helper.is_alive() and np.array_equal(feet, expected)


def _diverging_after(calls, delay=0.0):
    """flow.advect that raises the integrator's divergence error from its call number ``calls`` on."""
    done = []

    def diverging(field, x, t0, t1, steps, out=None):
        time.sleep(delay)
        if len(done) == calls:
            raise IntegrationDivergedError("a flow position is not finite; check the input points")
        done.append(1)
        return advect(field, x, t0, t1, steps, out=out)

    return diverging


def test_helper_error_surfaces_at_the_next_grid(monkeypatch):
    monkeypatch.setattr(scalar, "advect", _diverging_after(1))
    before = threading.active_count()
    series = scalar_series(ALTERNATING, InitialDatum("stripe"), 5, 32)
    assert [next(series).time, next(series).time] == [0.0, 1.0]
    with pytest.raises(IntegrationDivergedError, match="not finite"):
        next(series)
    assert threading.active_count() == before
    with pytest.raises(StopIteration):
        next(series)


def test_cli_run_whose_helper_diverges_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scalar, "advect", _diverging_after(2))
    path = tmp_path / "mixing.cfg"
    path.write_text(
        "experiment = mixing\nseed = 3\nhorizon = 6\nresolution = 32\n"
        f"output_dir = {tmp_path / 'out'}\n\n[field]\nkind = alternating_shear\n\n"
        "[datum]\nkind = checkerboard\n"
    )
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["numeric failure: a flow position is not finite; check the input points"]


@pytest.mark.parametrize("helper_fails", [False, True])
def test_error_on_the_consumers_piece_wins_and_joins_the_helper(monkeypatch, helper_fails):
    # 256^2 feet are 8 pieces: the helper sleeps in one while the consumer fails on
    # another; the helper's piece then ends, or fails too, and the first error wins
    helper_busy, helper_calls = threading.Event(), []

    def failing_on_the_consumer(field, x, t0, t1, steps, out=None):
        if threading.current_thread() is threading.main_thread():
            assert helper_busy.wait(5.0)
            raise IntegrationDivergedError("a flow position is not finite; check the input points")
        helper_calls.append(1)
        helper_busy.set()
        time.sleep(0.05)
        if helper_fails:
            raise IntegrationDivergedError("the helper's piece diverged later")
        return advect(field, x, t0, t1, steps, out=out)

    monkeypatch.setattr(scalar, "advect", failing_on_the_consumer)
    before = threading.active_count()
    series = scalar_series(ALTERNATING, InitialDatum("stripe"), 5, 256)
    assert next(series).time == 0.0
    with pytest.raises(IntegrationDivergedError, match="not finite"):
        next(series)
    assert threading.active_count() == before
    assert helper_calls == [1]  # no piece is claimed after the error
    with pytest.raises(StopIteration):
        next(series)


@pytest.mark.parametrize("leave", ["break", "close"])
def test_leaving_the_series_joins_the_helper_and_drops_its_result(monkeypatch, capsys, leave):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    monkeypatch.setattr(threading, "excepthook", unraisable.append)
    # the helper is still running when the series is left, and then it raises
    monkeypatch.setattr(scalar, "advect", _diverging_after(0, delay=0.05))
    before = threading.active_count()
    if leave == "break":
        for grid in scalar_series(ALTERNATING, InitialDatum("stripe"), 5, 32):
            break
    else:
        series = scalar_series(ALTERNATING, InitialDatum("stripe"), 5, 32)
        grid = next(series)
        series.close()
    assert grid.time == 0.0
    assert threading.active_count() == before
    assert unraisable == []
    assert "Exception ignored" not in capsys.readouterr().err


def test_h_minus_one_resolution_consistency():
    # resolution-converged regime: the canonical mixing-study stirring
    from ergomix.diagnostics import h_minus_one

    field = VelocityField(kind="alternating_shear", amplitude=0.95, phases=(0.13, 0.41))
    datum = InitialDatum("checkerboard", level=2)
    for coarse, fine in zip(
        scalar_series(field, datum, 5, 256),
        scalar_series(field, datum, 5, 512),
    ):
        a, b = h_minus_one(coarse), h_minus_one(fine)
        assert abs(a - b) <= 0.05 * max(a, b)


def test_rejects_coarse_resolution_and_negative_time():
    datum = InitialDatum("stripe")
    with pytest.raises(ConfigError):
        sample_scalar(ZERO, datum, 1.0, 8)
    with pytest.raises(ConfigError):
        sample_scalar(ZERO, datum, -1.0, 64)


def test_binary_round_trip(tmp_path):
    datum = InitialDatum("checkerboard", level=1)
    grid = sample_scalar(ALTERNATING, datum, 2.0, 64)
    stem = str(tmp_path / "grid")
    save_grid(grid, stem)
    loaded = load_grid(stem)
    assert loaded.resolution == grid.resolution
    assert loaded.time == grid.time
    assert np.array_equal(loaded.values, grid.values)
    assert loaded.metadata["datum"]["sup_norm"] == 1.0
    also = load_grid(stem + ".json")
    assert np.array_equal(also.values, grid.values)


def _saved_grid(tmp_path):
    grid = sample_scalar(ZERO, InitialDatum("checkerboard", level=1), 0.0, 32)
    stem = str(tmp_path / "grid")
    save_grid(grid, stem)
    return stem


def test_load_grid_rejects_truncated_values(tmp_path):
    stem = _saved_grid(tmp_path)
    with open(stem + ".bin", "r+b") as handle:
        handle.truncate(100)
    with pytest.raises(ConfigError, match="100 bytes"):
        load_grid(stem)


def test_load_grid_rejects_malformed_sidecar(tmp_path):
    stem = _saved_grid(tmp_path)
    with open(stem + ".json", "w") as handle:
        handle.write('{"resolution": 32')
    with pytest.raises(ConfigError, match="sidecar"):
        load_grid(stem)


@pytest.mark.parametrize(
    "key, value",
    [
        ("resolution", None),
        ("values_file", None),
        ("time", None),
        ("resolution", 32.0),
        ("dtype", ">f4"),
        ("time", "later"),
        ("metadata", []),
        ("metadata", {"datum": []}),
        ("metadata", {"datum": {"sup_norm": "x"}}),
        ("metadata", {"datum": {"sup_norm": 0.0}}),
        ("resolution", True),
        ("resolution", 8),
        ("time", float("nan")),
        # the grid's own values file, named by a path rather than a bare file name
        ("values_file", "{dir}/grid.bin"),
        ("values_file", "../{name}/grid.bin"),
    ],
)
def test_load_grid_rejects_missing_or_bad_key(tmp_path, key, value):
    stem = _saved_grid(tmp_path)
    with open(stem + ".json") as handle:
        sidecar = json.load(handle)
    if value is None:
        del sidecar[key]
    else:
        sidecar[key] = value.format(dir=tmp_path, name=tmp_path.name) if isinstance(value, str) else value
    with open(stem + ".json", "w") as handle:
        json.dump(sidecar, handle)
    with pytest.raises(ConfigError, match=key):
        load_grid(stem)


def test_spectrum_is_computed_once_per_grid(monkeypatch):
    # the grid's transform now lives in the diagnostics workspace of its resolution
    from ergomix import diagnostics

    grid = sample_scalar(ZERO, InitialDatum("checkerboard", level=1), 0.0, 32)
    diagnostics._workspace(32)  # building the weight tables transforms too
    rfft2, calls = np.fft.rfft2, []

    def counting_rfft2(x, *args, **kwargs):
        calls.append(x is grid.values)
        return rfft2(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft2", counting_rfft2)
    work = diagnostics._transform(grid)
    assert diagnostics._transform(grid) is work
    assert calls == [True]
    assert np.array_equal(work.spectrum, rfft2(grid.values))
