import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergomix import diagnostics, workers
from ergomix.config import parse_config
from ergomix.diagnostics import (
    Partition,
    _ball_kernel,
    _orbit_codes,
    _plugin_entropy,
    ball_averages,
    entropy_rate,
    h_minus_one,
    h_minus_one_floor,
    log_sobolev,
    log_sobolev_brute_force,
    maximal_ergodic,
    mixing_scale,
    nu_log_bound,
    partition_entropy,
    scan_radii,
)
from ergomix.errors import ConfigError, ErgomixError, UndersampledError
from ergomix.fields import VelocityFieldSpec, make_field
from ergomix.maps import TimeOneFlowMap, make_map
from ergomix.scalar import GridField, grid_nodes, make_initial, sample_scalar, scalar_series
from ergomix.torus import uniform_points
from tests.test_lyapunov import IdentityMap

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _grid_from_function(func, resolution, sup_norm=1.0):
    nodes = grid_nodes(resolution)
    return GridField(
        resolution=resolution,
        values=func(nodes),
        time=0.0,
        metadata={"datum": {"sup_norm": sup_norm}},
    )


# --- h_minus_one -----------------------------------------------------------


def test_h_minus_one_single_mode():
    grid = _grid_from_function(lambda p: np.sin(2 * np.pi * p[..., 0]), 256)
    assert h_minus_one(grid) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


def test_h_minus_one_second_mode():
    grid = _grid_from_function(lambda p: np.sin(4 * np.pi * p[..., 0]), 256)
    assert h_minus_one(grid) == pytest.approx(np.sqrt(0.5) / 2.0, abs=1e-6)


def test_h_minus_one_zero_and_mean_invariance():
    grid = _grid_from_function(lambda p: np.zeros(p.shape[:-1]), 64)
    assert h_minus_one(grid) == 0.0
    shifted = _grid_from_function(lambda p: np.sin(2 * np.pi * p[..., 0]) + 5.0, 64)
    unshifted = _grid_from_function(lambda p: np.sin(2 * np.pi * p[..., 0]), 64)
    assert h_minus_one(shifted) == pytest.approx(h_minus_one(unshifted), rel=1e-12)


def test_h_minus_one_is_absolutely_homogeneous():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(64, 64))
    base = GridField(64, values, 0.0, {})
    scaled = GridField(64, -2.5 * values, 0.0, {})
    assert h_minus_one(scaled) == pytest.approx(2.5 * h_minus_one(base), rel=1e-12)


def _h_minus_one_full_spectrum(grid):
    # the full-fft2 formula the half-spectrum sum replaces
    n = grid.resolution
    coeffs = np.fft.fft2(grid.values) / n**2
    k = np.fft.fftfreq(n, d=1.0 / n)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    k2[0, 0] = 1.0
    weight = np.abs(coeffs) ** 2 / k2
    weight[0, 0] = 0.0
    return float(np.sqrt(np.sum(weight)))


@pytest.mark.parametrize("resolution", [16, 64, 17, 63])
def test_h_minus_one_half_spectrum_matches_full_fft(resolution):
    rng = np.random.default_rng(resolution)
    for _ in range(3):
        grid = GridField(resolution, rng.normal(size=(resolution, resolution)), 0.0, {})
        assert h_minus_one(grid) == pytest.approx(_h_minus_one_full_spectrum(grid), rel=1e-12)


@pytest.mark.parametrize("resolution, value", [(256, 0.022697), (512, 0.012058), (1024, 0.006364)])
def test_h_minus_one_floor_is_the_full_spectrum_sum(resolution, value):
    k = np.fft.fftfreq(resolution, d=1.0 / resolution)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    k2[0, 0] = np.inf
    direct = np.sqrt(np.sum(1.0 / k2)) / resolution
    assert h_minus_one_floor(resolution) == pytest.approx(direct, rel=1e-12)
    assert direct == pytest.approx(value, abs=5e-7)
    diagnostics.release_scratch()


def test_h_minus_one_floor_is_the_norm_of_grid_noise():
    # independent +-1 nodes have E |rho_hat(k)|^2 = N^2, so H^-1 squared averages to the floor squared
    rng = np.random.default_rng(5)
    grid = GridField(256, rng.choice([-1.0, 1.0], size=(256, 256)), 0.0, {})
    assert h_minus_one(grid) == pytest.approx(h_minus_one_floor(256), rel=0.15)


# --- log_sobolev -----------------------------------------------------------


def test_log_sobolev_constant_is_zero():
    grid = _grid_from_function(lambda p: np.ones(p.shape[:-1]), 64)
    assert log_sobolev(grid) == 0.0


def test_log_sobolev_quadratic_homogeneity():
    grid = _grid_from_function(lambda p: np.sin(2 * np.pi * p[..., 0]), 64)
    doubled = GridField(64, 2.0 * grid.values, 0.0, grid.metadata)
    a = log_sobolev(grid)
    b = log_sobolev(doubled)
    assert b == pytest.approx(4.0 * a, rel=1e-12)


@pytest.mark.parametrize(
    "make_grid",
    [
        lambda: _grid_from_function(lambda p: np.sin(2 * np.pi * p[..., 0]), 64),
        lambda: sample_scalar(
            make_field(VelocityFieldSpec(kind="zero")), make_initial("checkerboard", level=1), 0.0, 64
        ),
        lambda: sample_scalar(
            make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=1.0)),
            make_initial("checkerboard", level=2),
            2.0,
            64,
        ),
        lambda: sample_scalar(
            make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=1.0)),
            make_initial("checkerboard", level=2),
            2.0,
            63,
        ),
        # every mode nonzero, the Nyquist row and column of the even N included
        lambda: GridField(16, np.random.default_rng(16).normal(size=(16, 16)), 0.0, {}),
        lambda: GridField(17, np.random.default_rng(17).normal(size=(17, 17)), 0.0, {}),
    ],
    ids=["sinusoid", "checkerboard", "advected", "advected_odd", "normal_16", "normal_17"],
)
def test_log_sobolev_matches_brute_force(make_grid):
    grid = make_grid()
    exact = log_sobolev_brute_force(grid)
    assert abs(log_sobolev(grid) - exact) <= 1e-12 * exact


def test_grid_diagnostics_share_one_modulus_per_grid(monkeypatch):
    rng = np.random.default_rng(5)
    grids = [GridField(48, rng.normal(size=(48, 48)), 0.0, {"datum": {"sup_norm": 4.0}}) for _ in range(2)]

    def visit(grid):
        return h_minus_one(grid), log_sobolev(grid), mixing_scale(grid, 0.02), ball_averages(grid, 0.1).tobytes()

    alone = [visit(g) for g in grids]  # also builds the table of every radius the visits read
    complex_moduli, transformed = [], []
    rfft2 = np.fft.rfft2

    def counting_abs(x, *args, **kwargs):
        complex_moduli.append(np.iscomplexobj(x))
        return np.absolute(x, *args, **kwargs)

    def recording_rfft2(x, *args, **kwargs):
        transformed.append(next((i for i, g in enumerate(grids) if x is g.values), None))
        return rfft2(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counting_abs)
    monkeypatch.setattr(np.fft, "rfft2", recording_rfft2)
    # alternating grids must not read each other's transform or modulus
    for g, expected in zip(grids + grids, alone + alone):
        assert visit(g) == expected
        assert np.array_equal(diagnostics._workspace(48).spectrum, rfft2(g.values))
    assert transformed == [0, 1, 0, 1]  # one rfft2 per grid visit, of that grid's values
    assert complex_moduli.count(True) == 4  # one per grid visit, none per radius


def test_a_long_radius_scan_transforms_each_ball_kernel_once(monkeypatch):
    # more radii than a cache of 8 entries holds, scanned in the same order on two grids
    rng = np.random.default_rng(8)
    grids = [GridField(128, rng.normal(size=(128, 128)), 0.0, {}) for _ in range(2)]
    radii = scan_radii(128)[::-1]
    assert len(radii) > 8
    diagnostics.release_scratch()
    diagnostics._workspace(128)
    kernels = []
    rfft2 = np.fft.rfft2

    def recording_rfft2(x, *args, **kwargs):
        if not any(x is g.values for g in grids):
            kernels.append(x.sum())
        return rfft2(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft2", recording_rfft2)
    for grid in grids + grids:
        for radius in radii:
            ball_averages(grid, radius)
    assert kernels == [_ball_kernel(128, radius).sum() for radius in radii]
    diagnostics.release_scratch()


def test_norms_are_bitwise_stable_across_rebuilt_tables():
    grids = [GridField(n, np.random.default_rng(n).normal(size=(n, n)), 0.0, {}) for n in (24, 48, 96)]

    def diagnose(grid):
        averages = ball_averages(grid, 0.15).tobytes()
        return h_minus_one(grid), log_sobolev(grid), mixing_scale(grid, 0.05), averages

    first = [diagnose(grid) for grid in grids]
    diagnostics.release_scratch()
    # N, 2N, 4N, then N again: more resolutions than _workspace caches
    for grid, results in zip(grids + grids[:1], first + first[:1]):
        assert diagnose(grid) == results
    assert diagnostics._workspace.cache_info().maxsize < len(grids)


# --- mixing_scale ----------------------------------------------------------


def _ball_maxima(grid, radii):
    # independent direct scan: the largest |ball mean| at each radius, each
    # ball sum a sum of row segments |dj| <= w(di) read off periodic prefix
    # sums along the rows (exact for the two-valued data used here)
    n = grid.resolution
    tiled = np.concatenate([grid.values] * 3, axis=1)
    prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(tiled, axis=1)], axis=1)
    maxima = []
    for r in radii:
        reach = int(np.floor(r * n))
        offsets = np.arange(reach + 1)
        inside = (offsets[:, None] ** 2 + offsets[None, :] ** 2) / n**2 <= r * r
        total = np.zeros_like(grid.values)
        count = 0
        # rows di and -di of the ball share their half-width w
        for di, w in zip(offsets, inside.sum(axis=1) - 1):
            if w < 0:
                continue
            # segment[i, j] = sum of values[i, j - w .. j + w], columns modulo N
            segment = prefix[:, n + w + 1 : 2 * n + w + 1] - prefix[:, n - w : 2 * n - w]
            for shift in {di % n, -di % n}:  # total[i] += segment[i + di], rows modulo N
                total[: n - shift] += segment[shift:]
                total[n - shift :] += segment[:shift]
                count += 2 * w + 1
        maxima.append(np.max(np.abs(total / count)))
    return maxima


def _brute_force_mixing_scale(grid, kappa, radii, maxima=None):
    maxima = _ball_maxima(grid, radii) if maxima is None else maxima
    sup = grid.metadata["datum"]["sup_norm"]
    last_fail = max((i for i, m in enumerate(maxima) if m > kappa * sup), default=-1)
    if last_fail == len(radii) - 1:
        return radii[-1]
    if last_fail < 0:
        return radii[0]
    return radii[last_fail + 1]


def test_scan_radii_bounds():
    for n in (16, 256):
        radii = scan_radii(n)
        assert radii[0] >= 2.0 / n > radii[0] / 2**0.5
        assert radii[-1] == 0.4
        assert all(a < b for a, b in zip(radii, radii[1:]))
    assert len(scan_radii(16)) == 4


def test_mixing_scale_checkerboard_bracket():
    grid = sample_scalar(
        make_field(VelocityFieldSpec(kind="zero")), make_initial("checkerboard", level=2), 0.0, 256
    )
    result = mixing_scale(grid, 1.0 / 3.0)
    assert 2**-4 <= result <= 2**-2
    assert result == _brute_force_mixing_scale(grid, 1.0 / 3.0, scan_radii(256))


def test_mixing_scale_stripe_bracket():
    grid = sample_scalar(
        make_field(VelocityFieldSpec(kind="zero")), make_initial("stripe", level=0), 0.0, 256
    )
    result = mixing_scale(grid, 1.0 / 3.0)
    assert result == _brute_force_mixing_scale(grid, 1.0 / 3.0, scan_radii(256))
    assert 0.1 <= result <= 0.45


def test_mixing_scale_odd_resolution_matches_brute_force():
    grid = sample_scalar(
        make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=1.0)),
        make_initial("checkerboard", level=2),
        2.0,
        63,
    )
    for kappa in (0.15, 1.0 / 3.0, 0.7):
        assert mixing_scale(grid, kappa) == _brute_force_mixing_scale(grid, kappa, scan_radii(63))


def test_mixing_scale_matches_brute_force_on_the_shipped_series(monkeypatch):
    # every grid of the shipped alternating mixing config at 256^2; the three
    # kappas between them decide radii by the pass certificate, by the
    # failure witness and by the transform
    with open(os.path.join(CONFIGS, "mixing_alternating.cfg")) as handle:
        config = parse_config(handle.read())
    transformed = []

    def recording_ball_averages(grid, radius, out=None):
        transformed.append(radius)
        return ball_averages(grid, radius, out=out)

    monkeypatch.setattr(diagnostics, "ball_averages", recording_ball_averages)
    radii = scan_radii(256)
    decided = {"pass certificate": 0, "failure witness": 0, "transform": 0}
    for grid in scalar_series(make_field(config.field), config.datum, config.horizon, 256):
        maxima = _ball_maxima(grid, radii)
        for kappa in (0.15, 1.0 / 3.0, 0.7):
            transformed.clear()
            assert mixing_scale(grid, kappa) == _brute_force_mixing_scale(grid, kappa, radii, maxima)
            failing = [i for i, m in enumerate(maxima) if m > kappa]
            scanned = range(len(radii) - 1, failing[-1] - 1 if failing else -1, -1)
            for i in scanned:
                if radii[i] in transformed:
                    decided["transform"] += 1
                elif failing and i == failing[-1]:
                    decided["failure witness"] += 1
                else:
                    decided["pass certificate"] += 1
    assert min(decided.values()) > 0, decided


def test_failure_witness_reads_every_ball_node_above_256():
    # above N = 256 the offsets no longer fit uint8: they are stored as uint16, and the failure
    # witness still sums the ball's own nodes
    n = 264
    grid = sample_scalar(
        make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=1.0)),
        make_initial("checkerboard", level=2),
        2.0,
        n,
    )
    maxima = _ball_maxima(grid, scan_radii(n))
    for kappa in (0.15, 1.0 / 3.0, 0.7):
        assert mixing_scale(grid, kappa) == _brute_force_mixing_scale(grid, kappa, scan_radii(n), maxima)
    read = {r: ball.offsets for r, ball in diagnostics._workspace(n).balls.items() if ball.offsets is not None}
    assert len(read) >= 3
    for radius, (rows, cols) in read.items():
        assert rows.dtype == cols.dtype == np.uint16
        expected_rows, expected_cols = np.nonzero(_ball_kernel(n, radius))
        assert np.array_equal(rows, expected_rows) and np.array_equal(cols, expected_cols)


def test_mixing_scale_conventions():
    # fully uniform data mixes at every radius -> the smallest scan radius;
    # an unmixed half-half split fails at every radius -> the largest
    flat = _grid_from_function(lambda p: np.zeros(p.shape[:-1]), 64)
    assert mixing_scale(flat, 0.5) == scan_radii(64)[0]
    stripe = sample_scalar(
        make_field(VelocityFieldSpec(kind="zero")), make_initial("stripe", level=0), 0.0, 64
    )
    assert mixing_scale(stripe, 0.01) == scan_radii(64)[-1]


def test_mixing_scale_monotone_in_kappa():
    grid = sample_scalar(
        make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=1.0)),
        make_initial("checkerboard", level=2),
        2.0,
        128,
    )
    results = [mixing_scale(grid, kappa) for kappa in (0.15, 0.3, 0.5, 0.7)]
    assert all(a >= b for a, b in zip(results, results[1:]))


def test_mixing_scale_validation():
    grid = _grid_from_function(lambda p: np.zeros(p.shape[:-1]), 64)
    for kappa in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigError, match="kappa"):
            mixing_scale(grid, kappa)


def test_ball_averages_match_direct_sum():
    rng = np.random.default_rng(5)
    grid = GridField(32, rng.normal(size=(32, 32)), 0.0, {})
    means = ball_averages(grid, 0.1)
    n, r = 32, 0.1
    total = np.zeros((32, 32))
    count = 0
    for di in range(-4, 5):
        for dj in range(-4, 5):
            if (di * di + dj * dj) / n**2 <= r * r:
                total += np.roll(grid.values, (-di, -dj), axis=(0, 1))
                count += 1
    assert np.max(np.abs(means - total / count)) < 1e-10
    out = np.empty((32, 32))
    assert ball_averages(grid, 0.1, out=out) is out and np.array_equal(out, means)


def test_cached_ball_spectrum_equals_a_fresh_transform():
    rng = np.random.default_rng(6)
    grids = [GridField(48, rng.normal(size=(48, 48)), 0.0, {}) for _ in range(2)]
    diagnostics.release_scratch()
    tables = {}
    for radius in scan_radii(48):
        kernel = _ball_kernel(48, radius)
        fresh = np.fft.rfft2(kernel)
        # the kernel is even, so the exact transform is real: what the table drops is roundoff
        assert np.max(np.abs(fresh.imag)) <= 1e-12 * kernel.sum()
        for grid in grids:
            # the uncached ball averages, as computed before the spectra were cached
            expected = np.fft.irfft2(np.fft.rfft2(grid.values) * fresh.real, s=grid.values.shape) / kernel.sum()
            assert np.array_equal(ball_averages(grid, radius), expected)
            ball = diagnostics._workspace(48).balls[radius]
            assert np.array_equal(ball.spectrum, fresh.real) and ball.count == kernel.sum()
            assert not ball.spectrum.flags.writeable and ball.offsets is None  # read by mixing_scale only
            # the second grid reads the table the first one built
            assert tables.setdefault(radius, ball.spectrum) is ball.spectrum
    assert list(diagnostics._workspace(48).balls) == list(scan_radii(48))
    dead = [weakref.ref(table) for table in tables.values()]
    del tables, ball
    diagnostics.release_scratch()
    assert all(ref() is None for ref in dead)


# --- partition entropy and entropy rate ------------------------------------


def test_partition_entropy_uniform():
    assert partition_entropy([0.25] * 4) == pytest.approx(np.log(4.0), rel=1e-12)


def test_partition_entropy_zero_convention():
    assert partition_entropy([1.0, 0.0, 0.0]) == 0.0


def test_partition_entropy_mixed():
    assert partition_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * np.log(2.0), rel=1e-12)


def test_partition_entropy_rejects_negative():
    with pytest.raises(ErgomixError):
        partition_entropy([0.5, 0.6, -0.1])
    with pytest.raises(ErgomixError):
        partition_entropy([0.5, 0.4])


@given(
    st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8),
    st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_partition_entropy_subadditive_under_independent_join(a, b):
    p = np.array(a) / np.sum(a)
    q = np.array(b) / np.sum(b)
    joint = np.outer(p, q).ravel()
    joint = joint / joint.sum()
    assert partition_entropy(joint) <= partition_entropy(p) + partition_entropy(q) + 1e-12


def test_partition_labels_cover_all_cells():
    part = Partition(level=3)
    labels = part.labels(grid_nodes(32).reshape(-1, 2))
    assert set(np.unique(labels)) == set(range(part.cell_count))


def test_entropy_rate_identity_is_zero():
    # codes never refine, so the block entropies are flat and the rate is 0
    est, bias, codes = entropy_rate(IdentityMap(), Partition(level=2), 8, 20_000, seed=0)
    assert est == pytest.approx(0.0, abs=1e-12)
    assert bias >= 0.0
    assert codes == Partition(level=2).cell_count


def test_entropy_rate_cat_map_pesin_value():
    lam = np.log((3.0 + np.sqrt(5.0)) / 2.0)
    est, bias, _ = entropy_rate(make_map("cat"), Partition(level=4), 8, 1_000_000, seed=1)
    assert abs(est - lam) <= 0.15 * lam


def test_entropy_rate_baker_map():
    est, bias, _ = entropy_rate(make_map("baker"), Partition(level=4), 8, 200_000, seed=2)
    assert abs(est - np.log(2.0)) <= 0.15 * np.log(2.0)


def test_entropy_rate_undersampled_error_names_requirement():
    with pytest.raises(UndersampledError, match="samples"):
        entropy_rate(make_map("cat"), Partition(level=5), 8, 2_000, seed=3)


def _structured_orbit_codes(map_, partition, n, sample_count, rng):
    """Oracle coder: (samples, n) label rows, one structured np.unique per depth."""
    points = uniform_points(rng, sample_count)
    labels = np.empty((sample_count, n), dtype=np.int64)
    for t in range(n):
        labels[:, t] = partition.labels(points)
        if t < n - 1:
            points = map_.apply(points)
    counts = {}
    for depth in range(1, n + 1):
        sub = np.ascontiguousarray(labels[:, :depth])
        _, counts[depth] = np.unique(sub.view([("", sub.dtype)] * depth), return_counts=True)
    return counts


STRADDLE = 3 * workers._PIECE_ROWS + 5  # four row pieces, the last one short


@pytest.mark.parametrize(
    "map_, level, n, samples",
    [
        pytest.param(make_map("cat"), 4, 8, 50_000, id="cat-64-bits"),
        pytest.param(make_map("cat"), 5, 8, 50_000, id="cat-80-bits"),
        pytest.param(make_map("cat"), 12, 3, 50_000, id="cat-72-bits"),
        pytest.param(make_map("cat"), 8, 8, 50_000, id="cat-128-bits-two-reranks"),
        pytest.param(make_map("baker"), 4, 8, 50_000, id="baker"),
        pytest.param(IdentityMap(), 3, 8, 50_000, id="identity"),
        pytest.param(make_map("cat"), 4, 8, STRADDLE, id="cat-64-bits-straddling-pieces"),
        pytest.param(make_map("cat"), 8, 8, STRADDLE, id="cat-128-bits-two-reranks-straddling-pieces"),
        pytest.param(make_map("cat"), 8, 8, 2**16, id="cat-128-bits-rank-of-2-16-samples"),
    ],
)
def test_integer_orbit_codes_match_structured_oracle(map_, level, n, samples):
    partition = Partition(level=level)
    depths = range(1, n + 1)
    fast = _orbit_codes(map_, partition, n, samples, np.random.default_rng(7), depths)
    oracle = _structured_orbit_codes(map_, partition, n, samples, np.random.default_rng(7))
    for depth in depths:
        # _plugin_entropy overwrites the counts it is given, so the oracle's are copied
        assert fast[depth] == (_plugin_entropy(oracle[depth].copy(), samples), len(oracle[depth])), depth


def test_orbit_coder_holds_no_point_array_on_one_segment():
    # level 4 at depth 8 is one 64-bit segment: each piece draws its own points and each depth's
    # counts become its entropy as they are read, so the peak is the 8 MB of codes plus one
    # shallower depth's counts (10.7 MiB), not also a (samples, 2) array (25.3 MiB) or every
    # depth's counts (15.8 MiB)
    tracemalloc.start()
    try:
        read = _orbit_codes(make_map("cat"), Partition(level=4), 8, 10**6, np.random.default_rng(7), range(4, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(read) == [4, 5, 6, 7, 8]
    assert peak < 12.5 * 2**20, peak / 2**20


def test_orbit_coder_holds_no_point_array_on_any_segment():
    # level 8 at depth 8 is three segments: the peak is three words per sample, an argsort order
    # and one depth's counts (38.2 MiB), with no (samples, 2) array of points or np.unique
    # re-rank (111.6 MiB), nor every depth's counts (52.3 MiB)
    tracemalloc.start()
    try:
        read = _orbit_codes(make_map("cat"), Partition(level=8), 8, 10**6, np.random.default_rng(7), range(4, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(read) == [4, 5, 6, 7, 8]
    assert peak < 42 * 2**20, peak / 2**20


@pytest.mark.parametrize("level", [0, -1, 32, 33, True, 4.0, "4", None])
def test_partition_rejects_a_level_its_labels_cannot_hold(level):
    with pytest.raises(ConfigError, match=f"partition level .*got {re.escape(repr(level))}$"):
        Partition(level=level)


def test_partition_accepts_every_level_its_labels_hold():
    assert Partition(level=31).labels([[0.9999999999, 0.5]]) == [(2**31 - 1) * 2**31 + 2**30]
    assert Partition(level=1).cell_count == 4


class _PointMap:
    """Sends every point to (0.3, 0.3), counting its calls."""

    calls = 0

    def apply(self, points):
        self.calls += 1
        return np.full_like(points, 0.3)


def test_orbit_coder_rejects_a_later_segment_with_no_room_beside_the_rank():
    # level 26 codes one 52-bit step per word; 10^4 samples need a 14-bit rank, so a second step
    # fits nowhere, and coding it beside the rank wrapped 10^4 distinct depth-2 codes to 4096
    map_ = _PointMap()
    with pytest.raises(ConfigError, match=r"^partition level 26 cannot code n = 2 steps of 10000 samples: "):
        _orbit_codes(map_, Partition(level=26), 2, 10**4, np.random.default_rng(7), [1, 2])
    assert map_.calls == 0  # raised before any coding
    # one step needs no later segment, and level 25 leaves a step of room beside the rank
    assert _orbit_codes(map_, Partition(level=26), 1, 10**4, np.random.default_rng(7), [1])[1][1] == 10**4
    read = _orbit_codes(map_, Partition(level=25), 2, 10**4, np.random.default_rng(7), [1, 2])
    assert read[1][1] == read[2][1] == 10**4


def test_deepest_depth_is_read_in_place_as_group_counts_reads_it():
    rng = np.random.default_rng(3)
    codes = np.sort(rng.integers(0, STRADDLE // 3, STRADDLE, dtype=np.uint64) << np.uint64(40))
    change = diagnostics._neighbour_xor(codes)
    expected = diagnostics._group_counts(change, 0)
    counts = diagnostics._group_counts_in_place(change)
    assert counts.dtype == np.int64 and np.shares_memory(counts, change)
    assert np.array_equal(counts, expected)


@pytest.mark.parametrize("length", [1, workers._PIECE_ROWS, STRADDLE])
def test_plugin_entropy_in_place_is_bitwise_that_of_full_temporaries(length):
    counts = np.random.default_rng(length).integers(1, 50, length)
    samples = int(counts.sum())
    p = counts / samples
    assert _plugin_entropy(counts.copy(), samples) == float(-np.sum(p * np.log(p)))


def test_group_counts_read_every_depth_off_one_xor():
    # sorted codes with repeats agree with np.unique per shift
    codes = np.sort(np.random.default_rng(0).integers(0, 2**12, 5000, dtype=np.uint64) << np.uint64(50))
    change = diagnostics._neighbour_xor(codes.copy())
    for shift in (0, 50, 54, 61, 63):
        _, expected = np.unique(codes >> np.uint64(shift), return_counts=True)
        assert np.array_equal(diagnostics._group_counts(change, shift), expected), shift


def test_entropy_rate_monotone_in_n():
    part = Partition(level=2)
    est4, bias4, _ = entropy_rate(make_map("cat"), part, 4, 400_000, seed=4)
    est8, bias8, _ = entropy_rate(make_map("cat"), part, 8, 400_000, seed=4)
    assert est8 <= est4 + bias4 + bias8 + 1e-9


# --- nu log bound ----------------------------------------------------------


def test_nu_log_bound_identity():
    assert nu_log_bound(IdentityMap(), Partition(level=3), 16, seed=0) == 0.0


def test_nu_log_bound_grid_aligned_translation():
    # constant field translating by exactly one cell width maps cube onto cube
    field = make_field(VelocityFieldSpec(kind="constant", amplitude=2**-4))
    mapping = TimeOneFlowMap(field)
    assert nu_log_bound(mapping, Partition(level=4), 16, seed=1) == 0.0


def test_nu_log_bound_dominates_entropy_rate_for_cat():
    est, bias, _ = entropy_rate(make_map("cat"), Partition(level=5), 6, 600_000, seed=5)
    nu = nu_log_bound(make_map("cat"), Partition(level=5), 64, seed=6)
    assert nu >= est - 2.0 * bias


def _nu_log_bound_per_cell_unique(map_, partition, probes_per_cell, seed):
    """nu_log_bound with one np.unique per cell (the oracle of the row-wise sort)."""
    rng = np.random.default_rng(seed)
    side = 2**partition.level
    cells = partition.cell_count
    corners_x = np.repeat(np.arange(side), side) / side
    corners_y = np.tile(np.arange(side), side) / side
    offsets = rng.random((cells, probes_per_cell, 2)) / side
    probes = np.stack(
        [corners_x[:, None] + offsets[..., 0], corners_y[:, None] + offsets[..., 1]], axis=-1
    )
    images = map_.apply(probes.reshape(-1, 2)).reshape(cells, probes_per_cell, 2)
    image_labels = partition.labels(images)
    total = 0.0
    for cell in range(cells):
        total += np.log(len(np.unique(image_labels[cell])))
    return float(total / cells)


# level 7 has 16,384 cells, two row pieces, so the probe stream crosses a piece boundary
@pytest.mark.parametrize(
    "kind, level, probes", [("cat", 4, 64), ("cat", 5, 16), ("baker", 3, 100), ("cat", 7, 16)]
)
def test_nu_log_bound_matches_per_cell_unique(kind, level, probes):
    partition = Partition(level=level)
    fast = nu_log_bound(make_map(kind), partition, probes, seed=9)
    assert fast == _nu_log_bound_per_cell_unique(make_map(kind), partition, probes, seed=9)


def test_nu_log_bound_holds_one_piece_of_probes():
    # 16,384 cells of 64 probes: the whole probe, image and label arrays peak at 89 MiB, one
    # piece's at 37 MiB
    tracemalloc.start()
    try:
        value = nu_log_bound(make_map("cat"), Partition(level=7), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert peak < 48 * 2**20, peak / 2**20


def test_nu_log_bound_validation():
    with pytest.raises(ConfigError):
        nu_log_bound(IdentityMap(), Partition(level=2), probes_per_cell=4, seed=0)


# --- maximal ergodic function ----------------------------------------------


def test_maximal_ergodic_constant_function():
    value = maximal_ergodic(make_map("cat"), lambda p: np.full(p.shape[:-1], 0.7), np.array([0.3, 0.4]), 32)
    assert value == pytest.approx(0.7, rel=1e-12)


def test_maximal_ergodic_identity_map():
    g = lambda p: np.abs(np.sin(2 * np.pi * p[..., 0]))
    x = np.array([0.2, 0.9])
    assert maximal_ergodic(IdentityMap(), g, x, 16) == pytest.approx(float(g(x)), rel=1e-12)


def test_maximal_ergodic_weak_l1_tail():
    # indicator of the quarter square: ||g||_1 = 1/4; empirical tails must
    # respect mu(g* > lam) <= 1/(4 lam)
    def g(points):
        return ((points[..., 0] < 0.5) & (points[..., 1] < 0.5)).astype(float)

    rng = np.random.default_rng(8)
    pts = rng.random((10_000, 2))
    star = maximal_ergodic(make_map("cat"), g, pts, 64)
    for lam in (0.3, 0.5, 0.8):
        assert np.mean(star > lam) <= 0.25 / lam


def test_maximal_ergodic_validation():
    with pytest.raises(ErgomixError):
        maximal_ergodic(IdentityMap(), lambda p: np.zeros(p.shape[:-1]), np.array([0.1, 0.1]), 0)
