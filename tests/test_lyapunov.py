import math

import numpy as np
import pytest

from ergomix.errors import DegenerateCocycleError, ErgomixError, SingularInputError
from ergomix.fields import VelocityField
from ergomix.lyapunov import (
    DegenerateSpectrumWarning,
    _batch_spectrum,
    ensemble_spectrum,
    finite_time_spectrum,
    oseledets_filtration,
    top_exponent_bound_gap,
)
from ergomix.maps import MeasurePreservingMap, TimeOneFlowMap, make_map

CAT_LAMBDA = math.log((3.0 + math.sqrt(5.0)) / 2.0)


class IdentityMap(MeasurePreservingMap):
    kind = "identity"

    def apply(self, points):
        return np.asarray(points, dtype=float)

    def jacobian(self, points):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(np.eye(2), points.shape[:-1] + (2, 2)).copy()

    def inverse(self, points):
        return np.asarray(points, dtype=float)


class SequenceCocycle(MeasurePreservingMap):
    """Fake map feeding a prescribed matrix sequence (for oracle tests)."""

    kind = "sequence"

    def __init__(self, matrices):
        self.matrices = list(matrices)
        self.step = 0

    def apply(self, points):
        return np.asarray(points, dtype=float)

    def jacobian(self, points):
        points = np.asarray(points, dtype=float)
        mat = self.matrices[self.step]
        self.step += 1
        return np.broadcast_to(mat, points.shape[:-1] + (2, 2)).copy()

    def inverse(self, points):
        return np.asarray(points, dtype=float)


def test_identity_map_zero_exponents():
    exps = finite_time_spectrum(IdentityMap(), np.array([0.4, 0.9]), 12)
    assert np.array_equal(exps, [0.0, 0.0])


def test_cat_map_ground_truth():
    exps = finite_time_spectrum(make_map("cat"), np.array([0.2, 0.7]), 30)
    assert abs(exps[0] - CAT_LAMBDA) <= 1e-9
    assert abs(exps[1] + CAT_LAMBDA) <= 1e-9


def test_baker_map_ground_truth():
    exps = finite_time_spectrum(make_map("baker"), np.array([0.231, 0.717]), 20)
    assert abs(exps[0] - math.log(2.0)) <= 1e-9
    assert abs(exps[1] + math.log(2.0)) <= 1e-9


def test_product_matches_brute_force_product_svd():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        mats = rng.normal(size=(n, 2, 2)) + np.eye(2)
        cocycle = SequenceCocycle(mats)
        exps = finite_time_spectrum(cocycle, np.array([0.5, 0.5]), n)
        product = np.eye(2)
        for mat in mats:
            product = mat @ product
        sv = np.linalg.svd(product, compute_uv=False)
        expected = np.log(sv) / n
        assert np.max(np.abs(exps - expected)) < 1e-10


# the first three are positive, so their products never cancel; the fourth brings in signs
SL2Z_GENERATORS = [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 1], [1, 1]], [[1, -1], [0, 1]]]


def _exact_exponents(matrices):
    """(1/n) log of the product's singular values, and its largest entry, in Python ints."""
    (a, b), (c, d) = ((1, 0), (0, 1))
    for (p, q), (r, s) in matrices:
        (a, b), (c, d) = (p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d)
    frobenius, det = a * a + b * b + c * c + d * d, a * d - b * c
    # sigma_1^2 is the larger root of x^2 - frobenius x + det^2
    log_s1 = 0.5 * math.log((frobenius + math.isqrt(frobenius * frobenius - 4 * det * det)) // 2)
    exponents = [log_s1 / len(matrices), (math.log(abs(det)) - log_s1) / len(matrices)]
    return exponents, max(abs(a), abs(b), abs(c), abs(d))


@pytest.mark.parametrize("generators", [3, 4])
@pytest.mark.parametrize("length, cat_steps", [(600, 0), (700, 0), (1000, 800)])
def test_long_sl2z_products_match_the_exact_integer_oracle(length, cat_steps, generators):
    rng = np.random.default_rng(length)
    matrices = [SL2Z_GENERATORS[i] for i in rng.integers(0, generators, size=length)]
    for i in rng.choice(length, size=cat_steps, replace=False):
        matrices[i] = SL2Z_GENERATORS[2]
    expected, largest_entry = _exact_exponents(matrices)
    if cat_steps:
        assert largest_entry > 10**308  # the exact product has no float64 form
    exps = finite_time_spectrum(SequenceCocycle(np.array(matrices, dtype=float)), np.array([0.5, 0.5]), length)
    assert np.max(np.abs(exps - expected)) <= 1e-13


def test_cat_map_at_n_1000_is_exact_to_rounding():
    exps = finite_time_spectrum(make_map("cat"), np.array([0.2, 0.7]), 1000)
    assert np.max(np.abs(exps - [CAT_LAMBDA, -CAT_LAMBDA])) <= 1e-15


@pytest.mark.parametrize(
    "matrices",
    [[[[2, 1], [1, 1]], [[1, 2], [2, 4]], [[1, 0], [3, 1]]], [[[0.1, 0.3], [0.2, 0.6]]]],
)
def test_a_singular_step_raises_degenerate_cocycle(matrices):
    with pytest.raises(DegenerateCocycleError):
        finite_time_spectrum(SequenceCocycle(np.array(matrices, dtype=float)), np.array([0.5, 0.5]), len(matrices))


def test_exponent_sum_telescopes_determinant():
    rng = np.random.default_rng(13)
    mats = rng.normal(size=(6, 2, 2)) + 2 * np.eye(2)
    cocycle = SequenceCocycle(mats)
    exps = finite_time_spectrum(cocycle, np.array([0.5, 0.5]), 6)
    logdet = np.sum(np.log(np.abs(np.linalg.det(mats))))
    assert abs(np.sum(exps) - logdet / 6) < 1e-10


def test_constant_cocycle_invariant_across_start():
    report = ensemble_spectrum(make_map("cat"), 100, 25, seed=21)
    assert float(np.var(report.per_sample_exponents[:, 0])) < 1e-12
    report = ensemble_spectrum(make_map("baker"), 100, 25, seed=22)
    assert float(np.var(report.per_sample_exponents[:, 0])) < 1e-12


def test_ensemble_zero_field():
    mapping = TimeOneFlowMap(VelocityField(kind="zero"))
    report = ensemble_spectrum(mapping, 50, 5, seed=1)
    assert report.lambda_max_integral == 0.0
    assert np.all(report.mean_exponents == 0.0)


def test_ensemble_cat_statistics():
    report = ensemble_spectrum(make_map("cat"), 100, 30, seed=2)
    assert abs(report.lambda_max_integral - CAT_LAMBDA) <= 1e-9
    assert abs(report.sum_positive - CAT_LAMBDA) <= 1e-9
    assert float(report.stderr[0]) <= 1e-12
    assert report.sample_count == 100


def test_ensemble_steady_shear_sublinear():
    mapping = TimeOneFlowMap(VelocityField(kind="steady_shear", amplitude=1.0))
    report = ensemble_spectrum(mapping, 400, 200, seed=3)
    assert 0.0 < report.lambda_max_integral <= 0.05


def test_ensemble_report_json_fields():
    report = ensemble_spectrum(make_map("cat"), 10, 5, seed=4)
    payload = report.to_json_dict()
    assert set(payload) == {
        "n",
        "sample_count",
        "per_sample_exponents",
        "mean_exponents",
        "lambda_max_integral",
        "sum_positive",
        "stderr",
        "skipped_samples",
    }
    assert payload["skipped_samples"] == 0


def test_subadditive_trend_in_n():
    # mean (1/n) log |W_n| is non-increasing along n up to Monte Carlo slack
    field = VelocityField(kind="alternating_shear", amplitude=0.95, phases=(0.13, 0.41))
    mapping = TimeOneFlowMap(field)
    stats = {}
    for n in (25, 50, 100, 200):
        report = ensemble_spectrum(mapping, 200, n, seed=5)
        stats[n] = (report.lambda_max_integral, float(report.stderr[0]))
    for n in (25, 50, 100):
        mean_n, err_n = stats[n]
        mean_2n, err_2n = stats[2 * n]
        assert mean_2n <= mean_n + 3.0 * (err_n + err_2n)


def test_oseledets_cat_unstable_direction():
    result = oseledets_filtration(make_map("cat"), np.array([0.2, 0.7]), 30)
    direction = np.array([1.0, (math.sqrt(5.0) - 1.0) / 2.0])
    direction /= np.linalg.norm(direction)
    angle = math.acos(min(1.0, abs(float(np.dot(result.subspaces[0], direction)))))
    assert angle <= 1e-6
    assert result.exponents[0] == pytest.approx(CAT_LAMBDA, abs=1e-9)


def test_oseledets_identity_warns_degenerate():
    with pytest.warns(DegenerateSpectrumWarning):
        result = oseledets_filtration(IdentityMap(), np.array([0.3, 0.3]), 5)
    assert np.allclose(result.exponents, 0.0)


def test_oseledets_baker_axes():
    result = oseledets_filtration(make_map("baker"), np.array([0.231, 0.717]), 16)
    assert abs(abs(float(result.subspaces[0][0])) - 1.0) < 1e-12
    assert abs(abs(float(result.subspaces[1][1])) - 1.0) < 1e-12


def test_top_exponent_bound_gap_zero_field():
    field = VelocityField(kind="zero")
    mapping = TimeOneFlowMap(field)
    report = ensemble_spectrum(mapping, 20, 5, seed=6)
    assert top_exponent_bound_gap(field, report) == 0.0


def test_top_exponent_bound_gap_steady_shear():
    field = VelocityField(kind="steady_shear", amplitude=1.0)
    mapping = TimeOneFlowMap(field)
    report = ensemble_spectrum(mapping, 200, 200, seed=7)
    gap = top_exponent_bound_gap(field, report)
    assert gap == pytest.approx(4.0 - report.lambda_max_integral, abs=1e-6)
    assert gap > 3.9


def test_top_exponent_bound_gap_alternating():
    field = VelocityField(kind="alternating_shear", amplitude=1.0)
    mapping = TimeOneFlowMap(field)
    report = ensemble_spectrum(mapping, 300, 60, seed=8)
    gap = top_exponent_bound_gap(field, report)
    assert report.lambda_max_integral > 0.5
    assert gap >= -3.0 * float(report.stderr[0])


def test_skip_counting_errors_when_excessive():
    class MostlySingular(MeasurePreservingMap):
        kind = "stub"

        def apply(self, points):
            return np.asarray(points, dtype=float)

        def jacobian(self, points):
            points = np.asarray(points, dtype=float)
            return np.broadcast_to(np.eye(2), points.shape[:-1] + (2, 2)).copy()

        def inverse(self, points):
            return np.asarray(points, dtype=float)

        def singular_mask(self, points):
            points = np.asarray(points, dtype=float)
            return points[..., 0] < 0.05

    with pytest.raises(ErgomixError):
        ensemble_spectrum(MostlySingular(), 1000, 3, seed=9)


def test_skipped_samples_are_reported():
    class RarelySingular(IdentityMap):
        def singular_mask(self, points):
            return np.asarray(points, dtype=float)[..., 0] < 0.005

    report = ensemble_spectrum(RarelySingular(), 1000, 3, seed=9)
    assert 0 < report.skipped_samples <= 10
    assert report.to_json_dict()["skipped_samples"] == report.skipped_samples
    assert len(report.per_sample_exponents) == 1000 - report.skipped_samples


def test_invalid_n_rejected():
    with pytest.raises(ErgomixError):
        finite_time_spectrum(make_map("cat"), np.array([0.1, 0.1]), 0)


def test_ensemble_rejects_n_below_one():
    with pytest.raises(ErgomixError, match="n must be >= 1"):
        ensemble_spectrum(make_map("cat"), 10, 0, 3)


class LeftEdgeSingularFlow(TimeOneFlowMap):
    """Time-one map of the mixing field with a thin singular strip x < 0.002."""

    def singular_mask(self, points):
        return np.asarray(points, dtype=float)[..., 0] < 0.002


def test_orbits_dying_mid_run_are_dropped_from_the_cocycle():
    field = VelocityField(kind="alternating_shear", amplitude=0.95, phases=(0.13, 0.41))
    mapping = LeftEdgeSingularFlow(field)
    points = np.random.default_rng(10).random((2000, 2))
    n = 12
    exps, alive, _ = _batch_spectrum(mapping, points, n)

    expected = np.ones(len(points), dtype=bool)
    death_step = np.full(len(points), -1)
    current = points
    for step in range(n):
        hit = mapping.singular_mask(current) & expected
        death_step[hit] = step
        expected &= ~hit
        current = mapping.apply(current)
    assert np.array_equal(alive, expected)
    assert np.count_nonzero(death_step > 0) > 0, "no orbit died after its first iterate"

    survivors, survivors_alive, _ = _batch_spectrum(mapping, points[alive], n)
    assert survivors_alive.all()
    assert np.array_equal(exps, survivors)


@pytest.mark.parametrize("spectrum", [finite_time_spectrum, oseledets_filtration])
def test_singular_single_orbit_raises_singular_input(spectrum):
    with pytest.raises(SingularInputError):
        spectrum(make_map("baker"), np.array([0.5, 0.3]), 8)
