"""Finite-time Lyapunov spectra from Jacobian cocycles.

The n-fold Jacobian product is formed step by step and rescaled after each
step by an exact power of two, with the powers counted as integers, so it
stays representable for arbitrarily long orbits.  Exponents are (1/n) log of
its singular values: the top one in closed form, the bottom one from the
running sum of log|det J|, which the nearly rank-one product cannot give.
"""

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateCocycleError, ErgomixError, SingularInputError
from .fields import grad_l1_time_average
from .maps import MeasurePreservingMap
from .torus import uniform_points

DEGENERATE_GAP = 1e-6
MAX_SKIP_FRACTION = 0.01


class DegenerateSpectrumWarning(UserWarning):
    """Top finite-time exponents too close for a well-conditioned flag."""


@dataclass
class LyapunovReport:
    """Ensemble statistics of finite-time exponents (nats per iteration)."""

    n: int
    sample_count: int
    per_sample_exponents: np.ndarray  # (samples, 2), each row sorted descending
    mean_exponents: np.ndarray  # (2,)
    lambda_max_integral: float
    sum_positive: float
    stderr: np.ndarray  # (2,)
    skipped_samples: int = 0

    def sum_positive_stderr(self) -> float:
        per_sample = np.sum(np.maximum(self.per_sample_exponents, 0.0), axis=1)
        if len(per_sample) < 2:
            return 0.0
        return float(np.std(per_sample, ddof=1) / np.sqrt(len(per_sample)))

    def to_json_dict(self):
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(self).items()}


class _RescaledProduct:
    """Running cocycle product ``mantissa * 2**exponent``, with its log|det|."""

    def __init__(self, count):
        self.mantissa = np.broadcast_to(np.eye(2), (count, 2, 2)).copy()
        self.exponent = np.zeros(count, dtype=np.int64)
        self.log_det = np.zeros(count)

    def push(self, jacobians):
        """Multiply one step in on the left, then rescale by an exact power of two."""
        (a, b), (c, d) = jacobians.transpose(1, 2, 0)
        det = a * d - b * c
        if np.any(det == 0.0):
            raise DegenerateCocycleError("a cocycle step has determinant 0")
        self.log_det += np.log(np.abs(det))
        product = jacobians @ self.mantissa
        _, shift = np.frexp(np.max(np.abs(product), axis=(1, 2)))
        self.mantissa = np.ldexp(product, -shift[:, None, None])
        self.exponent += shift

    def keep(self, mask):
        """Drop the rows where ``mask`` is False."""
        self.mantissa = self.mantissa[mask]
        self.exponent = self.exponent[mask]
        self.log_det = self.log_det[mask]

    def log_singular_values(self):
        """Rows (log sigma_1, log sigma_2): sigma_1 in closed form, sigma_2 from the determinant."""
        (a, b), (c, d) = self.mantissa.transpose(1, 2, 0)
        sigma1 = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
        log_s1 = np.log(sigma1) + self.exponent * np.log(2.0)
        return np.stack([log_s1, self.log_det - log_s1], axis=1)

    def right_singular_vectors(self):
        """Rows = right singular vectors of the one orbit, by descending singular value."""
        return np.linalg.svd(self.mantissa[0])[2]


def _batch_spectrum(map_: MeasurePreservingMap, points, n):
    """(exponents, alive, product) of the orbits that avoid the singular set.

    ``alive`` is indexed by input row; an orbit is dropped at its first singular iterate.
    """
    if n < 1:
        raise ErgomixError(f"n must be >= 1, got {n}")
    current = np.atleast_2d(np.asarray(points, dtype=float))
    acc = _RescaledProduct(len(current))
    alive = np.ones(len(current), dtype=bool)
    for _ in range(n):
        hit = map_.singular_mask(current)
        if np.any(hit):
            alive[alive] = ~hit
            if not np.any(alive):
                raise SingularInputError("all samples hit the singular set")
            current = current[~hit]
            acc.keep(~hit)
        current, jacs = map_.apply_with_jacobian(current)
        acc.push(jacs)
    return acc.log_singular_values() / n, alive, acc


def _single_orbit(map_: MeasurePreservingMap, x, n):
    exps, _, acc = _batch_spectrum(map_, np.asarray(x, dtype=float).reshape(1, 2), n)
    return exps[0], acc


def finite_time_spectrum(map_: MeasurePreservingMap, x, n: int):
    """Sorted finite-time exponents (1/n) log chi_i of the n-fold product at x."""
    return _single_orbit(map_, x, n)[0]


def ensemble_spectrum(map_: MeasurePreservingMap, sample_count: int, n: int, seed: int) -> LyapunovReport:
    """Monte Carlo estimate of the exponent integrals over uniform seed points."""
    if sample_count < 1:
        raise ErgomixError(f"sample_count must be >= 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    points = uniform_points(rng, sample_count)
    kept, alive, _ = _batch_spectrum(map_, points, n)
    skipped = int(np.sum(~alive))
    if skipped > MAX_SKIP_FRACTION * sample_count:
        raise ErgomixError(
            f"{skipped} of {sample_count} samples hit the singular set (> {MAX_SKIP_FRACTION:.0%})"
        )
    mean = kept.mean(axis=0)
    if len(kept) > 1:
        stderr = kept.std(axis=0, ddof=1) / np.sqrt(len(kept))
    else:
        stderr = np.zeros(2)
    return LyapunovReport(
        n=n,
        sample_count=sample_count,
        per_sample_exponents=kept,
        mean_exponents=mean,
        lambda_max_integral=float(mean[0]),
        sum_positive=float(np.mean(np.sum(np.maximum(kept, 0.0), axis=1))),
        stderr=stderr,
        skipped_samples=skipped,
    )


@dataclass
class OseledetsResult:
    exponents: np.ndarray  # (2,) descending
    subspaces: list  # unit vectors ordered by descending exponent


def oseledets_filtration(map_: MeasurePreservingMap, x, n: int) -> OseledetsResult:
    """Finite-time singular vectors of the n-fold product (flag of the filtration)."""
    if n < 2:
        raise ErgomixError(f"n must be >= 2, got {n}")
    exps, acc = _single_orbit(map_, x, n)
    if abs(exps[0] - exps[1]) < DEGENERATE_GAP:
        warnings.warn(
            "top finite-time exponents within 1e-6; filtration is ill-conditioned",
            DegenerateSpectrumWarning,
        )
    vh = acc.right_singular_vectors()
    return OseledetsResult(exponents=exps, subspaces=[vh[0], vh[1]])


def top_exponent_bound_gap(field, report: LyapunovReport) -> float:
    """Gradient-average upper bound minus the sampled top-exponent integral."""
    return grad_l1_time_average(field) - report.lambda_max_integral
