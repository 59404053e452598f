"""Finite-time Lyapunov spectra from Jacobian cocycles.

The n-fold Jacobian product is never formed directly.  Each iteration
re-orthonormalizes with a QR step (Gram-Schmidt with positive diagonal), and
the running upper-triangular factor is carried in log-scaled form
``[[e^a, e^a tau], [0, e^g]]``, which stays representable for arbitrarily
long products.  Exponents are (1/n) log of the exact singular values of that
factor, recovered by closed form; the product of an orthogonal matrix with
the triangular factor has the same singular values, so these are the singular
values of the full cocycle product.
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


class _TriangularAccumulator:
    """Log-scaled running product of the per-step QR triangular factors."""

    def __init__(self, count):
        self.q = np.broadcast_to(np.eye(2), (count, 2, 2)).copy()
        self.log_r11 = np.zeros(count)
        self.log_r22 = np.zeros(count)
        self.tau = np.zeros(count)

    def push(self, jacobians):
        """Absorb one QR re-orthonormalization step."""
        m = jacobians @ self.q
        col0, col1 = m[:, :, 0], m[:, :, 1]
        r11 = np.linalg.norm(col0, axis=1)
        if np.any(r11 == 0.0):
            raise DegenerateCocycleError("zero QR diagonal: cocycle factor is rank deficient")
        q1 = col0 / r11[:, None]
        r12 = np.sum(q1 * col1, axis=1)
        residual = col1 - r12[:, None] * q1
        r22 = np.linalg.norm(residual, axis=1)
        if np.any(r22 == 0.0):
            raise DegenerateCocycleError("zero QR diagonal: cocycle factor is rank deficient")
        self.tau = self.tau + (r12 / r11) * np.exp(self.log_r22 - self.log_r11)
        self.log_r11 = self.log_r11 + np.log(r11)
        self.log_r22 = self.log_r22 + np.log(r22)
        self.q = np.stack([q1, residual / r22[:, None]], axis=-1)

    def keep(self, mask):
        """Drop the rows where ``mask`` is False."""
        self.q = self.q[mask]
        self.log_r11 = self.log_r11[mask]
        self.log_r22 = self.log_r22[mask]
        self.tau = self.tau[mask]

    def log_singular_values(self):
        """Exact (log sigma_1, log sigma_2) of the accumulated triangular factor."""
        a2 = 2.0 * self.log_r11 + np.log1p(self.tau**2)
        g2 = 2.0 * self.log_r22
        top = np.maximum(a2, g2)
        f_hat = np.exp(a2 - top) + np.exp(g2 - top)
        det_hat2 = np.exp(2.0 * (self.log_r11 + self.log_r22) - 2.0 * top)
        s1_hat2 = 0.5 * (f_hat + np.sqrt(np.maximum(f_hat**2 - 4.0 * det_hat2, 0.0)))
        log_s1 = 0.5 * top + 0.5 * np.log(s1_hat2)
        log_s2 = (self.log_r11 + self.log_r22) - log_s1
        return log_s1, log_s2

    def right_singular_vectors(self):
        """Rows = right singular vectors of the one orbit, by descending singular value."""
        (a,), (g,), (t,) = self.log_r11, self.log_r22, self.tau
        scale = max(a + 0.5 * np.log1p(t * t), g)
        balanced = np.array(
            [[np.exp(a - scale), np.exp(a - scale) * t], [0.0, np.exp(g - scale)]]
        )
        _, _, vh = np.linalg.svd(balanced)
        return vh


def _batch_spectrum(map_: MeasurePreservingMap, points, n):
    """(exponents, alive, accumulator) of the orbits that avoid the singular set.

    ``alive`` is indexed by input row; an orbit is dropped at its first singular iterate.
    """
    current = np.atleast_2d(np.asarray(points, dtype=float))
    acc = _TriangularAccumulator(len(current))
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
    log_s1, log_s2 = acc.log_singular_values()
    return np.stack([log_s1, log_s2], axis=1) / n, alive, acc


def _single_orbit(map_: MeasurePreservingMap, x, n):
    exps, _, acc = _batch_spectrum(map_, np.asarray(x, dtype=float).reshape(1, 2), n)
    return exps[0], acc


def finite_time_spectrum(map_: MeasurePreservingMap, x, n: int):
    """Sorted finite-time exponents (1/n) log chi_i of the n-fold product at x."""
    if n < 1:
        raise ErgomixError(f"n must be >= 1, got {n}")
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
