"""Ergodic-theory diagnostics for incompressible flows on the torus."""

from .fields import FIELD_KINDS, VelocityField, grad_l1_time_average
from .flow import advect, advect_cocycle
from .maps import MAP_KINDS, BakerMap, CatMap, MeasurePreservingMap, TimeOneFlowMap, make_map
from .lyapunov import (
    LyapunovReport,
    OseledetsResult,
    ensemble_spectrum,
    finite_time_spectrum,
    oseledets_filtration,
    top_exponent_bound_gap,
)
from .scalar import DATUM_KINDS, GridField, InitialDatum, sample_scalar, scalar_series
from .diagnostics import (
    Partition,
    entropy_rate,
    h_minus_one,
    l2_norm,
    log_sobolev,
    maximal_ergodic,
    mixing_scale,
    nu_log_bound,
    partition_entropy,
)
from .harness import (
    fit_exponential_rate,
    run_mixing,
    run_regularity,
    run_ruelle,
)
from .config import Config, parse_config, render_config

__version__ = "0.1.0"
