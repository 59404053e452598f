"""Passive-scalar transport by exact backward characteristics.

The transported scalar is sampled as rho(t, x) = rho_in(X(0, t, x)): each
grid node is traced backward to time zero and the initial datum is evaluated
there in closed form.  No interpolation of rho ever happens, so the sup norm
is preserved exactly and two-valued data stay exactly two-valued.

Grids are node-centered at ((i + 1/2)/N, (j + 1/2)/N), which keeps nodes off
the discontinuity lines of the two-valued catalog data.

``scalar_series`` marches the feet one unit map at a time, in row pieces
that two threads claim: a helper thread starts on the march to time t+1
while the consumer diagnoses the grid of time t, and the consumer claims the
pieces left when it is done.  Each piece is advected and sampled by the same
elementwise operations whichever thread claims it, into rows no other piece
touches, so the grids are bitwise those of a serial march.
"""

import json
import os
import threading
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigError
from .fields import _is_number
from .flow import advect
from .workers import piece_bounds, run_chunked

# datum kind -> the one parameter it reads besides its kind
DATUM_PARAMETER = {"sinusoid": "wavevector", "checkerboard": "level", "stripe": "level"}
DATUM_KINDS = tuple(DATUM_PARAMETER)
MIN_RESOLUTION = 16
_SIGN_OF_PARITY = np.array([1.0, -1.0])  # a square wave's value by the parity of its half-period index


@dataclass(frozen=True)
class InitialDatum:
    """Catalog initial datum with exact norms, checked when built.

    sinusoid: sin(2 pi k.x) for an integer wavevector k != 0, (1, 0) by default.
    checkerboard level m: product of coordinate square waves, sign flips
    every 2^-m (values exactly +-1).
    stripe level m: square wave in x alone, sign flips every 2^-(m+1).
    Each square wave is +1 on [0, half period) and takes the value of the
    right side at every jump: its sign is the parity of the integer index
    floor(x / half period), summed over both coordinates for the checkerboard.

    A level is an int in [1, 12] for a checkerboard, [0, 12] for a stripe, 2 by
    default.  A kind rejects the parameter it does not read and stores it as
    (1, 0) or 0.  The norms are derived from the kind and its parameter.

    A grid resolves the datum with 4 nodes per half period along each axis
    (``coarsest_resolution``); a coarser one aliases it (a level-6
    checkerboard on 32^2 samples to the constant +1, with H^-1 exactly 0),
    so a run could only report a meaningless gate.
    """

    kind: str
    wavevector: tuple[int, ...] | None = None
    level: int | None = None
    sup_norm: float = dataclass_field(default=1.0, init=False)  # every catalog datum takes the values +-1
    l2_norm: float = dataclass_field(init=False)
    bv_seminorm: float = dataclass_field(init=False)

    def __post_init__(self):
        kind, wavevector, level = self.kind, self.wavevector, self.level
        if kind not in DATUM_PARAMETER:
            raise ConfigError(f"unknown datum kind {kind!r}; valid kinds: {', '.join(DATUM_KINDS)}")
        for name, value in (("wavevector", wavevector), ("level", level)):
            if value is not None and name != DATUM_PARAMETER[kind]:
                raise ConfigError(f"datum kind {kind} reads no {name}, only {DATUM_PARAMETER[kind]}")
        if kind == "sinusoid":
            wavevector = (1, 0) if wavevector is None else wavevector
            if not isinstance(wavevector, tuple):
                raise ConfigError(f"sinusoid wavevector must be a tuple, got {wavevector!r}")
            if any(isinstance(k, bool) or not isinstance(k, int) for k in wavevector):
                raise ConfigError(f"sinusoid wavevector must have integer components, got {wavevector}")
            if len(wavevector) != 2:
                raise ConfigError(f"sinusoid wavevector must have 2 components, got {len(wavevector)}")
            if all(k == 0 for k in wavevector):
                raise ConfigError("sinusoid wavevector must be nonzero (zero mode is not mean-free)")
            level, l2_norm, bv_seminorm = 0, 1.0 / np.sqrt(2.0), 4.0 * float(np.hypot(*wavevector))
        else:
            level = 2 if level is None else level
            if isinstance(level, bool) or not isinstance(level, int):
                raise ConfigError(f"{kind} level must be an integer, got {level!r}")
            lowest = 1 if kind == "checkerboard" else 0
            if not lowest <= level <= 12:
                raise ConfigError(f"{kind} level must lie in [{lowest}, 12], got {level}")
            wavevector, l2_norm, bv_seminorm = (1, 0), 1.0, 4.0 * 2**level
        stored = dict(wavevector=wavevector, level=level, l2_norm=l2_norm, bv_seminorm=bv_seminorm)
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    @property
    def _half_period_bits(self):
        """A square wave's half period is 2^-bits: level for a checkerboard, level + 1 for a stripe."""
        return self.level if self.kind == "checkerboard" else self.level + 1

    def coarsest_resolution(self):
        """The coarsest grid with 4 nodes per half period of the datum along each axis."""
        if self.kind == "sinusoid":
            return 8 * max(abs(k) for k in self.wavevector)
        return 2 ** (self._half_period_bits + 2)

    def evaluate(self, points):
        """Values at points of shape (..., 2), which must be finite, computed in row pieces."""
        points = np.asarray(points, dtype=float)
        values = np.empty(points.shape[:-1])
        run_chunked(self._values, points.reshape(-1, 2), (values.reshape(-1),))
        return values

    def _values(self, points):
        if self.kind == "sinusoid":
            kx, ky = self.wavevector
            return np.sin(2.0 * np.pi * (kx * points[:, 0] + ky * points[:, 1]))
        # scaling by a power of two is exact, so the half-period index is exact
        # at every jump and for negative coordinates
        scale = 2.0**self._half_period_bits
        if self.kind == "checkerboard":
            index = np.floor(points * scale).astype(np.int64)
            index = index[:, 0] + index[:, 1]
        else:  # stripe
            index = np.floor(points[:, 0] * scale).astype(np.int64)
        return _SIGN_OF_PARITY.take(index & 1)


@dataclass(frozen=True)
class GridField:
    """Scalar samples on the uniform node-centered N x N grid; read-only, use dataclasses.replace."""

    resolution: int
    values: np.ndarray  # (N, N), values[i, j] = rho((i+1/2)/N, (j+1/2)/N)
    time: float
    metadata: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        self.values.flags.writeable = False  # the diagnostics cache its transform by grid identity

    def mean(self) -> float:
        return float(np.mean(self.values))


def grid_nodes(resolution: int):
    """Node coordinates, shape (N, N, 2)."""
    centers = (np.arange(resolution) + 0.5) / resolution
    return np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1)


def _check_resolution(resolution):
    if resolution < MIN_RESOLUTION:
        raise ConfigError(f"grid resolution must be >= {MIN_RESOLUTION}, got {resolution}")


def sample_scalar(field, datum: InitialDatum, t: float, resolution: int) -> GridField:
    """Transported scalar at time t >= 0 on the N x N grid."""
    _check_resolution(resolution)
    if t < 0:
        raise ConfigError(f"time must be >= 0, got {t}")
    feet = grid_nodes(resolution)
    if t > 0:
        advect(field, feet, t, 0.0, field.rk4_steps(t), out=feet)
    return GridField(
        resolution=resolution,
        values=datum.evaluate(feet),
        time=float(t),
        metadata=_grid_meta(field, datum),
    )


def scalar_series(field, datum: InitialDatum, horizon: int, resolution: int):
    """Yield GridFields at integer times 0..horizon, marching one unit map ahead.

    The backward feet are marched incrementally, in place: by time periodicity
    the backward map over [k, k-1] equals the one over [1, 0], so the feet at
    time k are the unit backward map applied to the feet at time k-1.  Just
    before grid k is yielded, a ``_March`` to time k+1 starts on one helper
    thread; when the consumer asks for grid k+1 it claims the pieces still
    left, then joins the helper, and an error either thread raised is raised
    there.  No march starts after the last grid.  Closing the series early
    joins the helper and drops its result.
    """
    _check_resolution(resolution)
    feet = grid_nodes(resolution)
    meta = _grid_meta(field, datum)
    steps = field.rk4_steps(1.0)
    march = None
    try:
        for t in range(horizon + 1):
            values = datum.evaluate(feet) if march is None else march.finish()
            ready, values = [GridField(resolution, values, float(t), dict(meta))], None
            march = _March(field, datum, feet, steps) if t < horizon else None
            yield ready.pop()  # the series keeps no reference to a grid it has yielded
    finally:
        if march is not None:
            march.cancel()


class _March:
    """The unit backward map of the feet, in place, and the datum sampled on them, by row pieces.

    A thread claims one piece at a time, advects its feet through ``advect``
    and writes the datum on them into the same rows of the next grid's
    values.  The helper thread claims from the start; the consumer joins in
    ``finish``.  The first error of either thread is kept, and no piece is
    claimed after it.
    """

    def __init__(self, field, datum, feet, steps):
        self.field, self.datum, self.steps = field, datum, steps
        self.feet, self.values = feet.reshape(-1, 2), np.empty(feet.shape[:-1])
        self.pieces, self.error = [slice(*bounds) for bounds in piece_bounds(len(self.feet))], None
        self.lock = threading.Lock()
        self.helper = threading.Thread(target=self.run, name="ergomix-march")
        self.helper.start()

    def run(self):
        """Claim, advect and sample pieces until none is left or a thread has failed."""
        values = self.values.reshape(-1)
        while True:
            with self.lock:
                if not self.pieces or self.error is not None:
                    return
                piece = self.pieces.pop(0)
            feet = self.feet[piece]
            try:
                advect(self.field, feet, 1.0, 0.0, self.steps, out=feet)
                values[piece] = self.datum.evaluate(feet)
            except BaseException as exc:  # raised on the consumer's thread by finish
                with self.lock:
                    if self.error is None:
                        self.error = exc
                return

    def finish(self):
        """Run the pieces left on this thread, join the helper; the values, or the first error."""
        self.run()
        self.helper.join()
        if self.error is not None:
            raise self.error
        return self.values

    def cancel(self):
        """Leave the pieces not yet claimed and join the helper, dropping what it did."""
        with self.lock:
            self.pieces.clear()
        self.helper.join()


def _grid_meta(field, datum: InitialDatum):
    return {"datum": asdict(datum), "field": asdict(field)}


def save_grid(grid: GridField, stem: str):
    """Write <stem>.bin (row-major float64 little-endian) and <stem>.json."""
    values_path = stem + ".bin"
    sidecar_path = stem + ".json"
    grid.values.astype("<f8").tofile(values_path)
    sidecar = {
        "resolution": grid.resolution,
        "time": grid.time,
        "values_file": os.path.basename(values_path),
        "dtype": "<f8",
        "layout": "row-major",
        "metadata": grid.metadata,
    }
    with open(sidecar_path, "w") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True, allow_nan=False)
    return values_path, sidecar_path


def load_grid(path: str) -> GridField:
    """Load a grid saved by save_grid; accepts the stem, the .json sidecar or the .bin values path.

    Raises ConfigError when the sidecar is not JSON, lacks a required key,
    has a resolution that is not an integer >= MIN_RESOLUTION, names a dtype
    other than '<f8', has a time that is not a finite number, has a metadata
    or metadata.datum that is not an object or a datum sup_norm that is not a
    finite positive number, names a values_file other than a bare file name in
    its own directory, or when the values file does not hold 8 N^2 finite values.
    """
    if path.endswith(".json"):
        sidecar_path = path
    elif path.endswith(".bin"):
        sidecar_path = path[: -len(".bin")] + ".json"
    else:
        sidecar_path = path + ".json"
    try:
        with open(sidecar_path) as handle:
            sidecar = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable grid sidecar {sidecar_path}: {exc}")
    if not isinstance(sidecar, dict):
        raise ConfigError(f"grid sidecar {sidecar_path} is not a JSON object")
    for key in ("resolution", "values_file", "time"):
        if key not in sidecar:
            raise ConfigError(f"grid sidecar {sidecar_path} lacks the key {key!r}")
    n = sidecar["resolution"]
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= MIN_RESOLUTION):
        raise ConfigError(
            f"grid sidecar {sidecar_path}: resolution {n!r} is not an integer >= {MIN_RESOLUTION}"
        )
    if sidecar.get("dtype", "<f8") != "<f8":
        raise ConfigError(f"grid sidecar {sidecar_path}: dtype {sidecar['dtype']!r} is not '<f8'")
    if not (_is_number(sidecar["time"]) and abs(sidecar["time"]) < float("inf")):
        raise ConfigError(f"grid sidecar {sidecar_path}: time {sidecar['time']!r} is not a finite number")
    metadata = sidecar.get("metadata", {})
    datum = metadata.get("datum", {}) if isinstance(metadata, dict) else None
    if not isinstance(datum, dict):
        raise ConfigError(f"grid sidecar {sidecar_path}: metadata and metadata.datum must be objects")
    sup = datum.get("sup_norm", 1.0)
    if not (_is_number(sup) and 0.0 < sup < float("inf")):
        raise ConfigError(
            f"grid sidecar {sidecar_path}: metadata.datum.sup_norm {sup!r} is not a finite number > 0"
        )
    name = str(sidecar["values_file"])
    if name in ("", ".", "..") or name != os.path.basename(name):  # save_grid writes a bare file name
        raise ConfigError(f"grid sidecar {sidecar_path}: values_file {name!r} is not a file name beside it")
    values_path = os.path.join(os.path.dirname(sidecar_path), name)
    try:
        size = os.path.getsize(values_path)
    except OSError as exc:
        raise ConfigError(f"unreadable grid values {values_path}: {exc}")
    if size != 8 * n * n:
        raise ConfigError(f"grid values {values_path} hold {size} bytes, not 8 N^2 = {8 * n * n}")
    values = np.fromfile(values_path, dtype="<f8").reshape(n, n)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"grid values {values_path} are not all finite")
    return GridField(resolution=n, values=values, time=sidecar["time"], metadata=metadata)
