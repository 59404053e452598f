"""Mixing and entropy diagnostics for grid scalars and torus maps.

Fourier convention: rho_hat(k) = integral of rho(x) exp(-2 pi i k.x) dx,
realized on the grid as fft2(values) / N^2.  The grid diagnostics read its
half, rfft2(values), and its modulus, taken once per grid visit into the
workspace that owns every array reused at a resolution.  Both norms weigh
its squares by a table fixed per resolution (Parseval), and the ball-kernel
spectra of the mixing scale are computed once per (N, radius).  The
homogeneous H^-1 norm is sqrt(sum over k != 0 of |k|^-2 |rho_hat(k)|^2);
with this convention sin(2 pi x) has norm 1/sqrt(2).
"""

import functools
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, ErgomixError, UndersampledError
from .scalar import GridField
from .torus import uniform_points
from .workers import piece_bounds, run_chunked

# Undersampling guard for plug-in entropies.  The plug-in bias is reported
# separately; below 1.5 samples per observed code the estimate is hopeless.
ENTROPY_GUARD_FACTOR = 1.5

LOG_SOBOLEV_OUTER_RADIUS = 0.2  # offsets integrate over the ball of radius 1/5
CERTIFICATE_REL, CERTIFICATE_ABS = 1e-9, 1e-12  # margins of the mixing-scale certificates

MIN_PROBES = 16  # fewest forward probes per cell nu_log_bound accepts


@dataclass(frozen=True)
class Partition:
    """Dyadic-cube partition of the torus: 4^level open cubes of side 2^-level, level in [1, 31]."""

    level: int

    def __post_init__(self):
        # the int64 labels hold 4^level cells only up to level 31
        if isinstance(self.level, bool) or not isinstance(self.level, int) or not 1 <= self.level <= 31:
            raise ConfigError(f"partition level must be an integer in [1, 31], got {self.level!r}")

    @property
    def cell_count(self) -> int:
        return 4**self.level

    def labels(self, points):
        """Index of the cube containing each point (row-major over axes)."""
        points = np.asarray(points, dtype=float)
        side = 2**self.level
        # modulo side: a coordinate that wrapped to exactly 1.0 is the point 0
        scaled = points * side
        cells = np.floor(scaled, out=scaled).astype(np.int64)
        cells &= side - 1
        return cells[..., 0] * side + cells[..., 1]


@functools.lru_cache(maxsize=2)
def _workspace(n):
    """Everything the grid diagnostics reuse at resolution N, shared by every grid.

    h_minus_one, log_sobolev: each norm's weight W, with 1/N^4 and the conjugate pairs folded in
    and W[0, 0] = 0, so that sum |rfft2(values)|^2 W over the half spectrum is its square.
    spectrum, modulus: rfft2(values) of the grid ``source`` refers to (weakly) and its modulus,
    taken once per grid visit (_transform); ball_averages writes spectrum x K_hat into product.
    averages: the one N x N scratch: the log-Sobolev kernel while the tables are built, each
    ball kernel while its table is built, mixing_scale's ball averages and l2_norm's squares.
    balls: radius -> _ball table, one per radius asked for: at most len(scan_radii(N)) from
    mixing_scale (14 at N = 512, all once a grid mixes down to two cells), plus one per other
    radius passed to ball_averages, until release_scratch().  One block, mapped apart from
    glibc's heap, holds the arrays; half reuses product's memory (never both live).  Only the
    consumer's thread of a grid series runs the diagnostics, never its march, so no lock.
    """
    shape, m = (n, n // 2 + 1), n * (n // 2 + 1)
    block = np.empty(7 * m + n * n)
    work = SimpleNamespace(
        h_minus_one=block[:m].reshape(shape),
        log_sobolev=block[m : 2 * m].reshape(shape),
        modulus=block[2 * m : 3 * m].reshape(shape),
        source=None,
        half=block[3 * m : 4 * m].reshape(shape),
        product=block[3 * m : 5 * m].view(complex).reshape(shape),
        spectrum=block[5 * m : 7 * m].view(complex).reshape(shape),
        averages=block[7 * m :].reshape(n, n),
        balls={},
    )
    kx, ky = np.fft.fftfreq(n, d=1.0 / n), np.fft.rfftfreq(n, d=1.0 / n)
    k2 = np.add(kx[:, None] ** 2, ky[None, :] ** 2, out=work.h_minus_one)
    np.divide(1.0 / n**4, k2, out=k2, where=k2 > 0.0)  # k2[0, 0] stays 0
    # mean_x |rho(x + h) - rho(x)|^2 = (2 / N^4) sum_k |rfft2 rho|^2 (1 - cos(2 pi k.h / N)), so against
    # the kernel K(h) = (2 / N^4) / |h|^2 (h in grid units) W = G(0) - Re G, with G = rfft2(K)
    reach = int(np.floor(LOG_SOBOLEV_OUTER_RADIUS * n))
    di, dj = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1), indexing="ij")
    keep = ((di * di + dj * dj) / n**2 <= LOG_SOBOLEV_OUTER_RADIUS**2) & ((di != 0) | (dj != 0))
    work.averages.fill(0.0)  # reach < N / 2, so no two offsets share a node
    work.averages[di[keep], dj[keep]] = (2.0 / n**4) / (di * di + dj * dj)[keep]
    g = np.fft.rfft2(work.averages, out=work.product).real
    np.subtract(g[0, 0], g, out=work.log_sobolev)
    for table in (work.h_minus_one, work.log_sobolev):
        table[0, 0] = 0.0
        table[:, 1 : (n + 1) // 2] *= 2.0
    return work


def release_scratch():
    """Free the per-resolution arrays and ball tables that the grid diagnostics reuse from grid to grid."""
    _workspace.cache_clear()


def _transform(grid: GridField):
    """The workspace, holding rfft2(values) of the grid and its modulus, taken once per grid visit."""
    work = _workspace(grid.resolution)
    if work.source is None or work.source() is not grid:
        np.fft.rfft2(grid.values, out=work.spectrum)
        np.abs(work.spectrum, out=work.modulus)
        work.source = weakref.ref(grid)
    return work


def _spectral_sum(grid: GridField, norm):
    """sum |rfft2(values)|^2 W over the half spectrum, W the weight table of the named norm."""
    work = _transform(grid)
    power = np.square(work.modulus, out=work.half)
    return float(np.sum(np.multiply(power, getattr(work, norm), out=power)))


def l2_norm(grid: GridField) -> float:
    """Root mean square of the grid values, squared into the workspace's scratch, so no grid is allocated."""
    return float(np.sqrt(np.mean(np.square(grid.values, out=_workspace(grid.resolution).averages))))


def h_minus_one(grid: GridField) -> float:
    """Homogeneous H^-1 norm of the grid scalar: the root of sum_k |rfft2(values)|^2 / (N^4 |k|^2)."""
    return float(np.sqrt(_spectral_sum(grid, "h_minus_one")))


def h_minus_one_floor(resolution: int) -> float:
    """H^-1 of grid-decorrelated data of unit L2 norm: sqrt(sum over k != 0 of |k|^-2) / N.

    The H^-1 weight table sums to that of 1/(N^4 |k|^2) over the full spectrum, so
    the floor is N sqrt(sum W).  A series that comes near it resolves no finer mixing.
    """
    return float(resolution * np.sqrt(np.sum(_workspace(resolution).h_minus_one)))


def log_sobolev(grid: GridField) -> float:
    """Squared homogeneous log-Sobolev norm, exact on the grid.

    The double Riemann sum over nodes x and lattice offsets 0 < |h| <= 1/5 of
    |rho(x + h) - rho(x)|^2 / |h|^2 (log_sobolev_brute_force), taken by Parseval
    as sum |rfft2(values)|^2 W over the half spectrum, W fixed per resolution.
    """
    return _spectral_sum(grid, "log_sobolev")


def log_sobolev_brute_force(grid: GridField) -> float:
    """Full O(N^4) double Riemann sum of the same functional (oracle-grade)."""
    n = grid.resolution
    values = grid.values
    reach = int(np.floor(LOG_SOBOLEV_OUTER_RADIUS * n))
    total = 0.0
    for di in range(-reach, reach + 1):
        for dj in range(-reach, reach + 1):
            if di == 0 and dj == 0:
                continue
            dist2 = (di * di + dj * dj) / n**2
            if dist2 > LOG_SOBOLEV_OUTER_RADIUS**2:
                continue
            shifted = np.roll(values, (-di, -dj), axis=(0, 1))
            total += np.mean((shifted - values) ** 2) / dist2 / n**2
    return float(total)


def _ball_kernel(resolution, radius):
    """The dense 0/1 kernel of the discrete ball of radius: the oracle of _ball_nodes and _ball."""
    k = np.arange(resolution)
    offsets = ((k + resolution // 2) % resolution - resolution // 2) / resolution
    dist2 = offsets[:, None] ** 2 + offsets[None, :] ** 2
    return (dist2 <= radius**2).astype(float)


def _ball_nodes(resolution, radius):
    """Row-major rows and columns, modulo N, of the nodes of the discrete ball of radius.

    A node is in the ball when o_i^2 + o_j^2 <= radius^2, o the signed offset / N, the float test
    of _ball_kernel; it is made one row vector at a time over the rows the ball reaches, so no
    N x N array is made.  Both arrays are in the smallest unsigned type that holds N - 1.
    """
    k = np.arange(resolution)
    squares = (((k + resolution // 2) % resolution - resolution // 2) / resolution) ** 2
    limit, dtype = radius**2, np.min_scalar_type(resolution - 1)
    # squares[0] = 0 and a float sum of non-negatives is no less than either term, so the rows the
    # ball reaches, and the columns it can reach, are those whose own square passes the test
    reached = np.flatnonzero(squares <= limit)
    within, candidates = squares[reached], reached.astype(dtype)
    cols = [candidates[squares[i] + within <= limit] for i in reached]
    return np.repeat(candidates, [len(c) for c in cols]), np.concatenate(cols)


def _ball(work, radius):
    """The table of the discrete ball of radius at the workspace's resolution, built on first use.

    spectrum: rfft2 of the kernel, read-only; the kernel is even, so the table keeps the real
    part and drops imaginary roundoff.  count: the node count.  offsets: _ball_nodes, taken
    when the fail certificate reads them.
    """
    ball = work.balls.get(radius)
    if ball is None:
        rows, cols = _ball_nodes(len(work.averages), radius)
        # the kernel is scattered into the scratch and transformed into product: no grid is allocated
        kernel = work.averages
        kernel.fill(0.0)
        kernel[rows, cols] = 1.0
        spectrum = np.fft.rfft2(kernel, out=work.product).real.copy()
        spectrum.flags.writeable = False
        ball = work.balls[radius] = SimpleNamespace(spectrum=spectrum, count=len(rows), offsets=None)
    return ball


def ball_averages(grid: GridField, radius: float, out=None):
    """Average of the scalar over the discrete ball of each grid node."""
    work = _transform(grid)
    ball = _ball(work, radius)
    product = np.multiply(work.spectrum, ball.spectrum, out=work.product)
    out = np.empty(grid.values.shape) if out is None else out
    np.fft.ifft(product, axis=0, out=product)  # irfft2 in its two passes, with no array allocated
    return np.divide(np.fft.irfft(product, n=out.shape[1], axis=1, out=out), ball.count, out=out)


def scan_radii(resolution: int) -> tuple:
    """Dyadic scan radii from two grid cells up to 0.4, ascending."""
    radii = []
    r = 0.4
    while r >= 2.0 / resolution:
        radii.append(r)
        r /= 2.0 ** 0.5
    return tuple(sorted(radii))


def check_kappa(kappa):
    """Raise ConfigError unless the mixing threshold kappa lies in the open range (0, 1)."""
    if not 0.0 < kappa < 1.0:
        raise ConfigError(f"kappa must lie in (0.0, 1.0), got {kappa}")


def mixing_scale(grid: GridField, kappa: float) -> float:
    """Smallest scan radius above which all ball averages are kappa-small.

    Scans scan_radii(grid.resolution) (two grid cells up to 0.4) downward;
    the largest radius if some ball average exceeds kappa * sup_norm there,
    the smallest if none does at any radius.  A radius passes when the bound
    sum |rho_hat| |K_hat| / (count N^2) over the full spectrum is below the
    threshold by CERTIFICATE_REL relative plus CERTIFICATE_ABS, far above
    roundoff; it fails when the direct ball sum at the node where the last
    transformed radius peaked is above it by that margin; else ball_averages.
    """
    check_kappa(kappa)
    n = grid.resolution
    radii = scan_radii(n)
    sup = grid.metadata.get("datum", {}).get("sup_norm")
    if sup is None:
        sup = float(np.max(np.abs(grid.values)))
    threshold = kappa * sup
    work = _transform(grid)
    peak = None  # (row, column) where the last transformed radius peaked
    for i in range(len(radii) - 1, -1, -1):
        ball = _ball(work, radii[i])
        weights = np.abs(ball.spectrum, out=work.half)
        weights[:, 1 : (n + 1) // 2] *= 2.0  # the conjugate pairs: doubling is exact on either factor
        bound = np.sum(np.multiply(work.modulus, weights, out=weights))
        if (bound / (ball.count * n**2)) * (1.0 + CERTIFICATE_REL) + CERTIFICATE_ABS <= threshold:
            continue
        if peak is not None:
            if ball.offsets is None:
                ball.offsets = _ball_nodes(n, radii[i])
            # an offset plus the peak's index is at most 2N - 2, so the sums fit that width and
            # cannot wrap; reduced modulo N in place, they index the same nodes in the same order
            wide = np.min_scalar_type(2 * n - 2)
            rows, cols = (np.add(offsets, at, dtype=wide) for offsets, at in zip(ball.offsets, peak))
            rows %= n
            cols %= n
            direct = abs(grid.values[rows, cols].sum()) / ball.count
            if direct > threshold * (1.0 + CERTIFICATE_REL) + CERTIFICATE_ABS:
                break
        averages = ball_averages(grid, radii[i], out=work.averages)
        high, low = averages.argmax(), averages.argmin()
        node = high if averages.flat[high] >= -averages.flat[low] else low
        if abs(averages.flat[node]) > threshold:
            break
        peak = divmod(int(node), n)
    else:
        return radii[0]
    return radii[min(i + 1, len(radii) - 1)]


def partition_entropy(weights) -> float:
    """Shannon entropy -sum w log w with the 0 log 0 = 0 convention."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ErgomixError("partition weights must be non-negative")
    total = weights.sum()
    if abs(total - 1.0) > 1e-9:
        raise ErgomixError(f"partition weights must sum to 1, got {total}")
    positive = weights[weights > 0]
    return float(-np.sum(positive * np.log(positive)))


def _neighbour_xor(values):
    """Overwrite sorted values, in place, with each one XOR the one before it; the first gets all bits set.

    A group of equal values >> shift then starts at each row whose result is >= 2^shift.  The
    pieces are walked from the end, so each reads its predecessor's last value before that
    piece is overwritten, and numpy copies at most one piece for the overlap.
    """
    for a, b in reversed(piece_bounds(len(values))):
        a = max(a, 1)
        np.bitwise_xor(values[a:b], values[a - 1 : b - 1], out=values[a:b])
    values[0] = ~np.uint64(0)
    return values


def _group_counts(change, shift):
    """Sizes of the groups of equal value >> shift of a sorted array, in order, off its _neighbour_xor."""
    return _run_lengths(np.flatnonzero(change >= np.uint64(1 << shift)), len(change))


def _group_counts_in_place(change):
    """_group_counts(change, 0) written over change, which it consumes: an int64 view of its head."""
    starts, found = change.view(np.int64), 0
    for a, b in piece_bounds(len(change)):
        # a piece's starts are found (off a bool piece: faster) before they land at or before it
        piece = np.flatnonzero(change[a:b] != 0)
        np.add(piece, a, out=starts[found : found + len(piece)])
        found += len(piece)
    return _run_lengths(starts[:found], len(change))


def _run_lengths(starts, rows):
    # in place: the output trails the input, so numpy needs no overlap copy
    np.subtract(starts[1:], starts[:-1], out=starts[:-1])
    starts[-1] = rows - starts[-1]
    return starts


def _orbit_codes(map_, partition, n, sample_count, rng, depths):
    """Plug-in entropy and number of the distinct depth-d orbit codes for each d in depths.

    The steps are cut into segments, each coded as one uint64 word per orbit,
    2 * level bits per step with the first in the most significant bits: the
    first segment holds the steps that fit in 64 bits, a later one those that
    fit beside a dense rank of the sample (ConfigError if n needs one but none
    fits).  Each row piece draws its points and codes every segment while it
    is in cache; run_chunked visits the pieces in order, so the stream is that
    of one draw of the whole sample.
    Each word is then sorted (the last in place; an earlier one by an argsort
    whose order also gathers the later words) and replaced by its
    _neighbour_xor, from which its depths' counts are read; its running count
    of changes, the dense rank plus one, is packed above the next word, which
    keeps the lexicographic order.  Each depth's counts become its entropy as
    they are read; depth n's are read over the last word.  Memory: one uint64
    per sample per segment, an argsort order while a segment is ordered, and
    one shallower depth's counts.  Returns {depth: (entropy, codes)}.
    """
    step_bits = 2 * partition.level
    wanted = {int(d) for d in depths}
    rank_bits = sample_count.bit_length()
    later = (64 - rank_bits) // step_bits
    segments = [(1, min(n, 64 // step_bits))]
    if later < 1 and n > segments[0][1]:
        raise ConfigError(
            f"partition level {partition.level} cannot code n = {n} steps of {sample_count} samples: a step "
            f"past the first {segments[0][1]} needs {step_bits} bits beside the {rank_bits}-bit rank"
        )
    while segments[-1][1] < n:
        first = segments[-1][1] + 1
        segments.append((first, min(n, first - 1 + later)))

    def code_piece(rows):
        # every segment's word of the piece's orbits, from points drawn here
        points = uniform_points(rng, len(rows))
        words = []
        for first, last in segments:
            if first > 1:
                points = map_.apply(points)
            codes = partition.labels(points).view(np.uint64)
            for _ in range(first, last):
                points = map_.apply(points)
                codes <<= np.uint64(step_bits)
                codes |= partition.labels(points).view(np.uint64)
            words.append(codes)
        return tuple(words)

    words = [np.empty(sample_count, dtype=np.uint64) for _ in segments]
    run_chunked(code_piece, range(sample_count), words)
    read = {}
    for i, (first, last) in enumerate(segments):
        codes, words[i] = words[i], None
        if last < n:
            order = np.argsort(codes)
            codes = codes[order]
            for k in range(i + 1, len(segments)):
                words[k] = words[k][order]
            del order  # freed before the counts are made: peak RSS is what is live at once
        else:
            codes.sort()
        change = _neighbour_xor(codes)
        for depth in range(first, last + 1):
            if depth in wanted:
                shift = step_bits * (last - depth)
                counts = _group_counts(change, shift) if depth < n else _group_counts_in_place(change)
                read[depth] = _plugin_entropy(counts, sample_count), len(counts)
                del counts  # freed before the next depth's are made
        if last < n:
            ranks = np.cumsum(change != 0, dtype=np.uint64, out=change)
            ranks <<= np.uint64(step_bits * (segments[i + 1][1] - last))
            words[i + 1] |= ranks
    return read


def _plugin_entropy(counts, sample_count):
    """-sum p log p of p = counts / sample_count; p log p is written over the int64 counts, piece by piece.

    The values, their order and the pairwise sum are those of full-size temporaries, so it is bitwise theirs.
    """
    bounds, terms = piece_bounds(len(counts)), counts.view(np.float64)
    scratch = np.empty(max(b - a for a, b in bounds))
    for a, b in bounds:
        p = np.divide(counts[a:b], sample_count, out=scratch[: b - a])
        np.multiply(p, np.log(p, out=terms[a:b]), out=terms[a:b])
    return float(-np.sum(terms))


def entropy_rate(map_, partition: Partition, n: int, sample_count: int, seed: int):
    """Per-step entropy production of the map relative to the partition.

    Orbit segments are coded by the dyadic partition; the plug-in joint
    entropies H_j over the trailing depths j = ceil(n/2) .. n grow linearly
    once transients die out, and the fitted slope estimates the entropy rate.

    The orbits are coded and counted by _orbit_codes, one uint64 word per
    segment of steps, each sorted once; no run holds the sample's points, and
    memory is one word per sample per segment plus one depth's counts.

    Returns (estimate, plug-in bias bound, number of distinct depth-n codes);
    raises UndersampledError when the sample barely covers the observed
    codebook.
    """
    if n < 1:
        raise ErgomixError(f"n must be >= 1, got {n}")
    if sample_count < 1:
        raise ErgomixError(f"sample_count must be >= 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    start = (n + 1) // 2
    depths = np.arange(start, n + 1)
    read = _orbit_codes(map_, partition, n, sample_count, rng, depths)
    codes_full = read[n][1]
    required = int(np.ceil(ENTROPY_GUARD_FACTOR * codes_full))
    if sample_count < required:
        raise UndersampledError(
            f"undersampled: {codes_full} distinct depth-{n} codes require at least "
            f"{required} samples (factor {ENTROPY_GUARD_FACTOR}), got {sample_count}"
        )
    if n == 1:
        return read[n][0], (codes_full - 1) / (2.0 * sample_count), codes_full
    entropies = np.array([read[d][0] for d in depths])
    slope = np.polyfit(depths, entropies, 1)[0]
    bias_bound = (codes_full - read[start][1]) / (2.0 * sample_count * (n - start))
    return float(slope), float(bias_bound), codes_full


def nu_log_bound(map_, partition: Partition, probes_per_cell: int = 64, seed: int = 0) -> float:
    """Cell-measure-weighted mean of log(# image cells hit by forward probes).

    A statistical lower approximation of the one-step refinement bound: for
    each cube, probes_per_cell uniform points are mapped forward and the
    distinct image cubes are counted, in run_chunked's pieces of cells; each
    cell's log is read from a table, and the logs are summed in cell order.
    """
    if probes_per_cell < MIN_PROBES:
        raise ConfigError(f"probes_per_cell must be >= {MIN_PROBES}, got {probes_per_cell}")
    rng = np.random.default_rng(seed)
    side, cells = 2**partition.level, partition.cell_count
    # log_hits[c] = log(c + 1): a cell hits at least one image cell, so no entry is log(0)
    log_hits = np.log(np.arange(1, probes_per_cell + 1))

    def logs_piece(piece):
        # the piece's share of the one probe stream, placed at (corner + u) / side, which is
        # corner / side + u / side bitwise: dividing by a power of two is exact
        probes = rng.random((len(piece), probes_per_cell, 2))
        probes += np.stack(np.divmod(np.asarray(piece), side), axis=-1)[:, None, :]
        probes /= side
        image_labels = np.sort(partition.labels(map_.apply(probes)), axis=1)
        # distinct image cells per cell: one plus the changes along its sorted row
        return log_hits[np.count_nonzero(image_labels[:, 1:] != image_labels[:, :-1], axis=1)]

    (logs,) = run_chunked(logs_piece, range(cells), (np.empty(cells),))
    # accumulate adds left to right, as a sequential loop does; np.sum pairs and changes the last bits
    return float(np.add.accumulate(logs)[-1] / cells)


def maximal_ergodic(map_, g_values, x, horizon: int):
    """Largest orbit average of |g| over horizons 1..horizon, vectorized in x."""
    if horizon < 1:
        raise ErgomixError(f"horizon must be >= 1, got {horizon}")
    points = np.asarray(x, dtype=float)
    acc = np.zeros(points.shape[:-1])
    best = np.full(points.shape[:-1], -np.inf)
    current = points
    for i in range(horizon):
        acc = acc + np.abs(g_values(current))
        best = np.maximum(best, acc / (i + 1))
        if i < horizon - 1:
            current = map_.apply(current)
    return best
