"""Sampling certification of the reaction-term sign on the pinching cone.

At a zero of Q = |A|^2 + 2 gamma |K-perp| - k |H|^2 + eps the value of
|H|^2 is pinned by the traceless data, and the zero-order reaction of Q
reduces to a quartic in (a, b, c) with eps corrections:

    (2 - 1/m) 4 a^2 b^2
  + (2 - 1/m) gamma |K| |Ac1|^2  + (6 - 3/m) gamma |K| |Ac2|^2
  + (2 - 1/m) |Ac2|^4            + (6 - (1 + 2 gamma^2)/m) |K|^2
  - eps (2 + 1/m) |Ac1|^2 - (2 eps/m) |Ac2|^2 - 3 eps gamma |K| / m - eps^2 / m

with m = k - 1/2, |Ac1|^2 = 2 a^2, |Ac2|^2 = 2 b^2 + 2 c^2 and
|K| = |2 a c|.  The reduction is exact: it equals the unreduced reaction
2 R1 + 2 gamma R3 - 2 k R2 with |H|^2 eliminated through Q = 0, and the
module cross-checks the two routes on every certification run.

The eps = 0 part is homogeneous of degree four, so sign certification only
needs the unit sphere of (a, b, c); negativity of the sampled maximum over
a k-range is located by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import reaction_terms
from .errors import BracketInvalid, InvalidK, ResolutionTooCoarse

ORACLE_RTOL = 1e-10
MIN_GRID = 64
# rows per piece of every certification evaluation: its temporaries stay cache-sized
_PIECE = 1 << 13


def _pieces(stop: int, start: int = 0) -> list:
    """Consecutive slices of _PIECE rows, the last one shorter, that cover start:stop."""
    return [slice(lo, min(lo + _PIECE, stop)) for lo in range(start, stop, _PIECE)]


def _check_k(k) -> None:
    if not 0.5 < k <= 1.0:
        raise InvalidK(f"k must lie in (1/2, 1], got {k}")


def gamma_for_k(k, delta=0):
    """Coupling gamma = 1 - (4/3) k - delta tied to the gradient-term budget."""
    return 1 - 4 * k / 3 - delta


def reaction_expression(a, b, c, eps, k, gamma):
    """Reduced reaction on the Q = 0 cone.

    Plain arithmetic throughout: works elementwise on ndarrays and exactly
    on fractions.Fraction inputs.
    """
    inv_m = 2 / (2 * k - 1)
    a1c = 2 * a * a
    a2c = 2 * b * b + 2 * c * c
    w = abs(2 * a * c)
    return (
        (2 - inv_m) * 4 * a * a * b * b
        + (2 - inv_m) * gamma * w * a1c
        + (6 - 3 * inv_m) * gamma * w * a2c
        + (2 - inv_m) * a2c * a2c
        + (6 - (1 + 2 * gamma * gamma) * inv_m) * w * w
        - eps * (2 + inv_m) * a1c
        - 2 * eps * inv_m * a2c
        - 3 * eps * gamma * w * inv_m
        - eps * eps * inv_m
    )


def unreduced_reaction(a, b, c, eps, k, gamma):
    """Oracle: 2 R1 + 2 gamma R3 - 2 k R2 with |H|^2 forced by Q = 0.

    Evaluates the raw reaction terms (curvature.reaction_terms) on the
    canonical frame state (a, c >= 0) whose squared mean curvature is
    (|Ac|^2 + 2 gamma |K| + eps)/(k - 1/2).  Polynomial in |H|^2, so exact
    on rational inputs.
    """
    a, c = abs(a), abs(c)
    h2 = (2 * a * a + 2 * b * b + 2 * c * c + 2 * gamma * (2 * a * c) + eps) * (2 / (2 * k - 1))
    r1, r2, r3 = reaction_terms(h2, a, b, c)
    return 2 * r1 + 2 * gamma * r3 - 2 * k * r2


@dataclass(frozen=True)
class ConeSample:
    """Point on the Q = 0 constraint surface, parametrized by traceless data."""

    a: float
    b: float
    c: float
    eps: float
    k: float
    gamma: float

    def __post_init__(self):
        _check_k(self.k)
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")


def _octant_sphere_grid(res: int):
    """Unit-sphere grid on the canonical octant a >= 0, c >= 0 (b free)."""
    theta = np.linspace(0.0, np.pi, res)         # polar angle from the b axis
    phi = np.linspace(0.0, np.pi / 2, res)       # splits a from c
    # row i of the (res, res) grid has polar angle theta[i]
    st = np.sin(theta)[:, None]
    return (st * np.cos(phi)).ravel(), np.repeat(np.cos(theta), res), (st * np.sin(phi)).ravel()


@dataclass
class CertificateReport:
    k: float
    gamma: float
    delta: float
    max_value: float
    argmax: ConeSample
    sample_count: int
    grid: dict
    oracle_max_reldev: float
    worst: list = field(default_factory=list)  # (a, b, c, value), value descending

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "gamma": self.gamma,
            "delta": self.delta,
            "maxValue": self.max_value,
            "argmax": {"a": self.argmax.a, "b": self.argmax.b, "c": self.argmax.c},
            "sampleCount": self.sample_count,
            "grid": self.grid,
            "oracleMaxRelDev": self.oracle_max_reldev,
        }


def _sphere_samples(grid: int, random_samples: int, seed: int):
    """(a, b, c, oracle_rows): octant grid, seeded unit directions, then the oracle rows.

    The directions are drawn a piece at a time: successive (m, 3) draws give
    the numbers of one (random_samples, 3) draw.
    """
    if grid < MIN_GRID:
        raise ResolutionTooCoarse(f"grid resolution {grid} < {MIN_GRID}")
    if random_samples < 0:
        raise ValueError(f"random_samples (--samples) must be nonnegative, got {random_samples}")
    g2 = grid * grid
    n = g2 + random_samples
    try:
        a, b, c = np.empty((3, n))
    except (MemoryError, ValueError):  # ValueError: beyond numpy's index range
        raise ValueError(f"grid {grid} (--grid) and random_samples {random_samples} (--samples) "
                         f"give {n} samples, more than numpy can allocate") from None
    a[:g2], b[:g2], c[:g2] = _octant_sphere_grid(grid)
    rng = np.random.default_rng(seed)
    for s in _pieces(n, g2):
        x, y, z = rng.standard_normal((s.stop - s.start, 3)).T
        norm = np.sqrt(x * x + y * y + z * z)
        for col, out in ((np.abs(x), a), (y, b), (np.abs(z), c)):
            np.divide(col, norm, out=out[s])
    return a, b, c, rng.choice(n, size=min(2000, n), replace=False)


def _first(values, keep: int):
    """Mask of the keep entries first in the order: NaN, then larger value, then earlier entry."""
    i = max(values.size - keep, 0)
    kth = np.partition(values, i)[i]  # NaN sorts last
    nan = np.isnan(values)
    tied = nan if np.isnan(kth) else values == kth
    first = (values > kth) | (nan & ~tied)
    first[np.flatnonzero(tied)[:keep - np.count_nonzero(first)]] = True
    return first


def _checked_reaction(samples, k, gamma, keep=0):
    """Largest eps = 0 reduced reaction over the samples, evaluated a piece at a time,
    its deviation from unreduced_reaction on the oracle rows, and the (rows, values)
    of the keep rows first in the order NaN, value descending, row ascending."""
    # an overflow shows up as a non-finite deviation, which fails the check
    a, b, c, idx = samples
    maxima = []
    rows, top = np.empty(0, dtype=np.intp), np.empty(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in _pieces(a.size):
            piece = reaction_expression(a[s], b[s], c[s], 0.0, k, gamma)
            maxima.append(piece.max())
            if keep:
                # the kept rows precede the piece's, so rows stay ascending
                rows = np.concatenate((rows, np.arange(s.start, s.stop)))
                top = np.concatenate((top, piece))
                first = _first(top, keep)
                rows, top = rows[first], top[first]
        ora = unreduced_reaction(a[idx], b[idx], c[idx], 0.0, k, gamma)
        # elementwise arithmetic: the oracle rows round as in their pieces
        red = reaction_expression(a[idx], b[idx], c[idx], 0.0, k, gamma)
        reldev = float(np.max(np.abs(red - ora) / (1.0 + np.abs(ora))))
    if not reldev <= ORACLE_RTOL:
        raise AssertionError(f"reduced/unreduced reaction mismatch: {reldev:.3e}")
    # np.max, unlike max(), keeps a NaN piece maximum; lexsort is stable: ties keep rows ascending
    order = np.lexsort((-top, ~np.isnan(top)))
    return float(np.max(maxima)), reldev, rows[order], top[order]


def certify_negativity(k: float, delta: float = 0.0, grid: int = 256,
                       random_samples: int = 10 ** 6, seed: int = 0,
                       gamma_override: float | None = None) -> CertificateReport:
    """Sample the eps = 0 reaction over the unit sphere: its maximum and 100 largest values.

    gamma defaults to 1 - (4/3) k - delta; pass gamma_override to decouple
    the two constants (e.g. the k = gamma = 1 borderline case).  Homogeneity
    of degree four reduces the sign question to the sphere:  an octant grid
    of the stated resolution plus seeded uniform random directions.  worst
    lists the 100 in _checked_reaction's order, so worst[0] is the np.argmax row.
    """
    _check_k(k)
    samples = _sphere_samples(grid, random_samples, seed)
    gamma = gamma_for_k(k, delta) if gamma_override is None else gamma_override
    if not np.isfinite([delta, gamma]).all():
        raise ValueError(f"delta and gamma must be finite, got delta = {delta}, gamma = {gamma}")
    a, b, c, _ = samples
    _, reldev, rows, top = _checked_reaction(samples, k, gamma, keep=100)
    worst = [(float(a[i]), float(b[i]), float(c[i]), float(v)) for i, v in zip(rows, top)]
    return CertificateReport(
        k=float(k), gamma=float(gamma), delta=float(delta),
        max_value=worst[0][3],
        argmax=ConeSample(*worst[0][:3], 0.0, float(k), float(gamma)),
        sample_count=int(a.size),
        grid={"octant_sphere": [int(grid), int(grid)], "random": int(random_samples), "seed": int(seed)},
        oracle_max_reldev=reldev,
        worst=worst,
    )


@dataclass
class ThresholdScanResult:
    k_star: float
    tol_k: float
    bracket: tuple
    negative_below: bool   # certified negative at max(k_star - tol_k, k_low)
    positive_above: bool   # certified positive at min(k_star + tol_k, k_high)
    evaluations: int

    def as_dict(self) -> dict:
        return {
            "kStar": self.k_star,
            "tolK": self.tol_k,
            "bracket": list(self.bracket),
            "negativeBelow": self.negative_below,
            "positiveAbove": self.positive_above,
            "evaluations": self.evaluations,
        }


def threshold_scan(k_low: float, k_high: float, tol_k: float = 1e-3,
                   grid: int = 256, random_samples: int = 200_000,
                   seed: int = 0) -> ThresholdScanResult:
    """Bisect for the k where the sampled reaction maximum changes sign.

    Requires k_low < k_high in (1/2, 1], tol_k >= the float spacing at k_high
    and a bracket with a negative maximum at k_low and a positive one at k_high,
    gamma = 1 - (4/3) k.  Draws certify_negativity's samples once, cross-checked at each k.
    """
    if not tol_k >= np.spacing(k_high):
        raise ValueError(f"tol_k must be at least the float spacing at k_high = {k_high}, got {tol_k}")
    if not k_low < k_high:
        raise BracketInvalid(f"need k_low < k_high, got [{k_low}, {k_high}]")
    _check_k(k_low)
    _check_k(k_high)
    samples = _sphere_samples(grid, random_samples, seed)

    memo = {}

    def max_at(k):
        # a confirmation clamped to a bracket end reuses that end's maximum
        if k not in memo:
            memo[k] = _checked_reaction(samples, k, gamma_for_k(k))[0]
        return memo[k]

    lo_val, hi_val = max_at(k_low), max_at(k_high)
    if not (lo_val < 0 and hi_val > 0):
        raise BracketInvalid(
            f"bracket does not straddle the sign change: "
            f"max({k_low}) = {lo_val:.3e}, max({k_high}) = {hi_val:.3e}")
    lo, hi = float(k_low), float(k_high)
    while hi - lo > tol_k:
        mid = 0.5 * (lo + hi)
        if max_at(mid) < 0:
            lo = mid
        else:
            hi = mid
    k_star = 0.5 * (lo + hi)
    neg = max_at(max(k_star - tol_k, k_low)) < 0
    pos = max_at(min(k_star + tol_k, k_high)) > 0
    return ThresholdScanResult(k_star=k_star, tol_k=tol_k, bracket=(lo, hi),
                               negative_below=neg, positive_above=pos,
                               evaluations=len(memo))


def epsilon_z_scan(gamma: float, pinch_fraction: float, grid: int = 200,
                   random_samples: int = 200_000, seed: int = 0) -> float:
    """Sampled minimum of the Simons-nonlinearity ratio on a pinched cone.

    Scans states with |A|^2 <= pinch_fraction |H|^2 and returns
    min Z / ((|Ac|^2 + 2 gamma |K|) |H|^2); strictly positive whenever the
    pinch fraction stays below 5/6.  Normalizes |H| = 1 (the ratio is scale
    free) and covers the extreme normal-curvature slice b = 0 with a
    deterministic grid in addition to random states.
    """
    if not 0.5 < pinch_fraction < 5.0 / 6.0:
        raise ValueError(f"pinch_fraction must lie in (1/2, 5/6), got {pinch_fraction}")
    x_max = pinch_fraction - 0.5  # |Ac|^2 bound at |H| = 1

    def ratio(x, w):
        gauss = (1 - 2 * x) / 4
        # a negative gamma can zero the denominator
        with np.errstate(divide="ignore", invalid="ignore"):
            return (2 * gauss * x - 2 * w * w) / (x + 2 * gamma * w)

    # deterministic worst-direction slice: b = 0, w sweeps [0, x/2]
    x = np.linspace(x_max / grid, x_max, grid)
    th = np.linspace(0.0, np.pi / 4, grid)
    xg, tg = np.meshgrid(x, th, indexing="ij")
    wg = (xg / 2) * np.sin(2 * tg)
    vals = ratio(xg.ravel(), wg.ravel())

    rng = np.random.default_rng(seed)
    d = np.abs(rng.standard_normal((random_samples, 3)))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    xr = rng.uniform(0.0, x_max, random_samples)
    scale = np.sqrt(xr / 2)
    a, b, c = (d[:, i] * scale for i in range(3))
    wr = np.abs(2 * a * c)
    vals = np.concatenate([vals, ratio(xr, wr)])
    return float(vals.min())
