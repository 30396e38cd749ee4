import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codim2flow import certifier
from codim2flow.certifier import (
    ConeSample,
    certify_negativity,
    epsilon_z_scan,
    gamma_for_k,
    reaction_expression,
    threshold_scan,
    unreduced_reaction,
)
from codim2flow.curvature import SpecialFrameState, pinching_fields, scalars
from codim2flow.errors import BracketInvalid, InvalidK, ResolutionTooCoarse

abc = st.floats(min_value=-3, max_value=3, allow_nan=False)
kst = st.floats(min_value=0.51, max_value=1.0, allow_nan=False)
epsst = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


# ---------------------------------------------------------------------------
# the reduced expression and its oracle


def test_flat_point_is_zero():
    assert reaction_expression(0.0, 0.0, 0.0, 0.0, 0.7, gamma_for_k(0.7)) == 0.0


@settings(max_examples=100, deadline=None)
@given(kst, epsst)
def test_flat_point_eps_term(k, eps):
    val = reaction_expression(0.0, 0.0, 0.0, eps, k, gamma_for_k(k))
    assert val == pytest.approx(-eps * eps / (k - 0.5), rel=1e-12, abs=1e-15)


def test_invalid_k_raises():
    with pytest.raises(InvalidK):
        ConeSample(1, 0, 0, eps=0.0, k=0.5, gamma=0.0)
    with pytest.raises(InvalidK):
        ConeSample(1, 0, 0, eps=0.0, k=1.2, gamma=0.0)
    with pytest.raises(ValueError):
        ConeSample(1, 0, 0, eps=-1.0, k=0.7, gamma=0.0)


def test_reduction_exact_over_rationals():
    # the reduction is an algebraic identity; check it with exact arithmetic
    import random
    random.seed(4)
    for _ in range(300):
        a = F(random.randint(-40, 40), random.randint(1, 17))
        b = F(random.randint(-40, 40), random.randint(1, 17))
        c = F(random.randint(-40, 40), random.randint(1, 17))
        eps = F(random.randint(0, 20), 9)
        k = F(random.randint(21, 40), 40)
        g = 1 - F(4, 3) * k
        assert reaction_expression(a, b, c, eps, k, g) == unreduced_reaction(a, b, c, eps, k, g)


def test_known_positive_witness_exact_value():
    # frozen rational value at (a, b, c) = (1, 0, 1/2), k = 29/40
    k, g = F(29, 40), 1 - F(4, 3) * F(29, 40)
    assert g == F(1, 30)
    val = reaction_expression(F(1), F(0), F(1, 2), F(0), k, g)
    assert val == F(263, 405)
    assert reaction_expression(1.0, 0.0, 0.5, 0.0, 29 / 40, 1 / 30) == pytest.approx(
        float(F(263, 405)), rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(abc, abc, abc, epsst, kst)
def test_master_oracle_float_sweep(a, b, c, eps, k):
    g = gamma_for_k(k)
    lhs = reaction_expression(a, b, c, eps, k, g)
    rhs = unreduced_reaction(a, b, c, eps, k, g)
    # scale by the intermediate magnitude: near k = 1/2 the result is a
    # cancellation of terms of size (1/m)^2 S^2
    scale = (1 + 1 / (k - 0.5)) ** 2 * (a * a + b * b + c * c + eps) ** 2
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs) + scale)


def test_oracle_consistent_with_curvature_module(rng):
    # the unreduced route must agree with scalars() on the induced state
    for _ in range(300):
        a, b, c = rng.standard_normal(3)
        k = rng.uniform(0.55, 1.0)
        g = gamma_for_k(k)
        eps = rng.uniform(0, 1)
        # |H|^2 forced by Q = 0
        h2 = (2 * a * a + 2 * b * b + 2 * c * c + 2 * g * abs(2 * a * c) + eps) / (k - 0.5)
        assert h2 >= 0
        st_frame = SpecialFrameState(math.sqrt(h2), abs(a), abs(b), abs(c))
        sc = scalars(st_frame)
        expected = 2 * sc.r1 + 2 * g * sc.r3 - 2 * k * sc.r2
        scale = (1 + 1 / (k - 0.5)) ** 2 * (a * a + b * b + c * c + eps) ** 2
        assert reaction_expression(a, b, c, eps, k, g) == pytest.approx(
            expected, rel=1e-10, abs=1e-10 * (1 + scale))


@settings(max_examples=200, deadline=None)
@given(abc, abc, abc, kst, st.floats(min_value=0.05, max_value=4))
def test_homogeneity_degree_four(a, b, c, k, lam):
    g = gamma_for_k(k)
    v1 = reaction_expression(a, b, c, 0.0, k, g)
    v2 = reaction_expression(lam * a, lam * b, lam * c, 0.0, k, g)
    assert v2 == pytest.approx(lam ** 4 * v1, rel=1e-9, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(abc, abc, abc, kst)
def test_strictly_decreasing_in_eps(a, b, c, k):
    g = gamma_for_k(k)
    vals = [reaction_expression(a, b, c, e, k, g) for e in (0.0, 0.5, 1.0, 2.0)]
    if (a, b, c) == (0.0, 0.0, 0.0):
        assert vals[1] > vals[2] > vals[3]
    else:
        assert vals[0] > vals[1] > vals[2] > vals[3]


# ---------------------------------------------------------------------------
# certification sweeps


def test_certify_resolution_guard():
    with pytest.raises(ResolutionTooCoarse):
        certify_negativity(0.7, grid=32)
    with pytest.raises(InvalidK):
        certify_negativity(0.4)


def test_certify_negative_below_true_threshold():
    rep = certify_negativity(0.68, grid=64, random_samples=50_000, seed=1)
    assert rep.max_value < 0
    assert rep.gamma == pytest.approx(gamma_for_k(0.68))
    assert rep.sample_count == 64 * 64 + 50_000
    assert rep.oracle_max_reldev <= 1e-10
    assert len(rep.worst) == 100
    vals = [w[3] for w in rep.worst]
    assert vals == sorted(vals, reverse=True)


def test_certify_positive_at_three_quarters():
    rep = certify_negativity(0.75, grid=64, random_samples=50_000, seed=1)
    assert rep.max_value > 0
    # witness region b ~ 0, a > c > 0
    a, b, c, v = rep.worst[0]
    assert v > 0 and a > c > 0 and abs(b) < 0.2


def test_certify_k1_gamma1_identically_zero(rng):
    rep = certify_negativity(1.0, gamma_override=1.0, grid=64, random_samples=10_000, seed=3)
    assert rep.max_value <= 1e-10
    # the coefficients all vanish at (k, gamma) = (1, 1): exact zero
    assert rep.max_value == 0.0
    a, b, c = rng.standard_normal(3)
    assert reaction_expression(a, b, c, 0.0, 1.0, 1.0) == 0.0


def test_threshold_scan_bracket_guard():
    with pytest.raises(BracketInvalid):
        threshold_scan(0.55, 0.6, tol_k=1e-2, grid=64, random_samples=10_000)


def test_threshold_scan_rejects_bad_tolerance_and_bracket_order():
    # a tolerance below the float spacing would bisect forever once lo and hi are adjacent floats
    for tol in (0.0, -1e-3, float("nan"), 1e-20):
        with pytest.raises(ValueError):
            threshold_scan(0.66, 0.75, tol_k=tol, grid=64, random_samples=1000)
    for lo, hi in ((0.75, 0.66), (0.7, 0.7)):
        with pytest.raises(BracketInvalid):
            threshold_scan(lo, hi, tol_k=1e-3, grid=64, random_samples=1000)


def test_threshold_scan_locates_sign_change():
    res = threshold_scan(0.66, 0.75, tol_k=2e-3, grid=64, random_samples=20_000, seed=5)
    assert 0.66 < res.k_star < 0.75
    assert res.negative_below and res.positive_above
    assert res.bracket[1] - res.bracket[0] <= 2e-3
    # sign boundary of the quartic is sharply determined: ~0.703
    assert res.k_star == pytest.approx(0.7030, abs=5e-3)


def test_threshold_scan_matches_per_k_certificates(monkeypatch):
    # reference bisection with one full certificate per evaluation
    kw = dict(grid=64, random_samples=20_000, seed=5)
    k_low, k_high, tol = 0.66, 0.75, 2e-3

    def max_at(k):
        return certify_negativity(k, **kw).max_value

    assert max_at(k_low) < 0 < max_at(k_high)
    lo, hi, evals = k_low, k_high, 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evals += 1
        if max_at(mid) < 0:
            lo = mid
        else:
            hi = mid
    k_star = 0.5 * (lo + hi)
    neg = max_at(max(k_star - tol, k_low)) < 0
    pos = max_at(min(k_star + tol, k_high)) > 0
    evals += 2

    calls = Counter()
    for name in ("_octant_sphere_grid", "unreduced_reaction"):
        def counted(*args, _name=name, _f=getattr(certifier, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(certifier, name, counted)
    res = threshold_scan(k_low, k_high, tol_k=tol, **kw)
    assert (res.k_star, res.bracket, res.negative_below, res.positive_above,
            res.evaluations) == (k_star, (lo, hi), neg, pos, evals)
    # one draw per scan, one cross-check per evaluation
    assert calls == {"_octant_sphere_grid": 1, "unreduced_reaction": evals}


def test_threshold_scan_evaluates_each_k_once(monkeypatch):
    # a tolerance wider than the bracket clamps both confirmations to its ends
    ks = []

    def counted(samples, k, gamma, _f=certifier._checked_reaction):
        ks.append(k)
        return _f(samples, k, gamma)

    monkeypatch.setattr(certifier, "_checked_reaction", counted)
    res = threshold_scan(0.6, 0.75, tol_k=0.2, grid=64, random_samples=1000)
    assert res.negative_below and res.positive_above
    assert (res.evaluations, ks) == (2, [0.6, 0.75])


def _one_shot_samples(grid, random_samples, seed):
    """The samples drawn the way they were first defined: a meshgrid octant and one (N, 3) draw."""
    theta = np.linspace(0.0, np.pi, grid)
    phi = np.linspace(0.0, np.pi / 2, grid)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    st = np.sin(th)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((random_samples, 3))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    a = np.concatenate([(st * np.cos(ph)).ravel(), np.abs(r[:, 0])])
    b = np.concatenate([np.cos(th).ravel(), r[:, 1]])
    c = np.concatenate([(st * np.sin(ph)).ravel(), np.abs(r[:, 2])])
    return a, b, c, rng.choice(a.size, size=min(2000, a.size), replace=False)


def test_pieces_cover_the_rows_in_order(monkeypatch):
    monkeypatch.setattr(certifier, "_PIECE", 7)
    # a one-row tail is a piece of its own
    assert certifier._pieces(15) == [slice(0, 7), slice(7, 14), slice(14, 15)]
    assert certifier._pieces(17, 3) == [slice(3, 10), slice(10, 17)]
    for stop, start in ((15, 0), (17, 3), (22, 0), (1, 0), (4, 4)):
        rows = [i for s in certifier._pieces(stop, start) for i in range(s.start, s.stop)]
        assert rows == list(range(start, stop))


@pytest.mark.parametrize("piece", [1 << 13, 7])
@pytest.mark.parametrize("grid, random_samples, seed", [(64, 20_000, 5), (65, 1, 0), (64, 0, 2)])
def test_streamed_samples_equal_one_draw(monkeypatch, piece, grid, random_samples, seed):
    monkeypatch.setattr(certifier, "_PIECE", piece)
    streamed = certifier._sphere_samples(grid, random_samples, seed)
    for got, want in zip(streamed, _one_shot_samples(grid, random_samples, seed)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_certificate_and_scan_do_not_depend_on_the_piece_size(monkeypatch):
    kw = dict(grid=64, random_samples=5003, seed=4)
    results = []
    for piece in (1 << 13, 7):
        monkeypatch.setattr(certifier, "_PIECE", piece)
        rep = certify_negativity(0.72, **kw)
        scan = threshold_scan(0.66, 0.75, tol_k=5e-3, **kw)
        results.append((rep.as_dict(), rep.worst, scan.as_dict()))
    assert results[0] == results[1]


@pytest.mark.parametrize("k, gamma, nans", [(0.72, None, ()), (0.75, None, (40, 3, 250)),
                                             (1.0, 1.0, ()), (1.0, 1.0, (299, 8))])
def test_worst_rows_follow_the_documented_order(monkeypatch, k, gamma, nans):
    # 150 directions and their b-mirrors in 300 shuffled rows: each value recurs in another
    # piece of 7, and at k = gamma = 1 every value is 0
    monkeypatch.setattr(certifier, "_PIECE", 7)
    rng = np.random.default_rng(7)
    half = np.abs(rng.standard_normal((150, 3)))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    a, b, c = np.vstack((half, half * [1, -1, 1]))[rng.permutation(300)].T.copy()
    a[list(nans)] = np.nan
    samples = a, b, c, np.flatnonzero(~np.isnan(a))[:50]
    monkeypatch.setattr(certifier, "_sphere_samples", lambda *args: samples)
    rep = certify_negativity(k, gamma_override=gamma)
    values = reaction_expression(a, b, c, 0.0, k, rep.gamma)
    # any NaN first, then value descending, equal values by ascending sample index
    key = [(not np.isnan(v), -np.nan_to_num(v), i) for i, v in enumerate(values)]
    order = [i for *_, i in sorted(key)[:100]]
    assert certifier._checked_reaction(samples, k, rep.gamma, keep=100)[2].tolist() == order
    assert np.array_equal(rep.worst, [(a[i], b[i], c[i], values[i]) for i in order], equal_nan=True)
    # worst[0] is the np.argmax row, and max_value its value
    i = int(np.argmax(values))
    assert np.array_equal((rep.argmax.a, rep.argmax.b, rep.argmax.c, rep.max_value),
                          (a[i], b[i], c[i], values[i]), equal_nan=True)
    assert np.array_equal(rep.worst[0], (a[i], b[i], c[i], values[i]), equal_nan=True)


def test_certify_memory_per_sample():
    # a, b, c: three 8-byte arrays per sample, drawn inside the traced window;
    # the 100 worst rows are kept as the pieces are evaluated
    tracemalloc.start()
    try:
        rep = certify_negativity(0.7, grid=256, random_samples=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 24 * rep.sample_count <= peak <= 32 * rep.sample_count, \
        f"{peak / rep.sample_count:.1f} bytes per sample"


def test_threshold_scan_grid_refinement_stability():
    res1 = threshold_scan(0.69, 0.72, tol_k=1e-3, grid=64, random_samples=20_000, seed=5)
    res2 = threshold_scan(0.69, 0.72, tol_k=1e-3, grid=128, random_samples=20_000, seed=5)
    assert abs(res1.k_star - res2.k_star) <= 2e-3


# ---------------------------------------------------------------------------
# Simons-nonlinearity floor


def test_epsilon_z_scan_positive_and_matches_analytic_floor():
    got = epsilon_z_scan(gamma=1 / 30, pinch_fraction=0.8, grid=200, random_samples=100_000, seed=2)
    assert got > 0
    floor = (2.5 - 3 * 0.8) / (2 * (1 + 1 / 30))
    assert got == pytest.approx(floor, rel=2e-2)


def test_epsilon_z_scan_monotone_to_zero_at_boundary():
    gamma = 1 / 30
    fractions = [0.70, 0.76, 0.80, 0.83]
    mins = [epsilon_z_scan(gamma, pf, grid=100, random_samples=20_000, seed=2) for pf in fractions]
    assert all(m > 0 for m in mins)
    assert all(m2 < m1 for m1, m2 in zip(mins, mins[1:]))
    near = epsilon_z_scan(gamma, 5 / 6 - 1e-4, grid=100, random_samples=20_000, seed=2)
    assert near < 0.01


def test_epsilon_z_scan_umbilic_free_slice_closed_form():
    # b = c = 0 states: Z = 2 K |Ac|^2, ratio = 2K/|H|^2 = (1 - 2x)/2
    x = np.array([0.05, 0.15, 0.25])
    pf = pinching_fields(1.0, np.sqrt(x / 2), 0.0, 0.0, gamma=1 / 30)
    assert pf["simons_z"] / pf["pinch_num"] == pytest.approx((1 - 2 * x) / 2, rel=1e-12)


def test_epsilon_z_scan_at_negative_gamma_warns_of_nothing():
    # at gamma = -1 the pinching numerator |Ac|^2 - 2 |K-perp| vanishes on the slice edge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert epsilon_z_scan(-1.0, 0.8, grid=100, random_samples=50_000, seed=0) > 0


def test_epsilon_z_scan_validates_fraction():
    with pytest.raises(ValueError):
        epsilon_z_scan(1 / 30, 0.9)
    with pytest.raises(ValueError):
        epsilon_z_scan(1 / 30, 0.4)
