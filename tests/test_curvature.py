import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codim2flow.curvature import (
    TOL_H,
    ShapeTensor,
    SpecialFrameState,
    lift,
    pinching_fields,
    scalars,
    simons_z_closed,
    simons_z_tensor,
    special_frame_fields,
    tensor_scalars,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
pos_h = st.floats(min_value=1e-3, max_value=10, allow_nan=False)


def frame_states():
    return st.builds(SpecialFrameState, h=pos_h, a=finite, b=finite, c=finite)


def random_shape_tensor(rng, min_h=1e-2):
    while True:
        comp = rng.standard_normal((2, 2, 2))
        comp = 0.5 * (comp + comp.transpose(1, 0, 2))
        t = ShapeTensor(comp)
        if math.hypot(*t.mean_curvature) > min_h:
            return t


def special_frames(tensors):
    """special_frame_fields on a batch of ShapeTensors, as one SpecialFrameState each."""
    comp = np.stack([t.components for t in tensors])
    mc = np.stack([t.mean_curvature for t in tensors])
    return [SpecialFrameState(*map(float, row)) for row in zip(*special_frame_fields(comp, mc))]


def scaled(s, lam):
    return SpecialFrameState(lam * s.h, lam * s.a, lam * s.b, lam * s.c)


def z_ratio(h, a, b, c, gamma):
    """Simons ratio Z / ((|A-circ|^2 + 2 gamma |K-perp|) |H|^2) from pinching_fields."""
    pf = pinching_fields(h, a, b, c, gamma)
    return pf["simons_z"] / (pf["pinch_num"] * h * h)


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# special-frame reduction


def test_shape_tensor_validates_symmetry():
    comp = np.zeros((2, 2, 2))
    comp[0, 1, 0] = 1.0  # symmetric partner left at zero
    with pytest.raises(ValueError):
        ShapeTensor(comp)


def test_shape_tensor_validates_trace_consistency():
    comp = np.zeros((2, 2, 2))
    comp[:, :, 0] = np.eye(2)
    ShapeTensor(comp, mean_curvature=[2.0, 0.0])
    with pytest.raises(ValueError):
        ShapeTensor(comp, mean_curvature=[1.0, 0.0])


def test_round_sphere_point_reduces_trivially():
    comp = np.zeros((2, 2, 2))
    comp[:, :, 0] = np.eye(2)
    (s,) = special_frames([ShapeTensor(comp)])
    assert (s.h, s.a, s.b, s.c) == (2.0, 0.0, 0.0, 0.0)


def test_already_special_frame_passthrough():
    comp = np.zeros((2, 2, 2))
    comp[:, :, 0] = np.diag([3.0, 1.0])
    comp[:, :, 1] = np.array([[0.0, 1.0], [1.0, 0.0]])
    (s,) = special_frames([ShapeTensor(comp)])
    assert s.h == pytest.approx(4.0, abs=1e-14)
    assert s.a == pytest.approx(1.0, abs=1e-14)
    assert s.b == pytest.approx(0.0, abs=1e-14)
    assert s.c == pytest.approx(1.0, abs=1e-14)


def test_degenerate_mean_curvature_gives_nan_frame():
    # where |H| <= TOL_H the normal frame is undefined: a, b, c are NaN and
    # h stays finite, without touching the other rows of the batch
    comp = np.zeros((3, 2, 2, 2))
    comp[0, :, :, 0] = np.diag([1.0, -1.0])     # minimal point, H = 0
    comp[1, :, :, 0] = np.eye(2)                # round sphere point
    comp[2, :, :, 1] = 0.5 * TOL_H * np.eye(2)  # |H| = TOL_H exactly
    h, a, b, c = special_frame_fields(comp, comp[:, 0, 0] + comp[:, 1, 1])
    assert h.tolist() == [0.0, 2.0, TOL_H]
    for x in (a, b, c):
        assert np.isnan(x[[0, 2]]).all() and x[1] == 0.0


def test_sign_convention_and_umbilic_branch(rng):
    for s in special_frames([random_shape_tensor(rng) for _ in range(200)]):
        assert s.a >= 0 and s.b >= 0 and s.c >= 0
    # umbilic A1: c must be zeroed by the A2-diagonalizing convention
    comp = np.zeros((2, 2, 2))
    comp[:, :, 0] = 1.3 * np.eye(2)
    comp[:, :, 1] = np.array([[0.4, 0.7], [0.7, -0.4]])
    (s,) = special_frames([ShapeTensor(comp)])
    assert s.c == 0.0
    assert s.a >= 0.0
    assert s.b == pytest.approx(math.hypot(0.4, 0.7), rel=1e-12)


def conjugate(t: ShapeTensor, r_tan, r_nor) -> ShapeTensor:
    comp = np.einsum("pi,qj,ba,pqb->ija", r_tan, r_tan, r_nor, t.components)
    return ShapeTensor(comp)


@settings(max_examples=150, deadline=None)
@given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi),
       st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_frame_invariance(theta, phi, flip_tan, flip_nor, seed):
    rng = np.random.default_rng(seed)
    t = random_shape_tensor(rng)
    r_tan, r_nor = rot2(theta), rot2(phi)
    if flip_tan:
        r_tan = r_tan @ np.diag([1.0, -1.0])
    if flip_nor:
        r_nor = r_nor @ np.diag([1.0, -1.0])
    sc0, sc1 = map(scalars, special_frames([t, conjugate(t, r_tan, r_nor)]))
    for f in ("norm_a2", "norm_acirc2", "gauss_k", "norm_rm_perp2", "r1", "r2"):
        x0, x1 = getattr(sc0, f), getattr(sc1, f)
        assert abs(x0 - x1) <= 1e-10 * (1 + abs(x0))
    assert abs(abs(sc0.normal_kperp) - abs(sc1.normal_kperp)) <= 1e-10 * (1 + abs(sc0.normal_kperp))


def test_reduction_reproduces_invariant_scalars(rng):
    tensors = [random_shape_tensor(rng) for _ in range(300)]
    for t, s in zip(tensors, special_frames(tensors)):
        ts = tensor_scalars(t)
        ss = scalars(s)
        assert ss.norm_a2 == pytest.approx(ts.norm_a2, rel=1e-12)
        assert ss.norm_acirc2 == pytest.approx(ts.norm_acirc2, rel=1e-12, abs=1e-12)
        assert ss.gauss_k == pytest.approx(ts.gauss_k, rel=1e-12, abs=1e-12)
        assert abs(ss.normal_kperp) == pytest.approx(abs(ts.normal_kperp), rel=1e-12, abs=1e-12)
        assert ss.norm_rm_perp2 == pytest.approx(ts.norm_rm_perp2, rel=1e-12, abs=1e-12)
        assert ss.r1 == pytest.approx(ts.r1, rel=1e-12)
        assert ss.r2 == pytest.approx(ts.r2, rel=1e-12, abs=1e-12)
        assert abs(ss.r3) == pytest.approx(abs(ts.r3), rel=1e-11, abs=1e-10)


def _angle_route(comp, mc):
    """Special-frame reduction through the tangent angle theta = atan2(2 A1_01, A1_00 - A1_11) / 2.

    Rotates the normal frame to nu_1 = H/|H|, then A2 by theta through its
    cosine and sine; c in absolute value, b with its sign.  Umbilic A1 takes
    b = |(b, c)| and c = 0.  Rows need |H| > TOL_H.
    """
    nu = mc / np.hypot(mc[:, 0], mc[:, 1])[:, None]
    a1 = nu[:, 0, None, None] * comp[..., 0] + nu[:, 1, None, None] * comp[..., 1]
    a2 = -nu[:, 1, None, None] * comp[..., 0] + nu[:, 0, None, None] * comp[..., 1]
    theta = 0.5 * np.arctan2(2 * a1[:, 0, 1], a1[:, 0, 0] - a1[:, 1, 1])
    ct, st = np.cos(theta), np.sin(theta)
    a = np.hypot(0.5 * (a1[:, 0, 0] - a1[:, 1, 1]), a1[:, 0, 1])
    d2 = 0.5 * (a2[:, 0, 0] - a2[:, 1, 1])
    b = d2 * (ct * ct - st * st) + a2[:, 0, 1] * 2 * ct * st
    c = np.abs(-d2 * 2 * ct * st + a2[:, 0, 1] * (ct * ct - st * st))
    deg = a < 1e-9 * (np.sqrt(np.einsum("nija,nija->n", comp, comp)) + np.hypot(mc[:, 0], mc[:, 1]))
    return a, np.where(deg, np.hypot(b, c), b), np.where(deg, 0.0, c)


def test_closed_form_frame_fields_match_angle_route(rng):
    tensors = [random_shape_tensor(rng) for _ in range(1000)]
    umbilic = np.zeros((2, 2, 2))
    umbilic[:, :, 0] = 1.3 * np.eye(2)
    umbilic[:, :, 1] = [[0.4, 0.7], [0.7, -0.4]]
    tensors.append(ShapeTensor(umbilic))
    comp = np.stack([t.components for t in tensors])
    mc = np.stack([t.mean_curvature for t in tensors])
    _, *got = special_frame_fields(comp, mc)
    for x, y in zip(got, _angle_route(comp, mc)):
        assert np.all(np.abs(x - np.abs(y)) <= 1e-13 * (1 + np.abs(y)))


def test_umbilic_representative_matches_batched_path(rng):
    # umbilic A1 (a = 0) leaves the sign of b to convention; the reduction
    # picks the representative c = 0, b >= 0 in any frame
    states = [(0.7375, 0.0, -0.4821, 0.5988)] + [
        (abs(rng.standard_normal()) + 0.1, 0.0, *rng.standard_normal(2)) for _ in range(50)]
    tensors = [conjugate(lift(SpecialFrameState(*state)),
                         rot2(rng.uniform(0, 2 * math.pi)), rot2(rng.uniform(0, 2 * math.pi)))
               for state in states]
    for (h, a, b, c), s in zip(states, special_frames(tensors)):
        assert s.c == 0.0
        assert s.b == pytest.approx(math.hypot(b, c), rel=1e-10)


# ---------------------------------------------------------------------------
# scalars


def test_scalars_umbilic_point():
    sc = scalars(SpecialFrameState(2, 0, 0, 0))
    assert sc.norm_a2 == 2 and sc.gauss_k == 1 and sc.normal_kperp == 0
    assert sc.r1 == 4 and sc.r2 == 8 and sc.r3 == 0


def test_scalars_reference_point():
    sc = scalars(SpecialFrameState(4, 1, 0, 1))
    assert sc.norm_acirc2 == 4 and sc.gauss_k == 2
    assert sc.normal_kperp == 2 and sc.norm_rm_perp2 == 16


@settings(max_examples=100, deadline=None)
@given(pos_h, finite, finite)
def test_zero_a_kills_normal_curvature(h, b, c):
    sc = scalars(SpecialFrameState(h, 0.0, b, c))
    assert sc.normal_kperp == 0.0 and sc.r3 == 0.0


def test_scalars_against_tensor_sums(rng):
    # independent oracle: same quantities from raw sums on the lifted tensor
    for _ in range(300):
        h = abs(rng.standard_normal()) + 0.1
        s = SpecialFrameState(h, *rng.standard_normal(3))
        sc, ts = scalars(s), tensor_scalars(lift(s))
        for f in ("norm_a2", "norm_acirc2", "gauss_k", "normal_kperp",
                  "norm_rm_perp2", "r1", "r2", "r3"):
            assert getattr(sc, f) == pytest.approx(getattr(ts, f), rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(frame_states())
def test_gauss_identity_exact(s):
    sc = scalars(s)
    scale = s.h * s.h + sc.norm_a2
    assert abs(sc.norm_a2 + 2 * sc.gauss_k - s.h * s.h) <= 1e-14 * (1 + scale)


@settings(max_examples=200, deadline=None)
@given(frame_states())
def test_rm_perp_identity_exact(s):
    sc = scalars(s)
    # bit-exact with the product form (this platform's pow(x, 2) can differ
    # from x*x by one ulp)
    assert sc.norm_rm_perp2 == 4 * (sc.normal_kperp * sc.normal_kperp)


@settings(max_examples=200, deadline=None)
@given(frame_states())
def test_traceless_product_identity(s):
    # |Ac1|^2 |Ac2|^2 = 4 a^2 b^2 + (K-perp)^2
    lhs = (2 * s.a ** 2) * (2 * s.b ** 2 + 2 * s.c ** 2)
    rhs = 4 * s.a ** 2 * s.b ** 2 + 4 * s.a ** 2 * s.c ** 2
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(frame_states(), st.floats(min_value=0.1, max_value=3))
def test_homogeneity_degrees(s, lam):
    sc, scl = scalars(s), scalars(scaled(s, lam))
    for f, deg in (("norm_a2", 2), ("gauss_k", 2), ("normal_kperp", 2),
                   ("r1", 4), ("r2", 4), ("r3", 4)):
        assert getattr(scl, f) == pytest.approx(lam ** deg * getattr(sc, f), rel=1e-10, abs=1e-12)
    z0, zl = simons_z_closed(s), simons_z_closed(scaled(s, lam))
    assert zl == pytest.approx(lam ** 4 * z0, rel=1e-10, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(frame_states())
def test_r2_cauchy_schwarz(s):
    sc = scalars(s)
    assert sc.r2 <= sc.norm_a2 * s.h * s.h * (1 + 1e-13)


# ---------------------------------------------------------------------------
# Simons nonlinearity


def test_simons_z_tensor_reference_points():
    assert simons_z_tensor(lift(SpecialFrameState(2, 0, 0, 0))) == pytest.approx(0.0, abs=1e-12)
    assert simons_z_tensor(lift(SpecialFrameState(4, 1, 0, 1))) == pytest.approx(8.0, rel=1e-13)
    assert simons_z_tensor(lift(SpecialFrameState(2, 0, 0, 1))) == pytest.approx(0.0, abs=1e-12)


def test_simons_z_closed_reference_points():
    assert simons_z_closed(SpecialFrameState(4, 1, 0, 1)) == pytest.approx(8.0, rel=1e-13)
    assert simons_z_closed(SpecialFrameState(3, 0, 0, 0)) == 0.0


def test_simons_equivalence_sweep(rng):
    h = np.abs(rng.standard_normal(10 ** 5)) + 1e-3
    abc = rng.standard_normal((10 ** 5, 3))
    worst = 0.0
    for i in rng.choice(10 ** 5, size=2000, replace=False):
        s = SpecialFrameState(h[i], *abc[i])
        zt = simons_z_tensor(lift(s))
        zc = simons_z_closed(s)
        worst = max(worst, abs(zc - zt) / (1 + abs(zt)))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# pinching quantities


def test_pinch_q_round_sphere():
    q = pinching_fields(2.0, 0.0, 0.0, 0.0, gamma=1 / 30, k=29 / 40)["q"]
    assert q == pytest.approx(-0.9, rel=1e-13)


def test_pinch_q_clifford_point():
    # S^1(1/kappa) x S^1(1/kappa): |A|^2 = |H|^2 = 2 kappa^2, K-perp = 0
    kappa = 1.3
    s = SpecialFrameState(math.sqrt(2) * kappa, kappa / math.sqrt(2), 0.0, 0.0)
    sc = scalars(s)
    assert sc.norm_a2 == pytest.approx(s.h ** 2, rel=1e-13)
    assert sc.gauss_k == pytest.approx(0.0, abs=1e-13)
    k = np.array([0.6, 29 / 40, 0.99])
    q = pinching_fields(s.h, s.a, s.b, s.c, gamma=1 - 4 * k / 3, k=k)["q"]
    assert q == pytest.approx((1 - k) * s.h ** 2, rel=1e-12)
    assert (q > 0).all()


@settings(max_examples=100, deadline=None)
@given(frame_states())
def test_pinch_q_reduces_to_norm_a2(s):
    q = pinching_fields(s.h, s.a, s.b, s.c, gamma=0.0)["q"]
    assert q == pytest.approx(scalars(s).norm_a2, rel=1e-13)
    assert q >= 0


def test_f_sigma_values():
    assert pinching_fields(2.0, 0.0, 0.0, 0.0, gamma=0.5, sigma=0.3)["fsigma"] == 0.0
    got = pinching_fields(4.0, 1.0, 0.0, 1.0, gamma=1 / 30)["fsigma"]
    assert got == pytest.approx(31 / 120, rel=1e-13)


@settings(max_examples=100, deadline=None)
@given(frame_states(), st.floats(min_value=0.1, max_value=5))
def test_f_sigma_scale_invariant_at_sigma_zero(s, lam):
    f0, fl = (pinching_fields(x.h, x.a, x.b, x.c, gamma=1 / 30)["fsigma"]
              for x in (s, scaled(s, lam)))
    assert fl == pytest.approx(f0, rel=1e-10, abs=1e-13)


def test_f_sigma_degenerate_h():
    # f_sigma is NaN where |H| <= TOL_H, whatever the traceless part
    h = np.array([0.0, TOL_H, 1.0])
    fs = pinching_fields(h, np.ones(3), np.zeros(3), np.zeros(3), gamma=0.5, sigma=0.1)["fsigma"]
    assert np.isnan(fs[:2]).all() and fs[2] == pytest.approx(2.0, rel=1e-15)


def test_z_ratio_boundary_case_reaches_zero():
    # |A|^2 = (5/6)|H|^2 with b = 0, a = c makes Z vanish exactly
    h = 1.0
    a = math.sqrt(1.0 / 12.0)  # |Ac|^2 = 4 a^2 = h^2 / 3
    s = SpecialFrameState(h, a, 0.0, a)
    sc = scalars(s)
    assert sc.norm_a2 == pytest.approx(5 / 6 * h * h, rel=1e-12)
    assert z_ratio(h, a, 0.0, a, gamma=1 / 30) == pytest.approx(0.0, abs=1e-13)


def test_z_ratio_positive_inside_cone(rng):
    d = np.abs(rng.standard_normal((2000, 3)))
    x = rng.uniform(1e-4, 0.3, 2000)  # |Ac|^2 at h = 1, inside |A|^2 <= 0.8 |H|^2
    d *= np.sqrt(x / 2)[:, None] / np.linalg.norm(d, axis=1, keepdims=True)
    assert (z_ratio(np.ones(2000), *d.T, gamma=1 / 30) > 0).all()
