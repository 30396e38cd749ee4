import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codim2flow.curvature import SpecialFrameState
from codim2flow.gradients import (
    _WEIGHTS,
    GradientState,
    check_gradient_inequalities,
    grad_kperp,
    grad_kperp_bound_fields,
    grad_kperp_closed,
    gradient_norms,
    gradient_slacks,
    kperp_cross,
    kperp_cross_raw,
    sweep_inequalities,
    trace_part,
)

comp4 = st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4)


def grad_states():
    return st.builds(GradientState, u=comp4, v=comp4)


# ---------------------------------------------------------------------------
# norms


def test_norm_grad_a2_values():
    u = np.array([[1, 0, 0, 0], [0.75, 0, 0.25, 0], [0, 0, 0, 0]])
    assert gradient_norms(u, np.zeros_like(u))[0].tolist() == [1.0, 0.75, 0.0]


def test_norm_grad_h2_values():
    u = np.array([[1, 0, 0, 0], [1, 0, -1, 0], [0.75, 0, 0.25, 0]])
    assert gradient_norms(u, np.zeros_like(u))[1].tolist() == [1.0, 0.0, 1.0]


@settings(max_examples=150, deadline=None)
@given(grad_states())
def test_norm_grad_a2_matches_full_tensor_sum(g):
    tot = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for al in range(2):
                    tot += g.component(i, j, k, al) ** 2
    assert gradient_norms(g.u, g.v)[0] == pytest.approx(tot, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# trace / trace-free splitting


def test_decompose_ef_pure_trace_witness():
    u, v = np.array([0.75, 0, 0.25, 0]), np.zeros(4)
    assert np.allclose(trace_part(u), u) and np.allclose(trace_part(v), 0)
    na2, nh2 = gradient_norms(u, v)
    assert na2 == pytest.approx(0.75 * nh2, abs=1e-15)


def test_decompose_ef_trace_free():
    assert np.allclose(trace_part(np.array([1, 0, -1, 0])), 0)


@settings(max_examples=200, deadline=None)
@given(grad_states())
def test_decompose_ef_orthogonal_pythagoras(g):
    # DA = E + F with E = trace_part of each normal slot
    eu, ev = trace_part(g.u), trace_part(g.v)
    fu, fv = g.u - eu, g.v - ev
    na2, nh2 = gradient_norms(g.u, g.v)
    e2, f2 = gradient_norms(eu, ev)[0], gradient_norms(fu, fv)[0]
    # weighted inner product with the symmetric-pattern multiplicities
    w = np.array([1.0, 3.0, 3.0, 1.0])
    assert abs(w @ (eu * fu) + w @ (ev * fv)) <= 1e-12 * (1 + na2)
    assert abs(e2 + f2 - na2) <= 1e-12 * (1 + na2)
    assert abs(e2 - 0.75 * nh2) <= 1e-12 * (1 + na2)
    # F is trace free
    assert gradient_norms(fu, fv)[1] <= 1e-12 * (1 + na2)


# ---------------------------------------------------------------------------
# K-perp evolution cross term


def test_nabla_evol_kperp_needs_both_normals():
    assert kperp_cross(np.array([1.0, 2, 3, 4]), np.zeros(4)) == 0.0


def test_nabla_evol_kperp_unit_example():
    assert kperp_cross(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0])) == 1.0


@settings(max_examples=300, deadline=None)
@given(grad_states())
def test_nabla_evol_kperp_raw_sum_oracle(g):
    closed = kperp_cross(g.u, g.v)
    raw = kperp_cross_raw(g.u, g.v)
    assert abs(closed - raw) <= 1e-12 * (1 + abs(raw))


def test_kperp_cross_raw_batch_matches_scalar_raw_sum(rng):
    samples = rng.standard_normal((500, 8))
    raw = kperp_cross_raw(samples[:, :4], samples[:, 4:])
    assert raw.shape == (500,)
    for row, r in zip(samples, raw):
        assert r == pytest.approx(kperp_cross_raw(row[:4], row[4:]), rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# the three gradient inequalities


def test_equality_witness_first_inequality_exact():
    g = GradientState([0.75, 0, 0.25, 0], [0, 0, 0, 0])
    sl = check_gradient_inequalities(g)
    assert sl.trace_bound == 0.0


def test_zero_state_all_slacks_zero():
    sl = check_gradient_inequalities(GradientState([0] * 4, [0] * 4))
    assert sl.trace_bound == 0.0 and sl.traceless_bound == 0.0 and sl.kperp_evol_bound == 0.0


def test_inequalities_random_sweep(rng):
    samples = rng.standard_normal((10 ** 6, 8))
    report = sweep_inequalities(samples)
    for name, entry in report.items():
        assert entry["slack_min"] >= -1e-12, name


def test_gradient_slacks_batch_matches_scalar_rows(rng):
    samples = rng.standard_normal((500, 8))
    na2, batch = gradient_slacks(samples[:, :4], samples[:, 4:])
    for i, row in enumerate(samples):
        g = GradientState(row[:4], row[4:])
        sl = check_gradient_inequalities(g)
        # a batched matmul may sum the weighted squares in another order
        assert gradient_norms(g.u, g.v)[0] == pytest.approx(na2[i], rel=1e-14)
        tol = 1e-14 * (1 + na2[i])
        assert sl.trace_bound == pytest.approx(batch.trace_bound[i], rel=0, abs=tol)
        assert sl.traceless_bound == pytest.approx(batch.traceless_bound[i], rel=0, abs=tol)
        assert sl.kperp_evol_bound == pytest.approx(batch.kperp_evol_bound[i], rel=0, abs=tol)


def test_kperp_evol_equality_family():
    # two-parameter family where the third inequality is an equality
    for t in (0.0, 0.5, 1.7, -2.3):
        g = GradientState([-t, 1, t, -1], [-1, -t, 1, t])
        sl = check_gradient_inequalities(g)
        assert abs(sl.kperp_evol_bound) <= 1e-12 * (1 + gradient_norms(g.u, g.v)[0])


def exact_min_slack_kperp_evol() -> float:
    """Exact minimum slack of the third inequality on the unit sphere.

    Solves the symmetric 8x8 eigenvalue problem for the cross-term quadratic
    form in the weighted metric.
    """
    w = np.concatenate([_WEIGHTS, _WEIGHTS])
    # cross term as a symmetric bilinear form on (u, v)
    m = np.zeros((8, 8))
    pairs = [((0, 5), 1.0), ((1, 4), -1.0), ((1, 6), 2.0), ((2, 5), -2.0),
             ((2, 7), 1.0), ((3, 6), -1.0)]
    for (i, j), coef in pairs:
        m[i, j] += coef / 2
        m[j, i] += coef / 2
    d = 1.0 / np.sqrt(w)
    mw = d[:, None] * m * d[None, :]
    lam_max = float(np.linalg.eigvalsh(mw)[-1])
    return 1.0 - 2.0 * lam_max


def test_exact_min_slack_kperp_evol_is_zero():
    assert exact_min_slack_kperp_evol() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# |grad K-perp| <= 4 |A-circ| |grad A|


def test_grad_kperp_zero_gradient():
    lhs, rhs = grad_kperp_bound_fields(2.0, 0.3, -0.1, 0.4, np.zeros(4), np.zeros(4))
    assert lhs == 0.0 and rhs == 0.0


def test_grad_kperp_vanishes_at_umbilic(rng):
    u, v = rng.standard_normal((2, 50, 4))
    lhs, rhs = grad_kperp_bound_fields(3.7, 0.0, 0.0, 0.0, u, v)
    assert (rhs == 0.0).all()
    assert (lhs <= 1e-13 * (1 + gradient_norms(u, v)[0])).all()


def test_grad_kperp_matches_product_rule_sum(rng):
    # closed-form batch kernel vs the per-state product-rule expansion
    n = 200
    a, b, c = rng.standard_normal((3, n))
    u, v = rng.standard_normal((2, n, 4))
    d1, d2 = grad_kperp_closed(a, b, c, u, v)
    for i in range(n):
        s = SpecialFrameState(abs(rng.standard_normal()) + 0.1, a[i], b[i], c[i])
        gk = grad_kperp(s, GradientState(u[i], v[i]))
        assert gk[0] == pytest.approx(d1[i], rel=1e-12, abs=1e-12)
        assert gk[1] == pytest.approx(d2[i], rel=1e-12, abs=1e-12)


def test_grad_kperp_bound_sweep(rng):
    n = 10 ** 4
    h = np.abs(rng.standard_normal(n)) + 0.1
    a, b, c = rng.standard_normal((3, n))
    u, v = rng.standard_normal((2, n, 4))
    lhs, rhs = grad_kperp_bound_fields(h, a, b, c, u, v)
    assert (lhs <= rhs + 1e-12 * (1 + rhs)).all()
