import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codim2flow.curvature import SpecialFrameState
from codim2flow.gradients import (
    GradientState,
    check_gradient_inequalities,
    decompose_ef,
    exact_min_slack_kperp_evol,
    grad_kperp,
    grad_kperp_bound,
    grad_kperp_closed,
    gradient_slacks,
    kperp_cross_raw,
    nabla_evol_kperp,
    nabla_evol_kperp_raw,
    norm_grad_a2,
    norm_grad_h2,
    sweep_inequalities,
)

comp4 = st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4)


def grad_states():
    return st.builds(GradientState, u=comp4, v=comp4)


# ---------------------------------------------------------------------------
# norms


def test_norm_grad_a2_values():
    assert norm_grad_a2(GradientState([1, 0, 0, 0], [0, 0, 0, 0])) == 1.0
    assert norm_grad_a2(GradientState([0.75, 0, 0.25, 0], [0, 0, 0, 0])) == 0.75
    assert norm_grad_a2(GradientState([0, 0, 0, 0], [0, 0, 0, 0])) == 0.0


def test_norm_grad_h2_values():
    assert norm_grad_h2(GradientState([1, 0, 0, 0], [0, 0, 0, 0])) == 1.0
    assert norm_grad_h2(GradientState([1, 0, -1, 0], [0, 0, 0, 0])) == 0.0
    assert norm_grad_h2(GradientState([0.75, 0, 0.25, 0], [0, 0, 0, 0])) == 1.0


@settings(max_examples=150, deadline=None)
@given(grad_states())
def test_norm_grad_a2_matches_full_tensor_sum(g):
    tot = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for al in range(2):
                    tot += g.component(i, j, k, al) ** 2
    assert norm_grad_a2(g) == pytest.approx(tot, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# trace / trace-free splitting


def test_decompose_ef_pure_trace_witness():
    g = GradientState([0.75, 0, 0.25, 0], [0, 0, 0, 0])
    e, f = decompose_ef(g)
    assert np.allclose(e.u, g.u) and np.allclose(e.v, g.v)
    assert np.allclose(f.u, 0) and np.allclose(f.v, 0)
    assert norm_grad_a2(g) == pytest.approx(0.75 * norm_grad_h2(g), abs=1e-15)


def test_decompose_ef_trace_free():
    g = GradientState([1, 0, -1, 0], [0, 0, 0, 0])
    e, f = decompose_ef(g)
    assert np.allclose(e.u, 0) and np.allclose(e.v, 0)
    assert np.allclose(f.u, g.u) and np.allclose(f.v, g.v)


@settings(max_examples=200, deadline=None)
@given(grad_states())
def test_decompose_ef_orthogonal_pythagoras(g):
    e, f = decompose_ef(g)
    na2 = norm_grad_a2(g)
    assert np.allclose(e.u + f.u, g.u) and np.allclose(e.v + f.v, g.v)
    # weighted inner product with the symmetric-pattern multiplicities
    w = np.array([1.0, 3.0, 3.0, 1.0])
    assert abs(w @ (e.u * f.u) + w @ (e.v * f.v)) <= 1e-12 * (1 + na2)
    assert abs(norm_grad_a2(e) + norm_grad_a2(f) - na2) <= 1e-12 * (1 + na2)
    assert abs(norm_grad_a2(e) - 0.75 * norm_grad_h2(g)) <= 1e-12 * (1 + na2)
    # F is trace free
    assert norm_grad_h2(f) <= 1e-12 * (1 + na2)


# ---------------------------------------------------------------------------
# K-perp evolution cross term


def test_nabla_evol_kperp_needs_both_normals():
    assert nabla_evol_kperp(GradientState([1, 2, 3, 4], [0, 0, 0, 0])) == 0.0


def test_nabla_evol_kperp_unit_example():
    assert nabla_evol_kperp(GradientState([1, 0, 0, 0], [0, 1, 0, 0])) == 1.0


@settings(max_examples=300, deadline=None)
@given(grad_states())
def test_nabla_evol_kperp_raw_sum_oracle(g):
    closed = nabla_evol_kperp(g)
    raw = nabla_evol_kperp_raw(g)
    assert abs(closed - raw) <= 1e-12 * (1 + abs(raw))


def test_kperp_cross_raw_batch_matches_scalar_raw_sum(rng):
    samples = rng.standard_normal((500, 8))
    raw = kperp_cross_raw(samples[:, :4], samples[:, 4:])
    assert raw.shape == (500,)
    for row, r in zip(samples, raw):
        assert r == pytest.approx(nabla_evol_kperp_raw(GradientState(row[:4], row[4:])),
                                  rel=1e-14, abs=1e-14)


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
        assert norm_grad_a2(g) == pytest.approx(na2[i], rel=1e-14)
        tol = 1e-14 * (1 + na2[i])
        assert sl.trace_bound == pytest.approx(batch.trace_bound[i], rel=0, abs=tol)
        assert sl.traceless_bound == pytest.approx(batch.traceless_bound[i], rel=0, abs=tol)
        assert sl.kperp_evol_bound == pytest.approx(batch.kperp_evol_bound[i], rel=0, abs=tol)


def test_kperp_evol_equality_family():
    # two-parameter family where the third inequality is an equality
    for t in (0.0, 0.5, 1.7, -2.3):
        g = GradientState([-t, 1, t, -1], [-1, -t, 1, t])
        sl = check_gradient_inequalities(g)
        assert abs(sl.kperp_evol_bound) <= 1e-12 * (1 + norm_grad_a2(g))


def test_exact_min_slack_kperp_evol_is_zero():
    assert exact_min_slack_kperp_evol() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# |grad K-perp| <= 4 |A-circ| |grad A|


def test_grad_kperp_zero_gradient():
    s = SpecialFrameState(2.0, 0.3, -0.1, 0.4)
    lhs, rhs = grad_kperp_bound(s, GradientState([0] * 4, [0] * 4))
    assert lhs == 0.0 and rhs == 0.0


def test_grad_kperp_vanishes_at_umbilic(rng):
    s = SpecialFrameState(3.7, 0.0, 0.0, 0.0)
    for _ in range(50):
        g = GradientState(rng.standard_normal(4), rng.standard_normal(4))
        lhs, rhs = grad_kperp_bound(s, g)
        assert rhs == 0.0
        assert lhs <= 1e-13 * (1 + norm_grad_a2(g))


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
    for _ in range(10 ** 4):
        h = abs(rng.standard_normal()) + 0.1
        s = SpecialFrameState(h, *rng.standard_normal(3))
        g = GradientState(rng.standard_normal(4), rng.standard_normal(4))
        lhs, rhs = grad_kperp_bound(s, g)
        assert lhs <= rhs + 1e-12 * (1 + rhs)
