import dataclasses
import math

import numpy as np
import pytest

import codim2flow.flow as flowmod
import codim2flow.mesh as meshmod
from codim2flow.builders import ellipsoid_plus_bump, icosphere, product_torus
from codim2flow.cli import SCENARIO_PRESETS, build_surface, flow_config
from codim2flow.errors import (
    EpsilonZNotPositive,
    InsufficientDynamicRange,
    NoBlowupDetected,
    NonFiniteStep,
    StepTooLarge,
)
from codim2flow.flow import (
    CG_MAX_ITER,
    CG_RTOL,
    TRACE_COLUMNS,
    FlowConfig,
    FlowTrace,
    TraceRow,
    _cn_solve,
    _crank_nicolson_displacement,
    _jacobi_cg,
    _normal_part,
    _triangle_inverted,
    decay_exponent_fit,
    finite_number,
    monitors,
    poincare_check,
    run_flow,
    step_mcf,
    type_i_rescale,
)
from codim2flow.mesh import recover_geometry, stiffness_operator


def small_cfg(**kw):
    kw.setdefault("epsilon_z", 0.048)
    return FlowConfig(**kw)


@pytest.fixture(scope="module")
def sphere_run():
    m = icosphere(1.0, 3)
    cfg = small_cfg(stop_a2=2.0 / 0.08 ** 2, output_every=5, poincare_every=100)
    return run_flow(m, cfg)


@pytest.fixture(scope="module")
def pinched_run():
    m = ellipsoid_plus_bump(1.2, 1.0, 0.9, 0.05, subdivisions=3)
    cfg = small_cfg(output_every=2, poincare_every=40)
    recover_geometry(m)
    na2 = m.frame_h ** 2 / 2 + 2 * (m.frame_a ** 2 + m.frame_b ** 2 + m.frame_c ** 2)
    cfg.stop_a2 = 300.0 * float(np.max(na2))
    return run_flow(m, cfg)


# ---------------------------------------------------------------------------
# configuration


def test_gamma_defaults_to_gradient_budget():
    cfg = FlowConfig(k=29 / 40)
    assert cfg.gamma == pytest.approx(1 / 30)
    cfg2 = FlowConfig(k=0.6, gamma=0.5)
    assert cfg2.gamma == 0.5
    # bit-identical to the written-out 1 - 4k/3
    for k in (29 / 40, 0.6, 0.70305, 0.75, 1, 0.1 + 0.2):
        assert FlowConfig(k=k).gamma == 1.0 - 4.0 * k / 3.0


def test_cfl_validated():
    with pytest.raises(ValueError):
        FlowConfig(cfl=0.0)
    with pytest.raises(ValueError):
        FlowConfig(cfl=0.7)


@pytest.mark.parametrize("v", [True, "1", None, [1], math.nan, math.inf, -math.inf,
                               10 ** 400, -(10 ** 400)])
def test_finite_number_refuses_what_no_float_holds(v):
    for integral in (False, True):
        with pytest.raises(ValueError, match="^x must be a finite"):
            finite_number("x", v, integral=integral)


def test_finite_number_reads_whole_numbers_as_integers():
    assert finite_number("x", 2) == 2 and finite_number("x", -1e308) == -1e308
    assert type(finite_number("x", 3.0, integral=True)) is int
    assert finite_number("x", 10 ** 300, integral=True) == 10 ** 300
    with pytest.raises(ValueError, match="x must be a finite integer, got 2.5"):
        finite_number("x", 2.5, integral=True)


def test_epsilon_z_resolution():
    cfg = FlowConfig()
    ez = cfg.resolved_epsilon_z()
    assert 0 < ez < 0.06
    with pytest.raises(ValueError, match="epsilon_z"):
        FlowConfig(epsilon_z=-1.0)


# ---------------------------------------------------------------------------
# stepping


def test_single_step_first_order_consistency():
    m = icosphere(1.0, 2)
    recover_geometry(m)
    area0 = m.total_area()
    int_h2 = float(np.sum(np.einsum("ni,ni->n", m.mean_curv_cot, m.mean_curv_cot)
                          * m.vertex_area))
    m2, dt = step_mcf(m, small_cfg(redistribution=0.0))
    # positions move by O(dt), area drops by dt * int |H|^2 + O(dt^2)
    disp = np.linalg.norm(m2.vertices - m.vertices, axis=1).max()
    assert disp <= dt * (1.01 * np.linalg.norm(m.mean_curv_cot, axis=1).max())
    darea = area0 - m2.total_area()
    assert darea == pytest.approx(dt * int_h2, rel=0.02)


def test_step_dt_rule():
    m = icosphere(1.0, 2)
    recover_geometry(m)
    na2 = m.frame_h ** 2 / 2 + 2 * (m.frame_a ** 2 + m.frame_b ** 2 + m.frame_c ** 2)
    # the curvature bound alone, one solve per attempt
    m2, dt = step_mcf(m, small_cfg(cfl=0.01))
    assert dt == pytest.approx(0.01 / float(np.max(na2)), rel=1e-12)
    info = m2.step_info
    assert (info.dt, info.nominal_dt, info.rejections) == (dt, dt, [])
    assert len(info.cg_iterations) == 1
    assert all(0 < it < CG_MAX_ITER for it in info.cg_iterations)


def test_step_info_records_each_rejection(monkeypatch):
    m = recover_geometry(icosphere(1.0, 2))
    real = flowmod._triangle_inverted
    calls = []

    def inverted_once(p, q):
        calls.append(1)
        return len(calls) == 1 or real(p, q)

    monkeypatch.setattr(flowmod, "_triangle_inverted", inverted_once)
    m2, dt = step_mcf(m, small_cfg(cfl=0.05))
    info = m2.step_info
    assert info.rejections == ["inversion"]
    assert info.dt == dt == 0.5 * info.nominal_dt
    assert len(info.cg_iterations) == 2


def test_run_flow_totals_cg_iterations_over_every_attempt(monkeypatch):
    # the first step's first attempt is rejected, and its solve still counts
    real = flowmod._triangle_inverted
    calls = []

    def inverted_once(p, q):
        calls.append(1)
        return len(calls) == 1 or real(p, q)

    monkeypatch.setattr(flowmod, "_triangle_inverted", inverted_once)
    cfg = small_cfg(max_steps=3, poincare_every=100)
    result = run_flow(icosphere(1.0, 2), cfg)
    assert result.rejections == {"inversion": 1, "area": 0}
    calls.clear()
    mesh, per_attempt = recover_geometry(icosphere(1.0, 2)), []
    for _ in range(3):
        mesh = step_mcf(mesh, cfg)[0]
        per_attempt += mesh.step_info.cg_iterations
    assert len(per_attempt) == 4 and min(per_attempt) > 0
    assert result.cg_iterations == sum(per_attempt)


def test_nonfinite_candidate_is_never_accepted():
    # a NaN candidate fails neither the inversion nor the area test; a NaN
    # normal reaches the candidate through the displacement's projection
    m = recover_geometry(icosphere(1.0, 2))
    m.normal[0] = np.nan
    with pytest.raises(NonFiniteStep, match="non-finite candidate"):
        step_mcf(m, small_cfg())


def test_step_info_records_cotan_jet_gap():
    # the jet-fit and cotan |H| agree to a few percent on a coarse sphere; on
    # the flattened ellipsoid (a3 = 0.1) the jet fit fails at its sharp rim,
    # and a gap of order one or more is a failed fit (healthy runs read 0.02-0.1)
    m = step_mcf(recover_geometry(icosphere(1.0, 2)), small_cfg())[0]
    h_cot = np.linalg.norm(m.mean_curv_cot, axis=1)
    assert m.step_info.h_gap == np.max(np.abs(m.frame_h - h_cot) / h_cot)
    assert 0 < m.step_info.h_gap < 0.05
    bump = recover_geometry(ellipsoid_plus_bump(1.0, 1.0, 0.1, 0.0, subdivisions=3))
    assert step_mcf(bump, small_cfg())[0].step_info.h_gap > 1


def test_cg_columns_converge_independently(rng):
    # a zero row is done at once and a converged row is left alone:
    # dividing by its vanished residual would turn it into NaN
    q = rng.standard_normal((30, 30))
    k = q @ q.T + 30 * np.eye(30)
    b = np.stack([rng.standard_normal(30), np.zeros(30), 1e-6 * rng.standard_normal(30)])
    # rows p of a block are fields, so K p^T is the block p K (K symmetric)
    x, iters = _jacobi_cg(lambda p: p @ k, np.diag(k).copy(), b)
    assert np.all(x[1] == 0) and 0 < iters < 30
    res = np.linalg.norm(b - x @ k, axis=1)
    assert np.all(res <= CG_RTOL * np.linalg.norm(b, axis=1))


def test_cg_failure_raises(monkeypatch):
    with pytest.raises(NonFiniteStep, match="non-finite"):
        _jacobi_cg(lambda p: p, np.ones(3), np.array([[np.nan, 0.0, 1.0]]))
    monkeypatch.setattr(flowmod, "CG_MAX_ITER", 2)
    m = recover_geometry(icosphere(1.0, 2))
    with pytest.raises(NonFiniteStep, match="not converged"):
        step_mcf(m, small_cfg(cfl=0.01))


@pytest.mark.parametrize("preset", ["sphere_r1", "pinched_ellipsoid"])
def test_cg_residual_within_tolerance(preset):
    sc = SCENARIO_PRESETS[preset]
    m = recover_geometry(build_surface(sc))
    # the step size the preset would take
    dt = flow_config(sc).cfl / float(np.max(m.norm_a2()))
    d, iters = _cn_solve(m, m.vertex_area, dt, m.vertices)
    assert d.shape == m.vertices.shape
    product, _ = stiffness_operator(m)
    b = -dt * product(m.vertices.T)
    res = b - (m.vertex_area * d.T + 0.5 * dt * product(d.T))
    assert np.all(np.linalg.norm(res, axis=1) <= CG_RTOL * np.linalg.norm(b, axis=1))
    assert 0 < iters < CG_MAX_ITER


@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_cn_solve_matches_dense_solve(scale):
    # the dense oracle: K = M + dt/2 A from the product of the identity, at
    # the preset's step size and at 100 times it, where A dominates K
    m = recover_geometry(icosphere(1.0, 2))
    n = m.n_vertices
    product, _ = stiffness_operator(m)
    a = product(np.eye(n))
    dt = scale * 0.01 / float(np.max(m.norm_a2()))
    k = np.diag(m.vertex_area) + 0.5 * dt * a
    ref = np.linalg.solve(k, -dt * a @ m.vertices)
    d, _ = _cn_solve(m, m.vertex_area, dt, m.vertices)
    # each row stops at |r| <= CG_RTOL |b|, and |D - D*| = |K^-1 r| <= |K^-1| CG_RTOL |K D*|,
    # so |D - D*| <= cond(K) CG_RTOL |D*| per coordinate; the dense solve adds cond(K) eps.
    # The mesh lies in R^3, so its fourth coordinate must come out exactly 0
    cond = np.linalg.cond(k)
    assert cond < 1e3
    bound = cond * (CG_RTOL + 64 * np.finfo(float).eps) * np.linalg.norm(ref, axis=0)
    assert np.all(np.linalg.norm(d - ref, axis=0) <= bound)


T_ORDER = 0.02


@pytest.fixture(scope="module")
def fixed_dt_runs():
    """Vertices of icosphere(1, 3) at t = T_ORDER after n equal steps, by scheme.

    The displacements are the steps' own, without the tangential
    relaxation, so the time error is the scheme's alone.
    """
    def run(scheme, n):
        m, dt = recover_geometry(icosphere(1.0, 3)), T_ORDER / n
        for _ in range(n):
            if scheme == "explicit":
                d = dt * _normal_part(m.normal, m.mean_curv_cot)
            else:
                d, _ = _crank_nicolson_displacement(m, dt)
            m = recover_geometry(m.with_vertices(m.vertices + d))
        return m.vertices

    runs = {(s, n): run(s, n) for s in ("explicit", "crank_nicolson") for n in (4, 8, 16)}
    runs["reference"] = run("crank_nicolson", 64)
    return runs


@pytest.mark.parametrize("scheme, low, high", [("crank_nicolson", 3.2, 5.0),
                                               ("explicit", 1.7, 2.3)])
def test_time_error_order(fixed_dt_runs, scheme, low, high):
    # error against a small-dt Crank-Nicolson run on the same mesh, so the
    # spatial error cancels: second order falls 4x per halving of dt, first order 2x
    errs = [np.abs(fixed_dt_runs[scheme, n] - fixed_dt_runs["reference"]).max()
            for n in (4, 8, 16)]
    for coarse, fine in zip(errs, errs[1:]):
        assert low < coarse / fine < high


def test_schemes_agree_to_first_order(fixed_dt_runs):
    for n in (4, 8, 16):
        gap = np.abs(fixed_dt_runs["crank_nicolson", n] - fixed_dt_runs["explicit", n]).max()
        assert gap <= 0.1 * T_ORDER / n


def test_nan_frame_entry_keeps_dt_and_stop_rules(monkeypatch):
    # |H| <= TOL_H leaves NaN in the special-frame fields; the curvature bound
    # on dt and the stop rule must not depend on them
    import codim2flow.flow as flowmod
    recover = flowmod.recover_geometry

    def recover_with_nan(mesh):
        recover(mesh)
        mesh.frame_a[0] = np.nan
        return mesh

    monkeypatch.setattr(flowmod, "recover_geometry", recover_with_nan)
    m = recover_with_nan(ellipsoid_plus_bump(1.0, 1.0, 0.2, 0.0, subdivisions=3))
    max_a2 = float(np.max(m.norm_a2()))
    cfg = small_cfg(cfl=0.1)
    _, dt = step_mcf(m, cfg)
    assert dt == pytest.approx(cfg.cfl / max_a2)

    cfg = small_cfg(cfl=0.1, stop_a2=2.2, max_steps=200, output_every=1000,
                    poincare_every=1000)
    result = run_flow(icosphere(1.0, 2), cfg)
    assert result.status == "blowup_threshold"
    assert result.trace.rows[-1].step < 200


def test_step_too_large_after_halvings(monkeypatch):
    m = icosphere(1.0, 2)
    recover_geometry(m)
    # force every candidate to report an area increase
    monkeypatch.setattr("codim2flow.flow._triangle_inverted", lambda *a: True)
    with pytest.raises(StepTooLarge):
        step_mcf(m, small_cfg())


def test_triangle_inversion_is_projected_orientation(rng):
    # reference: the new triangle's orientation in an orthonormal frame of the old plane
    for _ in range(200):
        old, new = rng.standard_normal((2, 3, 4))
        e1 = (old[1] - old[0]) / np.linalg.norm(old[1] - old[0])
        e2 = old[2] - old[0] - ((old[2] - old[0]) @ e1) * e1
        e2 /= np.linalg.norm(e2)
        u, v = new[1] - new[0], new[2] - new[0]
        signed = (u @ e1) * (v @ e2) - (u @ e2) * (v @ e1)
        assert _triangle_inverted(old[None], new[None]) == (signed <= 0)


def test_sphere_radius_tracks_exact_solution(sphere_run):
    # r(t) = sqrt(1 - 4t) for the unit 2-sphere in R^4
    for row in sphere_run.trace.rows:
        r_exact = math.sqrt(max(1 - 4 * row.t, 1e-12))
        if r_exact < 0.25:
            break
        r_est = 2.0 / row.minH
        assert abs(r_est - r_exact) / r_exact < 0.03


def test_torus_factor_radii_track_exact_solution():
    m = product_torus(1.0, 1.0, 32, 32)
    cfg = small_cfg(stop_a2=2.0 / 0.4 ** 2, output_every=1000)
    recover_geometry(m)
    t = 0.0
    while True:
        r_exact = math.sqrt(max(1 - 2 * t, 0.0))
        if r_exact <= 0.45:
            break
        r1 = np.hypot(m.vertices[:, 0], m.vertices[:, 1]).mean()
        r2 = np.hypot(m.vertices[:, 2], m.vertices[:, 3]).mean()
        assert abs(r1 - r_exact) / r_exact < 0.02
        assert abs(r2 - r_exact) / r_exact < 0.02
        m, dt = step_mcf(m, cfg)
        t += dt


# ---------------------------------------------------------------------------
# trace and monitors


def test_trace_columns_and_round_trip(tmp_path, sphere_run):
    path = tmp_path / "trace.csv"
    sphere_run.trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == TRACE_COLUMNS
    assert len(lines) == 1 + len(sphere_run.trace.rows)
    last = dict(zip(TRACE_COLUMNS, lines[-1].split(",")))
    assert float(last["maxA2"]) == sphere_run.trace.rows[-1].maxA2


def test_trace_monotonicity_enforced():
    tr = FlowTrace()
    tr.append(TraceRow(0, 0.0, 0.0, 1, 1, -1, 0, 10.0, 0, 1, 0.1, 0.0, 0.0))
    with pytest.raises(ValueError):
        tr.append(TraceRow(1, 0.0, 0.0, 1, 1, -1, 0, 9.0, 0, 1, 0.1, 0.0, 0.0))
    with pytest.raises(ValueError):
        tr.append(TraceRow(1, 0.5, 0.5, 1, 1, -1, 0, 11.0, 0, 1, 0.1, 0.0, 0.0))


def test_area_strictly_decreasing(sphere_run):
    areas = sphere_run.trace.column("area")
    assert np.all(np.diff(areas) < 0)


def test_position_bound_holds(sphere_run):
    slack = sphere_run.trace.column("posBoundSlack")
    assert slack.min() > -0.02  # r0 = 1
    # at t = 0 the slack is R0^2 - max|F|^2 = 0 by definition of R0
    assert sphere_run.trace.rows[0].posBoundSlack == pytest.approx(0.0, abs=1e-12)


def test_sphere_monitors(sphere_run):
    rows = sphere_run.trace.rows
    # Q/|H|^2 = 1/2 - k on a round sphere, scaled by homogeneity
    for row in rows:
        assert row.maxQ < 0
        assert row.maxQ == pytest.approx((0.5 - 29 / 40) * row.minH ** 2, rel=0.05)
    assert rows[0].maxQ == pytest.approx(-0.9, rel=0.05)
    # f_sigma stays at noise level on a round sphere
    assert max(r.maxFsigma for r in rows) < 1e-3


def test_clifford_monitor_flags_hypothesis_violation():
    m = product_torus(1.0, 1.0, 24, 24)
    recover_geometry(m)
    cfg = small_cfg()
    row = monitors(m, cfg, 0.0, r0=math.sqrt(2.0), with_poincare=False)
    assert row.maxQ > 0
    assert row.maxQ == pytest.approx((1 - 29 / 40) * 2.0, rel=0.05)


def test_z_ratio_monitor_positive_on_pinched_data(pinched_run):
    z = pinched_run.trace.column("zRatioMin")
    z = z[~np.isnan(z)]
    assert z.size > 0 and z.min() > 0


# ---------------------------------------------------------------------------
# Poincare-type inequality


def test_poincare_trivial_on_sphere():
    m = icosphere(1.0, 3)
    recover_geometry(m)
    lhs, rhs = poincare_check(m, p=2.0, eta=1.0, sigma=0.05, gamma=1 / 30, epsilon_z=0.048)
    # f_sigma is fit noise on the round sphere; both sides vanish to noise
    assert lhs < 1e-10
    assert rhs >= 0


def test_poincare_holds_on_perturbed_sphere():
    m = ellipsoid_plus_bump(1.2, 1.0, 0.9, 0.05, subdivisions=3)
    recover_geometry(m)
    for p in (2.0, 10.0):
        lhs, rhs = poincare_check(m, p=p, eta=1.0, sigma=0.05, gamma=1 / 30, epsilon_z=0.048)
        assert lhs <= 1.25 * rhs
        assert rhs > 0


def test_poincare_rhs_scales_with_p():
    m = ellipsoid_plus_bump(1.15, 1.0, 0.92, 0.04, subdivisions=2)
    recover_geometry(m)
    # coefficient structure: halving epsilon_z doubles the bound
    _, rhs_small = poincare_check(m, p=2.0, eta=1.0, sigma=0.05, gamma=1 / 30, epsilon_z=0.048)
    _, rhs_large = poincare_check(m, p=2.0, eta=1.0, sigma=0.05, gamma=1 / 30, epsilon_z=0.024)
    assert rhs_large == pytest.approx(2 * rhs_small, rel=1e-9)
    # coefficient structure: the gradient term carries the factor 4 p eta + 10
    # and the |Df|^2 term 3 (p - 1) / eta; rebuild the bound from the raw
    # integrals and match for both monitor exponents
    from codim2flow.mesh import shape_gradient_norm2, vertex_gradients
    sigma, gamma, eps_z = 0.05, 1 / 30, 0.048
    h = m.frame_h
    f = (2 * (m.frame_a ** 2 + m.frame_b ** 2 + m.frame_c ** 2)
         + 2 * gamma * np.abs(2 * m.frame_a * m.frame_c)) / h ** (2 * (1 - sigma))
    grad_a2 = shape_gradient_norm2(m)
    gf = vertex_gradients(m, f)
    grad_f2 = np.einsum("na,na->n", gf, gf)
    for p in (2.0, 10.0):
        i1 = float(np.sum(f ** (p - 1) * grad_a2 / h ** (2 * (1 - sigma)) * m.vertex_area))
        i2 = float(np.sum(f ** (p - 2) * grad_f2 * m.vertex_area))
        expected = (4 * p + 10) / eps_z * i1 + 3 * (p - 1) / eps_z * i2
        _, rhs = poincare_check(m, p=p, eta=1.0, sigma=sigma, gamma=gamma, epsilon_z=eps_z)
        assert rhs == pytest.approx(expected, rel=1e-12)


def test_poincare_validates_inputs():
    m = icosphere(1.0, 2)
    recover_geometry(m)
    with pytest.raises(EpsilonZNotPositive):
        poincare_check(m, 2.0, 1.0, 0.05, 1 / 30, 0.0)
    with pytest.raises(ValueError):
        poincare_check(m, 1.0, 1.0, 0.05, 1 / 30, 0.048)


def test_fsigma_integral_monotone_on_pinched_run(pinched_run):
    vals = pinched_run.trace.column("intFsigmaP")
    running_min = np.minimum.accumulate(vals)
    assert np.all(vals <= 1.02 * np.maximum(running_min, 1e-300))


# ---------------------------------------------------------------------------
# blowup analysis


def test_pinched_run_reaches_threshold(pinched_run):
    assert pinched_run.status == "blowup_threshold"
    assert pinched_run.trace.rows[-1].maxA2 >= pinched_run.stop_a2


def test_pinched_run_jet_gap_is_the_cotan_error(pinched_run):
    # every vertex keeps the quartic fit, so the gap is the cotan |H|'s own
    # pointwise error; a quadratic fit at the valence-5 vertices gives 0.0228
    assert pinched_run.max_h_gap < 0.015


def test_pinched_preset_keeps_the_quartic_fit_at_every_vertex(monkeypatch):
    # one quartic solve per block, and no quadratic one, in each recovery
    # of ten steps: valence-5 stencils stay on the quartic fit as they shear
    solves, per_fit = [], []

    def counted_solve(a, _real=meshmod._jet_solve):
        solves.append(a.shape[1])
        return _real(a)

    def counted_fit(*args, _real=meshmod._jet_fit):
        solves.clear()
        coef = _real(*args)
        per_fit.append((len(coef), list(solves)))
        return coef

    monkeypatch.setattr(meshmod, "_jet_solve", counted_solve)
    monkeypatch.setattr(meshmod, "_jet_fit", counted_fit)
    sc = SCENARIO_PRESETS["pinched_ellipsoid"]
    m, cfg = build_surface(sc), flow_config(sc)
    for _ in range(10):
        m = step_mcf(m, cfg)[0]
    assert len(per_fit) >= 11
    for n, sizes in per_fit:
        assert sizes == [15] * -(-n // meshmod.JET_BLOCK)


def test_pinching_preserved_on_pinched_run(pinched_run):
    max_q = pinched_run.trace.column("maxQ")
    assert max_q[0] < 0
    assert np.all(max_q < 0.05 * abs(max_q[0]))


def test_snapshots_past_drop_their_triangle_caches(sphere_run):
    snaps = sphere_run.snapshots
    assert sphere_run.status == "blowup_threshold" and len(snaps) > 2
    # the run ended on its last snapshot, the only mesh it still steps from
    assert all(s.mesh._tri is None for s in snaps[:-1])
    assert snaps[-1].mesh._tri is not None


def test_type_i_rescale_on_shrinking_sphere(sphere_run):
    rescaled = type_i_rescale(sphere_run.snapshots, sphere_run.stop_a2, gamma=1 / 30)
    for rs in rescaled:
        assert rs.max_pinch_numerator < 1e-3
    # peak curvature sequence increases toward the blowup
    lams = [rs.lam for rs in rescaled]
    assert all(l2 > l1 for l1, l2 in zip(lams, lams[1:]))


def test_type_i_rescale_roundness_improves(pinched_run):
    rescaled = type_i_rescale(pinched_run.snapshots, pinched_run.stop_a2, gamma=1 / 30)
    nums = [rs.max_pinch_numerator for rs in rescaled]
    assert nums[-1] < nums[0]


def test_type_i_rescale_agrees_with_the_trace(pinched_run):
    # each snapshot step has a trace row, and both divide the same maximum by the same lam^2
    rescaled = type_i_rescale(pinched_run.snapshots, pinched_run.stop_a2, small_cfg().gamma)
    rows = {row.step: row for row in pinched_run.trace.rows}
    assert len(rescaled) > 2
    for rs in rescaled:
        assert rs.max_pinch_numerator == rows[rs.step].rescaledMaxAcirc2
        assert np.nanmax(rs.fields["h"]) == 1.0


def test_no_blowup_detected():
    m = icosphere(1.0, 2)
    cfg = small_cfg(max_steps=3, stop_a2=1e6, output_every=1)
    res = run_flow(m, cfg)
    assert res.status == "max_steps"
    with pytest.raises(NoBlowupDetected):
        type_i_rescale(res.snapshots, res.stop_a2, gamma=1 / 30)


def test_decay_fit_requires_dynamic_range(sphere_run):
    with pytest.raises(InsufficientDynamicRange):
        tr = FlowTrace()
        tr.rows = sphere_run.trace.rows[:5]
        decay_exponent_fit(tr)


def test_nan_frame_entry_keeps_trace_max_a2_and_decay_guard(pinched_run):
    # the trace's maxA2 is the |A|^2 the stop rule reads, and a NaN in that
    # column fails the decay fit's dynamic-range guard
    m = recover_geometry(icosphere(1.0, 2))
    m.frame_a[0] = np.nan
    row = monitors(m, small_cfg(), 0.0, r0=1.0, with_poincare=False)
    assert row.maxA2 == float(np.max(m.norm_a2()))
    tr = FlowTrace()
    tr.rows = list(pinched_run.trace.rows)
    tr.rows[0] = dataclasses.replace(tr.rows[0], maxA2=float("nan"))
    with pytest.raises(InsufficientDynamicRange):
        decay_exponent_fit(tr)


def test_decay_fit_degenerate_on_sphere(sphere_run):
    c0, delta = decay_exponent_fit(sphere_run.trace)
    assert delta == 2.0 and c0 == 0.0


def test_decay_fit_positive_delta_on_pinched_run(pinched_run):
    c0, delta = decay_exponent_fit(pinched_run.trace)
    assert delta > 0
    assert c0 > 0


def test_decay_fit_stable_under_refinement(pinched_run):
    m = ellipsoid_plus_bump(1.2, 1.0, 0.9, 0.05, subdivisions=2)
    cfg = small_cfg(output_every=2, poincare_every=10 ** 9)
    recover_geometry(m)
    na2 = m.frame_h ** 2 / 2 + 2 * (m.frame_a ** 2 + m.frame_b ** 2 + m.frame_c ** 2)
    cfg.stop_a2 = 300.0 * float(np.max(na2))
    coarse = run_flow(m, cfg)
    _, d_coarse = decay_exponent_fit(coarse.trace)
    _, d_fine = decay_exponent_fit(pinched_run.trace)
    assert abs(d_fine - d_coarse) <= 0.2 * abs(d_fine)
