"""Mean curvature flow of closed surfaces in R^4 with monitors.

Each step moves every vertex along the normal part of a one-solve
Crank-Nicolson cotan displacement, with a timestep limited by the largest
curvature; a step that increases total area or inverts a triangle in its
own tangent projection is retried at half the step, up to ten halvings.

The trace records, per accepted step, the pinching and decay monitors
derived from the jet-fit curvature: extremes of |H|, |A|^2, the pinching
quantity Q, the weighted ratio f_sigma, integrals of f_sigma^p, the
enclosing-ball slack, the Simons-ratio floor, and the two sides of the
Poincare-type inequality.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .certifier import epsilon_z_scan, gamma_for_k
from .curvature import TOL_H, pinching_fields
from .errors import (
    EpsilonZNotPositive,
    InsufficientDynamicRange,
    NoBlowupDetected,
    NonFiniteStep,
    StepTooLarge,
)
from .mesh import (
    SurfaceMesh,
    centroid_offset,
    mixed_voronoi_areas,
    recover_geometry,
    shape_gradient_norm2,
    stiffness_operator,
    vertex_gradients,
    write_table,
)

TRACE_COLUMNS = ["step", "t", "dt", "minH", "maxA2", "maxQ", "maxFsigma", "area",
                 "intFsigmaP", "posBoundSlack", "zRatioMin", "poincareSlack",
                 "rescaledMaxAcirc2"]

# Each coordinate's conjugate-gradient solve stops once its residual is at
# most CG_RTOL times its right-hand side; CG_MAX_ITER iterations without
# that end the step with NonFiniteStep.
CG_RTOL = 1e-10
CG_MAX_ITER = 1000


def finite_number(name: str, v, integral: bool = False):
    """v, or int(v) if integral, when v is a finite (if integral, whole) number, else a ValueError
    naming name.  JSON reads NaN, Infinity and integers too large for any float."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or not abs(v) <= sys.float_info.max or integral and v != int(v)):
        raise ValueError(f"{name} must be a finite {'integer' if integral else 'number'}, got {v!r}")
    return int(v) if integral else v


@dataclass
class FlowConfig:
    k: float = 29.0 / 40.0
    gamma: float | None = None          # defaults to 1 - (4/3) k
    eps: float = 0.0
    sigma: float = 0.05
    p: float = 10.0
    # dt = cfl / max |A|^2.  At 0.01 (dt = r^2 / 200 on a sphere) the
    # sphere_r1 oracle holds its worst radius error to r = 0.2 at 0.062%;
    # the error grows 4x per doubling of cfl
    cfl: float = 0.01
    stop_a2: float | None = None        # defaults to stop_factor x initial max |A|^2
    stop_factor: float = 1e4
    max_steps: int = 100_000
    output_every: int = 1
    eta: float = 1.0
    epsilon_z: float | None = None      # defaults to the sampled floor at 0.8
    pinch_fraction: float = 0.8
    poincare_every: int = 25
    min_angle_deg: float = 5.0
    redistribution: float = 0.2         # per-step tangential relaxation factor

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None or f.default is not None:
                setattr(self, f.name, finite_number(f.name, v, integral=f.type == "int"))
        for name in ("max_steps", "output_every", "poincare_every", "stop_a2", "stop_factor",
                     "epsilon_z"):
            v = getattr(self, name)
            if v is not None and not (v > 0 or name == "max_steps" and v == 0):
                raise ValueError(f"{name} must be {'>= 0' if name == 'max_steps' else '> 0'}, got {v}")
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        # what poincare_check needs; the monitor would otherwise log NaN
        if not (self.p >= 2 and self.eta > 0 and 0 <= self.sigma < 1):
            raise ValueError(f"need p >= 2, eta > 0 and 0 <= sigma < 1, got p = {self.p}, "
                             f"eta = {self.eta}, sigma = {self.sigma}")
        if self.gamma is None:
            self.gamma = gamma_for_k(self.k)

    def resolved_epsilon_z(self) -> float:
        if self.epsilon_z is None:
            # the sampled floor depends on gamma and pinch_fraction alone
            floor = epsilon_z_scan(self.gamma, self.pinch_fraction,
                                   grid=100, random_samples=50_000, seed=0)
            if not floor > 0:
                raise ValueError(f"the sampled epsilon_z floor at gamma = {self.gamma}, "
                                 f"pinch_fraction = {self.pinch_fraction} is {floor}, not positive")
            self.epsilon_z = floor
        return self.epsilon_z


@dataclass
class TraceRow:
    step: int
    t: float
    dt: float
    minH: float
    maxA2: float
    maxQ: float
    maxFsigma: float
    area: float
    intFsigmaP: float
    posBoundSlack: float
    zRatioMin: float
    poincareSlack: float
    rescaledMaxAcirc2: float
    # extra diagnostics not part of the CSV contract
    maxH: float = 0.0
    maxPinchNumerator: float = 0.0


@dataclass
class FlowTrace:
    rows: list = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if self.rows:
            last = self.rows[-1]
            if row.t <= last.t:
                raise ValueError("trace time must be strictly increasing")
            if row.area >= last.area:
                raise ValueError("area must be strictly decreasing along the flow")
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=float)

    def to_csv(self, path) -> None:
        write_table(path, [TRACE_COLUMNS, *([getattr(r, c) for c in TRACE_COLUMNS]
                                            for r in self.rows)])


def poincare_check(mesh: SurfaceMesh, p: float, eta: float, sigma: float,
                   gamma: float, epsilon_z: float) -> tuple[float, float]:
    """Both sides of the Poincare-type integral inequality on the mesh.

    lhs = int f^p |H|^2 dmu;
    rhs = ((4 p eta + 10)/eps_Z) int f^(p-1) |DA|^2 / |H|^(2(1-sigma)) dmu
        + (3 (p-1)/(eps_Z eta)) int f^(p-2) |Df|^2 dmu.
    """
    if epsilon_z <= 0:
        raise EpsilonZNotPositive(f"epsilon_z = {epsilon_z}")
    if p < 2 or eta <= 0:
        raise ValueError("need p >= 2 and eta > 0")
    recover_geometry(mesh)
    h = mesh.frame_h
    if np.nanmin(h) <= TOL_H:
        raise ValueError("mean curvature vanishes somewhere; f_sigma undefined")
    f = pinching_fields(h, mesh.frame_a, mesh.frame_b, mesh.frame_c, gamma, sigma=sigma)["fsigma"]
    area = mesh.vertex_area
    grad_a2 = shape_gradient_norm2(mesh)
    grad_f = vertex_gradients(mesh, f)
    grad_f2 = np.einsum("na,na->n", grad_f, grad_f)

    lhs = float(np.sum(f ** p * h * h * area))
    term1 = (4 * p * eta + 10) / epsilon_z * np.sum(
        f ** (p - 1) * grad_a2 / h ** (2 * (1 - sigma)) * area)
    term2 = 3 * (p - 1) / (epsilon_z * eta) * np.sum(f ** (p - 2) * grad_f2 * area)
    return lhs, float(term1 + term2)


def monitors(mesh: SurfaceMesh, cfg: FlowConfig, t: float, r0: float,
             step: int = 0, dt: float = 0.0, with_poincare: bool = True) -> TraceRow:
    """One trace row of the pinching and decay monitors."""
    recover_geometry(mesh)
    fields_ = pinching_fields(mesh.frame_h, mesh.frame_a, mesh.frame_b, mesh.frame_c,
                              cfg.gamma, k=cfg.k, eps=cfg.eps, sigma=cfg.sigma)
    area = mesh.vertex_area
    na2 = mesh.norm_a2()  # the |A|^2 of the stop rule, finite where the frame is not
    h = fields_["h"]
    f = fields_["fsigma"]

    max_h = float(np.nanmax(h))
    pos_slack = r0 * r0 - 4.0 * t - float(np.max(np.einsum("ni,ni->n", mesh.vertices, mesh.vertices)))

    denom = fields_["pinch_num"] * h * h
    eligible = (na2 < (5.0 / 6.0) * h * h) & (denom > 1e-14 * (1 + na2 + h * h) ** 2)
    if eligible.any():
        z = fields_["simons_z"]
        z_ratio_min = float(np.min(z[eligible] / denom[eligible]))
    else:
        z_ratio_min = float("nan")

    poincare_slack = float("nan")
    if with_poincare:
        try:
            lhs, rhs = poincare_check(mesh, cfg.p, cfg.eta, cfg.sigma, cfg.gamma,
                                      cfg.resolved_epsilon_z())
            poincare_slack = rhs - lhs
        except ValueError:
            pass

    return TraceRow(
        step=step, t=t, dt=dt,
        minH=float(np.nanmin(h)),
        maxA2=float(np.max(na2)),
        maxQ=float(np.max(fields_["q"])),
        maxFsigma=float(np.nanmax(f)),
        area=mesh.total_area(),
        intFsigmaP=float(np.nansum(f ** cfg.p * area)),
        posBoundSlack=pos_slack,
        zRatioMin=z_ratio_min,
        poincareSlack=poincare_slack,
        rescaledMaxAcirc2=float(np.nanmax(fields_["pinch_num"])) / max_h ** 2,
        maxH=max_h,
        maxPinchNumerator=float(np.nanmax(fields_["pinch_num"])),
    )


def _triangle_inverted(p: np.ndarray, q: np.ndarray) -> bool:
    """True if any triangle flips orientation projected onto its old plane.

    p and q are the old and new (m, 3, 4) corner positions.  For the old
    edges u, v from corner 0 and the new ones u', v', the Binet-Cauchy
    identity (u ^ v) . (u' ^ v') = (u . u')(v . v') - (u . v')(v . u')
    is four times the old area times the signed area of the new triangle
    projected onto the old plane.
    """
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    un, vn = q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]
    signed = (np.einsum("mi,mi->m", u, un) * np.einsum("mi,mi->m", v, vn)
              - np.einsum("mi,mi->m", u, vn) * np.einsum("mi,mi->m", v, un))
    return bool((signed <= 0).any())


@dataclass
class StepInfo:
    """How one accepted step came about."""
    dt: float
    nominal_dt: float      # before any halving
    rejections: list       # one reason per halving: "inversion" or "area"
    cg_iterations: list    # per attempt, the most iterations any coordinate took in its solve
    h_gap: float           # largest relative jet/cotan |H| gap on the accepted mesh


def _h_gap(mesh: SurfaceMesh) -> float:
    """Largest relative gap between the jet-fit and the cotan |H| over the vertices."""
    h_cot = np.linalg.norm(mesh.mean_curv_cot, axis=1)
    return float(np.max(np.abs(mesh.frame_h - h_cot) / h_cot))


def _normal_part(nor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Projection of per-vertex vectors x (n, 4) onto the normal planes nor (n, 4, 2)."""
    return np.einsum("nia,na->ni", nor, np.einsum("nia,ni->na", nor, x))


def _jacobi_cg(apply, diag: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve K x = b for each row of b by Jacobi-preconditioned conjugate gradients.

    K is symmetric positive definite; apply(p) returns K p for a (p, n) block
    of rows, and diag is K's diagonal.  A row stops once its residual is at
    most CG_RTOL |b|, and is left alone from then on.  Returns x and the most
    iterations any row took; raises NonFiniteStep on a non-finite residual or
    a row not converged after CG_MAX_ITER iterations.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r / diag
    rz = np.einsum("in,in->i", r, p)
    stop = CG_RTOL * np.linalg.norm(b, axis=1)
    for it in range(CG_MAX_ITER + 1):
        res = np.linalg.norm(r, axis=1)
        if not np.isfinite(res).all():
            raise NonFiniteStep(f"non-finite conjugate-gradient residual after {it} iterations")
        act = np.flatnonzero(res > stop)
        if act.size == 0:
            return x, it
        if it == CG_MAX_ITER:
            break
        pa = p[act]
        q = apply(pa)
        alpha = (rz[act] / np.einsum("in,in->i", pa, q))[:, None]
        x[act] += alpha * pa
        r[act] = ra = r[act] - alpha * q
        za = ra / diag
        rz_new = np.einsum("in,in->i", ra, za)
        p[act] = za + (rz_new / rz[act])[:, None] * pa
        rz[act] = rz_new
    raise NonFiniteStep(f"conjugate gradients not converged to {CG_RTOL:g} "
                        f"after {CG_MAX_ITER} iterations")


def _cn_solve(mesh: SurfaceMesh, mass: np.ndarray, dt: float, x: np.ndarray) -> tuple[np.ndarray, int]:
    """(n, 4) D with (M + dt/2 A) D = -dt A x, for M = diag(mass) and A the cotan stiffness
    of mesh, solving for the coordinates as the rows of one (4, n) block."""
    product, diagonal = stiffness_operator(mesh)
    d, it = _jacobi_cg(lambda d: mass * d + 0.5 * dt * product(d),
                       mass + 0.5 * dt * diagonal, -dt * product(np.ascontiguousarray(x.T)))
    return d.T, it


def _crank_nicolson_displacement(mesh: SurfaceMesh, dt: float) -> tuple[np.ndarray, int]:
    """Normal part of the Crank-Nicolson displacement, with the operator at the midpoint.

    The flow M dX/dt = -A(X) X is stepped as (M + dt/2 A) D = -dt A X^n
    with M (the mixed areas) and A (the cotan stiffness) taken at the
    midpoint X~ = X^n + (dt/2) H_cot, an explicit half step along the cotan
    velocity H_cot = -M^-1 A X^n.  X~ is right to O(dt^2), so one solve keeps
    the step second order.  Only D is projected onto the normal planes at
    X^n (a projected H_cot measured first order on icosphere(1, 3)).
    Returns the displacement and the solve's iteration count.
    """
    mid = mesh.with_vertices(mesh.vertices + 0.5 * dt * mesh.mean_curv_cot)
    disp, it = _cn_solve(mid, mixed_voronoi_areas(mid), dt, mesh.vertices)
    return _normal_part(mesh.normal, disp), it


def step_mcf(mesh: SurfaceMesh, cfg: FlowConfig) -> tuple[SurfaceMesh, float]:
    """One Crank-Nicolson step of the cotan mean curvature flow.

    X + D with D from _crank_nicolson_displacement, second order in time,
    and dt = cfl / max |A|^2.  The step is rejected (and dt halved) on
    total-area increase or tangent-projected triangle inversion, raising
    StepTooLarge after ten rejections; a non-finite candidate raises
    NonFiniteStep.  Returns the stepped mesh, with its geometry caches
    recovered and its StepInfo as step_info, and dt.

    The displacement is projected onto the normal bundle (its tangential
    residue is a spurious drift that shears the mesh without moving the
    surface), and each step adds a purely tangential relaxation toward the
    1-ring centroid.  Both are reparametrizations: the evolving surface is
    the same, but the mesh stays uniform enough to survive the full
    curvature blowup.
    """
    recover_geometry(mesh)
    max_a2 = float(np.max(mesh.norm_a2()))
    dt = nominal_dt = cfg.cfl * (1.0 / max_a2)
    rejections, cg_iterations = [], []
    area0 = mesh.total_area()
    nor = mesh.normal
    shift = np.zeros_like(mesh.vertices)
    if cfg.redistribution > 0:
        g = centroid_offset(mesh)
        shift = cfg.redistribution * (g - _normal_part(nor, g))
    for _ in range(10):
        disp, it = _crank_nicolson_displacement(mesh, dt)
        cg_iterations.append(it)
        cand = mesh.vertices + disp + shift
        # NaN passes both rejection tests below
        if not np.isfinite(cand).all():
            raise NonFiniteStep(f"non-finite candidate vertex at dt = {dt:.3e}")
        if _triangle_inverted(mesh.vertices.take(mesh.triangles, axis=0),
                              cand.take(mesh.triangles, axis=0)):
            rejections.append("inversion")
            dt *= 0.5
            continue
        # the area test fills the candidate's triangle cache for recover_geometry
        new_mesh = mesh.with_vertices(cand)
        if new_mesh.total_area() >= area0:
            rejections.append("area")
            dt *= 0.5
            continue
        recover_geometry(new_mesh)
        new_mesh.step_info = StepInfo(dt, nominal_dt, rejections, cg_iterations,
                                      _h_gap(new_mesh))
        return new_mesh, dt
    raise StepTooLarge(f"step rejected after 10 halvings (dt = {dt:.3e})")


@dataclass
class Snapshot:
    step: int
    t: float
    max_a2: float
    mesh: SurfaceMesh


@dataclass
class FlowResult:
    trace: FlowTrace
    snapshots: list
    status: str            # blowup_threshold | max_steps | mesh_quality
    r0: float
    stop_a2: float
    rejections: dict       # rejected attempts by reason, over the run
    cg_iterations: int     # StepInfo.cg_iterations summed over every attempt of the run
    max_h_gap: float       # largest StepInfo.h_gap over the run


def run_flow(mesh: SurfaceMesh, cfg: FlowConfig) -> FlowResult:
    """Flow to the curvature threshold, tracing monitors every output step.

    Snapshots are stored each time max |A|^2 doubles (geometric spacing
    toward the blowup) plus the initial and final states.
    """
    recover_geometry(mesh)
    cfg.resolved_epsilon_z()
    r0 = float(np.sqrt(np.max(np.einsum("ni,ni->n", mesh.vertices, mesh.vertices))))
    max_a2 = float(np.max(mesh.norm_a2()))
    stop_a2 = cfg.stop_a2 if cfg.stop_a2 is not None else cfg.stop_factor * max_a2

    trace = FlowTrace()
    trace.append(monitors(mesh, cfg, 0.0, r0, step=0, dt=0.0, with_poincare=True))
    snapshots = [Snapshot(0, 0.0, max_a2, mesh)]
    t = 0.0
    status = "max_steps"
    rejections = {"inversion": 0, "area": 0}
    cg_iterations = 0
    max_h_gap = 0.0
    for step in range(1, cfg.max_steps + 1):
        mesh, dt = step_mcf(mesh, cfg)
        # the run has stepped past the last snapshot: nothing reads its triangle cache again
        snapshots[-1].mesh._tri = None
        t += dt
        # np.maximum, not max: a NaN gap is kept, not dropped
        max_h_gap = float(np.maximum(max_h_gap, mesh.step_info.h_gap))
        for reason in mesh.step_info.rejections:
            rejections[reason] += 1
        cg_iterations += sum(mesh.step_info.cg_iterations)
        max_a2 = float(np.max(mesh.norm_a2()))
        want_snapshot = max_a2 >= 2.0 * snapshots[-1].max_a2
        done = max_a2 >= stop_a2
        if step % cfg.output_every == 0 or done or want_snapshot:
            with_poincare = (step % cfg.poincare_every == 0) or done or want_snapshot
            trace.append(monitors(mesh, cfg, t, r0, step=step, dt=dt,
                                  with_poincare=with_poincare))
        if want_snapshot or done:
            snapshots.append(Snapshot(step, t, max_a2, mesh))
        if done:
            status = "blowup_threshold"
            break
        if mesh.min_triangle_angle() < math.radians(cfg.min_angle_deg):
            status = "mesh_quality"
            break
    return FlowResult(trace, snapshots, status, r0, stop_a2, rejections, cg_iterations, max_h_gap)


# ---------------------------------------------------------------------------
# blowup analysis

# fewest trace rows a decay-exponent fit uses
DECAY_MIN_SAMPLES = 20


@dataclass
class RescaledSnapshot:
    step: int
    t: float
    lam: float             # max |H| before rescaling
    max_pinch_numerator: float
    fields: dict           # rescaled h, norm_acirc2, kperp_abs and pinch_num per vertex


def type_i_rescale(snapshots: list, stop_a2: float, gamma: float) -> list:
    """Parabolic rescaling of the snapshots by their peak mean curvature.

    Each snapshot is scaled by lambda = max |H|, so the rescaled surface
    has unit peak mean curvature; the pinching numerator |Ac|^2 + 2 gamma
    |K| of the rescaled surface is the roundness diagnostic.  Recovery is
    equivariant under translation and scaling, so the rescaled fields are
    the snapshot's own: |H| over lambda and the quadratic fields over
    lambda^2.  Raises NoBlowupDetected unless the last snapshot reached
    half the blowup threshold.
    """
    if not snapshots:
        raise NoBlowupDetected("no snapshots")
    if snapshots[-1].max_a2 < 0.5 * stop_a2:
        raise NoBlowupDetected(
            f"last snapshot max|A|^2 = {snapshots[-1].max_a2:.3e} < half of {stop_a2:.3e}")
    out = []
    for snap in snapshots:
        mesh = recover_geometry(snap.mesh)
        pf = pinching_fields(mesh.frame_h, mesh.frame_a, mesh.frame_b, mesh.frame_c, gamma)
        lam = float(np.nanmax(pf["h"]))
        out.append(RescaledSnapshot(
            step=snap.step, t=snap.t, lam=lam,
            # the expression of monitors' rescaledMaxAcirc2, so the two agree bit for bit
            max_pinch_numerator=float(np.nanmax(pf["pinch_num"])) / lam ** 2,
            fields={"h": pf["h"] / lam,
                    **{key: pf[key] / lam ** 2 for key in ("norm_acirc2", "kperp_abs", "pinch_num")}},
        ))
    return out


def decay_exponent_fit(trace: FlowTrace) -> tuple[float, float]:
    """Fit max(|Ac|^2 + 2 gamma |K|) ~ c0 (max|H|)^(2 - delta) on late rows.

    Fits the rows in the upper half of the log max |H| range, or every row
    if fewer than DECAY_MIN_SAMPLES lie there.  Requires at least
    DECAY_MIN_SAMPLES rows spanning two decades of max |A|^2.
    Returns (c0, delta); a numerator at noise floor (round data) reports
    the degenerate cap delta = 2 with c0 = 0.
    """
    max_a2 = trace.column("maxA2")
    # written so that a NaN sample fails the range test
    if len(max_a2) < DECAY_MIN_SAMPLES or not max_a2.max() >= 100.0 * max_a2.min():
        raise InsufficientDynamicRange(
            f"{len(max_a2)} samples spanning {max_a2.max() / max_a2.min():.1f}x")
    num = trace.column("maxPinchNumerator")
    max_h = trace.column("maxH")
    # numerator at the recovery noise floor: no decay exponent to fit
    if np.all(num <= 1e-6 * max_a2):
        return 0.0, 2.0
    log_h = np.log(max_h)
    lo = log_h[0] + 0.5 * (log_h[-1] - log_h[0])
    sel = (log_h >= lo) & (num > 0)
    if sel.sum() < DECAY_MIN_SAMPLES:
        sel = num > 0
    slope, intercept = np.polyfit(log_h[sel], np.log(num[sel]), 1)
    return float(np.exp(intercept)), float(2.0 - slope)
