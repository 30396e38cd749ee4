"""Explicit mean curvature flow of closed surfaces in R^4 with monitors.

Each step moves every vertex by its cotangent-Laplacian mean curvature
vector with a timestep limited by both the finest vertex area and the
largest curvature.  Steps that increase total area or invert a triangle in
its own tangent projection are rejected and retried at half the step, up
to ten halvings.

The trace records, per accepted step, the pinching and decay monitors
derived from the jet-fit curvature: extremes of |H|, |A|^2, the pinching
quantity Q, the weighted ratio f_sigma, integrals of f_sigma^p, the
enclosing-ball slack, the Simons-ratio floor, and the two sides of the
Poincare-type inequality.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .certifier import epsilon_z_scan
from .curvature import TOL_H, pinching_fields
from .errors import (
    EpsilonZNotPositive,
    InsufficientDynamicRange,
    NoBlowupDetected,
    StepTooLarge,
)
from .mesh import SurfaceMesh, recover_geometry, shape_gradient_norm2, vertex_gradients

TRACE_COLUMNS = ["step", "t", "dt", "minH", "maxA2", "maxQ", "maxFsigma", "area",
                 "intFsigmaP", "posBoundSlack", "zRatioMin", "poincareSlack",
                 "rescaledMaxAcirc2"]


@dataclass
class FlowConfig:
    k: float = 29.0 / 40.0
    gamma: float | None = None          # defaults to 1 - (4/3) k
    eps: float = 0.0
    sigma: float = 0.05
    p: float = 10.0
    cfl: float = 0.2
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
            if v is None and f.default is None:
                continue
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{f.name} must be a number, got {v!r}")
        for name, low in (("max_steps", 0), ("output_every", 1), ("poincare_every", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not self.stop_factor > 0:
            raise ValueError(f"stop_factor must be positive, got {self.stop_factor}")
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        # what poincare_check needs; the monitor would otherwise log NaN
        if not (self.p >= 2 and self.eta > 0 and 0 <= self.sigma < 1):
            raise ValueError(f"need p >= 2, eta > 0 and 0 <= sigma < 1, got p = {self.p}, "
                             f"eta = {self.eta}, sigma = {self.sigma}")
        if self.gamma is None:
            self.gamma = 1.0 - 4.0 * self.k / 3.0

    def resolved_epsilon_z(self) -> float:
        if self.epsilon_z is None:
            self.epsilon_z = epsilon_z_scan(self.gamma, self.pinch_fraction,
                                            grid=100, random_samples=50_000, seed=0)
        if self.epsilon_z <= 0:
            raise EpsilonZNotPositive(f"epsilon_z = {self.epsilon_z}")
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
        with open(path, "w") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for r in self.rows:
                vals = []
                for col in TRACE_COLUMNS:
                    v = getattr(r, col)
                    vals.append(str(v) if isinstance(v, int) else repr(float(v)))
                fh.write(",".join(vals) + "\n")


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
    if not mesh.geometry_recovered:
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
    if not mesh.geometry_recovered:
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


def _triangle_inverted(old: SurfaceMesh, new_vertices: np.ndarray) -> bool:
    """True if any triangle flips orientation projected onto its old plane.

    For the old edges u, v from corner 0 and the new ones u', v', the
    Binet-Cauchy identity (u ^ v) . (u' ^ v') = (u . u')(v . v') - (u . v')(v . u')
    is four times the old area times the signed area of the new triangle
    projected onto the old plane.
    """
    p, q = old.vertices[old.triangles], new_vertices[old.triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    un, vn = q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]
    signed = (np.einsum("mi,mi->m", u, un) * np.einsum("mi,mi->m", v, vn)
              - np.einsum("mi,mi->m", u, vn) * np.einsum("mi,mi->m", v, un))
    return bool((signed <= 0).any())


def step_mcf(mesh: SurfaceMesh, cfg: FlowConfig) -> tuple[SurfaceMesh, float]:
    """One explicit step along the cotan mean curvature vector.

    dt = cfl * min(min vertex area, 1 / max |A|^2); rejects (and halves dt)
    on total-area increase or tangent-projected triangle inversion, raising
    StepTooLarge after ten rejections.  Returns the stepped mesh with its
    geometry caches already recovered.

    The velocity is the normal-bundle projection of the cotan mean
    curvature vector (its tangential residue is a spurious drift that
    shears the mesh without moving the surface), and each step adds a
    purely tangential relaxation toward the 1-ring centroid.  Both are
    reparametrizations: the evolving surface is the same, but the mesh
    stays uniform enough to survive the full curvature blowup.
    """
    if not mesh.geometry_recovered:
        recover_geometry(mesh)
    max_a2 = float(np.max(mesh.norm_a2()))
    dt = cfg.cfl * min(float(np.min(mesh.vertex_area)), 1.0 / max_a2)
    area0 = mesh.total_area()
    nor = mesh.normal
    vel = mesh.mean_curv_cot
    vel = np.einsum("nia,na->ni", nor, np.einsum("nia,ni->na", nor, vel))
    shift = np.zeros_like(vel)
    if cfg.redistribution > 0:
        topo = mesh._topo
        idx1, mask1 = topo["ring1_idx"], topo["ring1_mask"]
        cent = (mesh.vertices[idx1] * mask1[:, :, None]).sum(axis=1) \
            / mask1.sum(axis=1)[:, None]
        g = cent - mesh.vertices
        g_tan = g - np.einsum("nia,na->ni", nor, np.einsum("nia,ni->na", nor, g))
        shift = cfg.redistribution * g_tan
    for _ in range(10):
        cand = mesh.vertices + dt * vel + shift
        if _triangle_inverted(mesh, cand):
            dt *= 0.5
            continue
        # the area test fills the candidate's triangle cache for recover_geometry
        new_mesh = mesh.with_vertices(cand)
        if new_mesh.total_area() >= area0:
            dt *= 0.5
            continue
        recover_geometry(new_mesh)
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
    final_mesh: SurfaceMesh
    r0: float
    stop_a2: float
    config: FlowConfig


def run_flow(mesh: SurfaceMesh, cfg: FlowConfig, snapshot_factor: float = 2.0) -> FlowResult:
    """Flow to the curvature threshold, tracing monitors every output step.

    Snapshots are stored each time max |A|^2 grows by snapshot_factor
    (geometric spacing toward the blowup) plus the initial and final states.
    """
    if not mesh.is_closed:
        raise ValueError("flow requires a closed mesh")
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
    for step in range(1, cfg.max_steps + 1):
        mesh, dt = step_mcf(mesh, cfg)
        t += dt
        max_a2 = float(np.max(mesh.norm_a2()))
        want_snapshot = max_a2 >= snapshot_factor * snapshots[-1].max_a2
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
    return FlowResult(trace=trace, snapshots=snapshots, status=status,
                      final_mesh=mesh, r0=r0, stop_a2=stop_a2, config=cfg)


# ---------------------------------------------------------------------------
# blowup analysis


@dataclass
class RescaledSnapshot:
    step: int
    t: float
    lam: float             # max |H| before rescaling
    center_index: int
    mesh: SurfaceMesh      # recentered, scaled, geometry recovered
    max_h: float           # of the rescaled mesh; should sit near 1
    max_pinch_numerator: float
    fields: dict           # pinching_fields of the rescaled mesh


def type_i_rescale(snapshots: list, stop_a2: float, gamma: float,
                   last_n: int | None = None) -> list:
    """Parabolic rescaling of late snapshots around their curvature peak.

    Each snapshot is recentered at its maximum-|H| vertex and scaled by
    that |H|, so the rescaled surface has unit peak mean curvature; the
    pinching numerator |Ac|^2 + 2 gamma |K| of the rescaled mesh is the
    roundness diagnostic.  Raises NoBlowupDetected unless the last snapshot
    reached half the blowup threshold.
    """
    if not snapshots:
        raise NoBlowupDetected("no snapshots")
    if snapshots[-1].max_a2 < 0.5 * stop_a2:
        raise NoBlowupDetected(
            f"last snapshot max|A|^2 = {snapshots[-1].max_a2:.3e} < half of {stop_a2:.3e}")
    chosen = snapshots if last_n is None else snapshots[-last_n:]
    out = []
    for snap in chosen:
        mesh = snap.mesh
        if not mesh.geometry_recovered:
            recover_geometry(mesh)
        i = int(np.nanargmax(mesh.frame_h))
        lam = float(mesh.frame_h[i])
        scaled = mesh.with_vertices(lam * (mesh.vertices - mesh.vertices[i]))
        recover_geometry(scaled)
        pf = pinching_fields(scaled.frame_h, scaled.frame_a, scaled.frame_b, scaled.frame_c, gamma)
        out.append(RescaledSnapshot(
            step=snap.step, t=snap.t, lam=lam, center_index=i, mesh=scaled,
            max_h=float(np.nanmax(scaled.frame_h)),
            max_pinch_numerator=float(np.nanmax(pf["pinch_num"])),
            fields=pf,
        ))
    return out


def decay_exponent_fit(trace: FlowTrace, min_samples: int = 20,
                       window_fraction: float = 0.5) -> tuple[float, float]:
    """Fit max(|Ac|^2 + 2 gamma |K|) ~ c0 (max|H|)^(2 - delta) on late rows.

    Requires at least min_samples rows spanning two decades of max |A|^2.
    Returns (c0, delta); a numerator at noise floor (round data) reports
    the degenerate cap delta = 2 with c0 = 0.
    """
    max_a2 = trace.column("maxA2")
    # written so that a NaN sample fails the range test
    if len(max_a2) < min_samples or not max_a2.max() >= 100.0 * max_a2.min():
        raise InsufficientDynamicRange(
            f"{len(max_a2)} samples spanning {max_a2.max() / max_a2.min():.1f}x")
    num = trace.column("maxPinchNumerator")
    max_h = trace.column("maxH")
    # numerator at the recovery noise floor: no decay exponent to fit
    if np.all(num <= 1e-6 * max_a2):
        return 0.0, 2.0
    log_h = np.log(max_h)
    lo = log_h[0] + (1.0 - window_fraction) * (log_h[-1] - log_h[0])
    sel = (log_h >= lo) & (num > 0)
    if sel.sum() < min_samples:
        sel = num > 0
    slope, intercept = np.polyfit(log_h[sel], np.log(num[sel]), 1)
    return float(np.exp(intercept)), float(2.0 - slope)
