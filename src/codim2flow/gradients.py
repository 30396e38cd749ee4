"""First covariant derivative of the second fundamental form, flat ambient.

With a flat ambient space the Codazzi equations make grad-A totally
symmetric in its three tangent indices, so each normal direction carries
four independent components.  We store them by the number of 2-indices in
the symmetric pattern:

    u = (D_1 h_111, D_2 h_111, D_1 h_221, D_2 h_221)   for alpha = 1
    v = (D_1 h_112, D_2 h_112, D_1 h_222, D_2 h_222)   for alpha = 2

This module evaluates the gradient norms, the trace orthogonal splitting,
the evolution cross term of the normal curvature, and the gradient
inequalities the pinching argument relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .curvature import SpecialFrameState, field_scalars, lift

# multiplicity of each symmetric pattern (count of distinct index orders)
_WEIGHTS = np.array([1.0, 3.0, 3.0, 1.0])


@dataclass(frozen=True, eq=False)
class GradientState:
    """Independent components of the totally symmetric tensor D_i h_{jk,alpha}."""

    u: np.ndarray
    v: np.ndarray

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != (4,) or v.shape != (4,):
            raise ValueError("u and v must each have 4 components")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def component(self, i: int, j: int, k: int, alpha: int) -> float:
        """Full tensor component D_i h_{jk,alpha} (indices in {0,1})."""
        return _component(self.u, self.v, i, j, k, alpha)


def _component(u, v, i, j, k, alpha):
    """D_i h_{jk,alpha} for shape (..., 4) components: its pattern is the count of 2-indices."""
    return (u, v)[alpha][..., (i == 1) + (j == 1) + (k == 1)]


@dataclass(frozen=True)
class GradientSlacks:
    """LHS - RHS of the three gradient inequalities (n = 2)."""

    trace_bound: float       # |DA|^2 - (3/4) |DH|^2
    traceless_bound: float   # |DA|^2 - (1/2)|DH|^2 - (1/3)|DA|^2
    kperp_evol_bound: float  # |DA|^2 - 2 * evol cross term of K-perp


def _norm_grad_a2(u, v):
    """|DA|^2, with multiplicities 1, 3, 3, 1, for components of shape (..., 4)."""
    return (u * u) @ _WEIGHTS + (v * v) @ _WEIGHTS


def gradient_norms(u, v):
    """|DA|^2 and |DH|^2 for components of shape (..., 4).

    |DH|^2 comes from the Codazzi-tensor traces D_i H_alpha = sum_k D_i h_{kk,alpha}.
    """
    na2 = _norm_grad_a2(u, v)
    nh2 = ((u[..., 0] + u[..., 2]) ** 2 + (u[..., 1] + u[..., 3]) ** 2
           + (v[..., 0] + v[..., 2]) ** 2 + (v[..., 1] + v[..., 3]) ** 2)
    return na2, nh2


def trace_part(x):
    """Trace part E of one normal slot of DA, for components of shape (..., 4).

    E_ijk = (1/4)(g_ij D_k H + g_ik D_j H + g_jk D_i H), orthogonal to DA - E.
    """
    w1, w2 = x[..., 0] + x[..., 2], x[..., 1] + x[..., 3]
    return np.stack([0.75 * w1, 0.25 * w2, 0.25 * w1, 0.75 * w2], axis=-1)


def kperp_cross(u, v):
    """Gradient cross term in the evolution of the normal curvature, shape (..., 4) inputs.

    Closed form of sum_{p,q} (D_q h_{1p,1} D_q h_{2p,2} - D_q h_{2p,1} D_q h_{1p,2})
    after total symmetry is applied.
    """
    return (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
            + 2 * (u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1])
            + u[..., 2] * v[..., 3] - u[..., 3] * v[..., 2])


def kperp_cross_raw(u, v):
    """kperp_cross from the literal double sum over the full tensor; its oracle."""
    tot = 0.0
    for p in range(2):
        for q in range(2):
            tot = tot + (_component(u, v, q, 0, p, 0) * _component(u, v, q, 1, p, 1)
                         - _component(u, v, q, 1, p, 0) * _component(u, v, q, 0, p, 1))
    return tot


def gradient_slacks(u, v) -> tuple[np.ndarray, GradientSlacks]:
    """|DA|^2 and the slacks of the three gradient estimates, for components of shape (..., 4)."""
    na2, nh2 = gradient_norms(u, v)
    return na2, GradientSlacks(
        trace_bound=na2 - 0.75 * nh2,
        traceless_bound=na2 - 0.5 * nh2 - na2 / 3.0,
        kperp_evol_bound=na2 - 2.0 * kperp_cross(u, v),
    )


def grad_kperp_closed(a, b, c, u, v):
    """Closed form of (D_1 K-perp, D_2 K-perp) from special-frame fields and
    components of shape (..., 4); grad_kperp is its product-rule oracle."""
    d1 = c * (u[..., 0] - u[..., 2]) - 2 * b * u[..., 1] + 2 * a * v[..., 1]
    d2 = c * (u[..., 1] - u[..., 3]) - 2 * b * u[..., 2] + 2 * a * v[..., 2]
    return d1, d2


def grad_kperp_bound_fields(h, a, b, c, u, v):
    """Elementwise (|grad K-perp|, 4 |A-circ| |DA|); the first never exceeds the second."""
    lhs = np.hypot(*grad_kperp_closed(a, b, c, u, v))
    acirc = np.sqrt(field_scalars(h, a, b, c)["norm_acirc2"])
    return lhs, 4 * acirc * np.sqrt(_norm_grad_a2(u, v))


def check_gradient_inequalities(g: GradientState) -> GradientSlacks:
    """Slack (LHS - RHS) of the three gradient estimates; all should be >= 0."""
    return gradient_slacks(g.u, g.v)[1]


def grad_kperp(s: SpecialFrameState, g: GradientState) -> np.ndarray:
    """Covariant gradient of K-perp by the product rule on its defining sum.

    Every term carries a traceless curvature factor, so the gradient
    vanishes at umbilic points regardless of g.
    """
    comp = lift(s).components
    out = np.zeros(2)
    for q in range(2):
        tot = 0.0
        for p in range(2):
            tot += g.component(q, 0, p, 0) * comp[1, p, 1] + comp[0, p, 0] * g.component(q, 1, p, 1)
            tot -= g.component(q, 1, p, 0) * comp[0, p, 1] + comp[1, p, 0] * g.component(q, 0, p, 1)
        out[q] = tot
    return out


def _scaled_slacks(na2, sl: GradientSlacks) -> dict:
    """The three slacks divided by |DA|^2, so homogeneity cannot hide a violation."""
    scale = np.maximum(na2, 1e-300)
    return {f"grad_{f.name}": getattr(sl, f.name) / scale for f in fields(sl)}


def sweep_inequalities(samples: np.ndarray) -> dict:
    """Vectorized slack minima of the three gradient inequalities.

    samples is (n, 8) with columns (u0..u3, v0..v3).  Returns the minimum
    slack per inequality, normalized by |DA|^2 so homogeneity cannot hide a
    violation, plus the argmin rows.
    """
    out = {}
    for name, sl in _scaled_slacks(*gradient_slacks(samples[:, :4], samples[:, 4:])).items():
        i = int(np.argmin(sl))
        out[name] = {"slack_min": float(sl[i]), "witness": samples[i].tolist()}
    return out
