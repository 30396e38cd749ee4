"""Vectorized identity and inequality sweeps for the certification CLI.

Each sweep draws seeded random states, evaluates an algebraic identity or
inequality through two routes (closed form vs raw sums, or slack vs zero),
and reports the worst deviation with its witness.  The CLI turns any
failed property into a nonzero exit.
"""

from __future__ import annotations

import numpy as np

from .certifier import gamma_for_k, reaction_expression, unreduced_reaction
from .curvature import field_scalars, lift_batch, reaction_terms, special_frame_fields, tensor_z_batch
from .gradients import (_WEIGHTS, grad_kperp_bound_fields, gradient_slacks, kperp_cross,
                        kperp_cross_raw, sweep_inequalities, trace_part)


def closed_z_batch(h, a, b, c):
    return field_scalars(h, a, b, c)["simons_z"]


def random_frame_fields(rng, count):
    h = np.abs(rng.standard_normal(count)) + 1e-3
    a, b, c = rng.standard_normal((3, count))
    return h, a, b, c


def _entry(name, samples, worst, tol, witness=None):
    return {
        "property": name,
        "samples": int(samples),
        "worst": float(worst),
        "tolerance": float(tol),
        "pass": bool(worst <= tol),
        "witness": witness,
    }


def _witness(arrs, i):
    return [float(x[i]) for x in arrs]


def identity_report(seed: int, count: int) -> dict:
    """Run every sweep at the given sample count; 0 gives an empty report, < 0 a ValueError."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    props = []
    if count > 0:
        rng = np.random.default_rng(seed)
        props += _curvature_sweeps(rng, count)
        props += _gradient_sweeps(rng, count)
        props += _reaction_sweeps(rng, max(count // 10, 100))
    ok = all(p["pass"] for p in props)
    return {"seed": int(seed), "count": int(count), "pass": ok, "properties": props}


def _curvature_sweeps(rng, count):
    out = []
    h, a, b, c = random_frame_fields(rng, count)
    sc = field_scalars(h, a, b, c)
    scale = 1 + np.abs(sc["norm_a2"]) + h * h

    # Simons nonlinearity: closed form vs raw tensor sums
    comp, mc = lift_batch(h, a, b, c)
    zt = tensor_z_batch(comp, mc)
    zc = closed_z_batch(h, a, b, c)
    dev = np.abs(zc - zt) / (1 + np.abs(zt))
    i = int(np.argmax(dev))
    out.append(_entry("simons_closed_vs_tensor", count, dev[i], 1e-12, _witness((h, a, b, c), i)))

    # Gauss identity |A|^2 + 2K = |H|^2
    dev = np.abs(sc["norm_a2"] + 2 * sc["gauss_k"] - h * h) / scale
    i = int(np.argmax(dev))
    out.append(_entry("gauss_identity", count, dev[i], 1e-13, _witness((h, a, b, c), i)))

    # R2 <= |A|^2 |H|^2
    r2 = reaction_terms(h * h, a, b, c)[1]
    dev = (r2 - sc["norm_a2"] * h * h) / (1 + r2)
    out.append(_entry("r2_cauchy_schwarz", count, dev.max(), 1e-13))

    # homogeneity of degree 4 for Z under state scaling
    lam = 1.7
    z_scaled = closed_z_batch(lam * h, lam * a, lam * b, lam * c)
    dev = np.abs(z_scaled - lam ** 4 * zc) / (1 + np.abs(zc) * lam ** 4)
    out.append(_entry("z_homogeneity", count, dev.max(), 1e-12))

    # frame invariance through random tangent/normal conjugation
    n = max(count // 10, 100)
    comp, mc = lift_batch(*random_frame_fields(rng, n))
    tht, phn = rng.uniform(0, 2 * np.pi, (2, n))
    rt = np.moveaxis(np.array([[np.cos(tht), -np.sin(tht)], [np.sin(tht), np.cos(tht)]]), -1, 0)
    rn = np.moveaxis(np.array([[np.cos(phn), -np.sin(phn)], [np.sin(phn), np.cos(phn)]]), -1, 0)
    flip = rng.integers(0, 2, n) * 2 - 1
    rt[:, :, 1] *= flip[:, None]
    comp_rot = np.einsum("npi,nqj,nba,npqb->nija", rt, rt, rn, comp)
    mc_rot = np.einsum("nba,nb->na", rn, mc)
    f0 = field_scalars(*special_frame_fields(comp, mc))
    f1 = field_scalars(*special_frame_fields(comp_rot, mc_rot))
    worst = 0.0
    # normal_kperp is canonical (>= 0) on both sides, so it compares as |K-perp|
    for key in ("norm_a2", "norm_acirc2", "gauss_k", "normal_kperp"):
        worst = max(worst, float(np.max(np.abs(f0[key] - f1[key]) / (1 + np.abs(f0[key])))))
    out.append(_entry("frame_invariance", n, worst, 1e-10))
    return out


def _gradient_sweeps(rng, count):
    out = []
    samples = rng.standard_normal((count, 8))
    rep = sweep_inequalities(samples)
    for name, entry in rep.items():
        row = _entry(name, count, -entry["slack_min"], 1e-12, entry["witness"])
        row["inequality"] = name
        row["slack_min"] = entry["slack_min"]
        out.append(row)

    # contiguous copies: the column arithmetic below is faster than on strided views
    u, v = np.ascontiguousarray(samples[:, :4]), np.ascontiguousarray(samples[:, 4:])

    # closed six-term evolution cross term vs the literal double sum
    raw = kperp_cross_raw(u, v)
    dev = np.abs(kperp_cross(u, v) - raw) / (1 + np.abs(raw))
    out.append(_entry("kperp_evol_closed_vs_raw", count, dev.max(), 1e-12))

    # orthogonal splitting DA = E + F with E = trace_part: E is orthogonal to F
    # in each normal slot, |E|^2 + |F|^2 = |DA|^2, and |F|^2 is the slack
    # |DA|^2 - (3/4)|DH|^2 of the trace bound
    na2, slacks = gradient_slacks(u, v)
    orth = e_norm2 = f_norm2 = 0.0
    for x in (u, v):
        e = trace_part(x)
        f = x - e
        orth = np.maximum(orth, np.abs((e * f) @ _WEIGHTS))
        e_norm2 = e_norm2 + (e * e) @ _WEIGHTS
        f_norm2 = f_norm2 + (f * f) @ _WEIGHTS
    dev = np.maximum.reduce([
        orth, np.abs(e_norm2 + f_norm2 - na2), np.abs(f_norm2 - slacks.trace_bound)]) / (1 + na2)
    out.append(_entry("ef_orthogonal_split", count, dev.max(), 1e-12))

    # |grad K_perp| <= 4 |A_circ| |grad A| on paired curvature/gradient states
    lhs, rhs = grad_kperp_bound_fields(*random_frame_fields(rng, count), u, v)
    dev = (lhs - rhs) / (1 + rhs)
    out.append(_entry("grad_kperp_bound", count, dev.max(), 1e-12))
    return out


def _reaction_sweeps(rng, count):
    out = []
    a, b, c = rng.standard_normal((3, count))
    k = rng.uniform(0.55, 1.0, count)
    eps = rng.uniform(0.0, 1.0, count)
    g = gamma_for_k(k)
    lhs = reaction_expression(a, b, c, eps, k, g)
    rhs = unreduced_reaction(a, b, c, eps, k, g)
    scale = 1 + np.abs(rhs) + (1 + 1 / (k - 0.5)) ** 2 * (a * a + b * b + c * c + eps) ** 2
    dev = np.abs(lhs - rhs) / scale
    i = int(np.argmax(dev))
    out.append(_entry("reaction_reduction_oracle", count, dev[i], 1e-10,
                      _witness((a, b, c, eps, k), i)))
    return out
