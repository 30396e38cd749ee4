"""Vectorized identity and inequality sweeps for the certification CLI.

Each sweep draws seeded random states, evaluates an algebraic identity or
inequality through two routes (closed form vs raw sums, or slack vs zero),
and reports the worst deviation with its witness.  The CLI turns any
failed property into a nonzero exit.
"""

from __future__ import annotations

import numpy as np

from ._heap import releases_heap
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


# rows per slice of a sweep: it bounds the working memory, not the result
_CHUNK = 1 << 16


def _worst(parts):
    """The (value, payload) pair that np.argmax picks from parts: the first NaN, else the first maximum.

    Given each chunk's own argmax pair in row order this is the whole sweep's
    np.argmax: ties keep the first row, and a NaN in any chunk makes the worst
    value NaN, where Python's max() would drop it depending on order.
    """
    return parts[int(np.argmax([value for value, _ in parts]))]


def _sweep(count, devs):
    """Worst deviation and its row for each property over count rows, in _CHUNK-row slices.

    devs(rows) maps each property to its deviations on the slice rows.
    """
    parts = {}
    for lo in range(0, count, _CHUNK):
        for name, dev in devs(slice(lo, lo + _CHUNK)).items():
            i = int(np.argmax(dev))
            parts.setdefault(name, []).append((dev[i], lo + i))
    return {name: _worst(p) for name, p in parts.items()}


def identity_report(seed: int, count: int) -> dict:
    """Run every sweep at the given sample count; 0 gives an empty report, < 0 a ValueError.

    Each sweep draws its random states up front, in a fixed order, and then
    evaluates its properties on slices of _CHUNK rows. Memory beyond the
    drawn states stays bounded, and the report does not depend on the chunk size.
    """
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


@releases_heap
def _curvature_sweeps(rng, count):
    fields = random_frame_fields(rng, count)
    n = max(count // 10, 100)
    rot_fields = random_frame_fields(rng, n)
    tht, phn = rng.uniform(0, 2 * np.pi, (2, n))
    flip = rng.integers(0, 2, n) * 2 - 1
    lam = 1.7

    def devs(rows):
        h, a, b, c = (x[rows] for x in fields)
        sc = field_scalars(h, a, b, c)
        zt = tensor_z_batch(*lift_batch(h, a, b, c))
        zc = closed_z_batch(h, a, b, c)
        z_scaled = closed_z_batch(lam * h, lam * a, lam * b, lam * c)
        r2 = reaction_terms(h * h, a, b, c)[1]
        return {
            # Simons nonlinearity: closed form vs raw tensor sums
            "simons_closed_vs_tensor": np.abs(zc - zt) / (1 + np.abs(zt)),
            # Gauss identity |A|^2 + 2K = |H|^2
            "gauss_identity": (np.abs(sc["norm_a2"] + 2 * sc["gauss_k"] - h * h)
                               / (1 + np.abs(sc["norm_a2"]) + h * h)),
            # R2 <= |A|^2 |H|^2
            "r2_cauchy_schwarz": (r2 - sc["norm_a2"] * h * h) / (1 + r2),
            # homogeneity of degree 4 for Z under state scaling
            "z_homogeneity": np.abs(z_scaled - lam ** 4 * zc) / (1 + np.abs(zc) * lam ** 4),
        }

    # frame invariance through random tangent/normal conjugation
    def rot_devs(rows):
        comp, mc = lift_batch(*(x[rows] for x in rot_fields))
        t, p = tht[rows], phn[rows]
        rt = np.moveaxis(np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]), -1, 0)
        rn = np.moveaxis(np.array([[np.cos(p), -np.sin(p)], [np.sin(p), np.cos(p)]]), -1, 0)
        rt[:, :, 1] *= flip[rows, None]
        comp_rot = np.einsum("npi,nqj,nba,npqb->nija", rt, rt, rn, comp, optimize=True)
        mc_rot = np.einsum("nba,nb->na", rn, mc)
        f0 = field_scalars(*special_frame_fields(comp, mc))
        f1 = field_scalars(*special_frame_fields(comp_rot, mc_rot))
        # normal_kperp is canonical (>= 0) on both sides, so it compares as |K-perp|
        return {"frame_invariance": np.maximum.reduce([
            np.abs(f0[key] - f1[key]) / (1 + np.abs(f0[key]))
            for key in ("norm_a2", "norm_acirc2", "gauss_k", "normal_kperp")])}

    worst = _sweep(count, devs)
    (z_dev, z_row), (g_dev, g_row) = worst["simons_closed_vs_tensor"], worst["gauss_identity"]
    return [
        _entry("simons_closed_vs_tensor", count, z_dev, 1e-12, _witness(fields, z_row)),
        _entry("gauss_identity", count, g_dev, 1e-13, _witness(fields, g_row)),
        _entry("r2_cauchy_schwarz", count, worst["r2_cauchy_schwarz"][0], 1e-13),
        _entry("z_homogeneity", count, worst["z_homogeneity"][0], 1e-12),
        _entry("frame_invariance", n, _sweep(n, rot_devs)["frame_invariance"][0], 1e-10),
    ]


@releases_heap
def _gradient_sweeps(rng, count):
    samples = rng.standard_normal((count, 8))
    fields = random_frame_fields(rng, count)
    parts = {}
    for lo in range(0, count, _CHUNK):
        for name, entry in sweep_inequalities(samples[lo:lo + _CHUNK]).items():
            parts.setdefault(name, []).append((-entry["slack_min"], entry["witness"]))
    out = []
    for name, p in parts.items():
        worst, witness = _worst(p)
        row = _entry(name, count, worst, 1e-12, witness)
        row["inequality"] = name
        row["slack_min"] = -worst
        out.append(row)

    def devs(rows):
        # contiguous copies: the column arithmetic below is faster than on strided views
        u, v = np.ascontiguousarray(samples[rows, :4]), np.ascontiguousarray(samples[rows, 4:])
        raw = kperp_cross_raw(u, v)
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
        # |grad K_perp| <= 4 |A_circ| |grad A| on paired curvature/gradient states
        lhs, rhs = grad_kperp_bound_fields(*(x[rows] for x in fields), u, v)
        return {
            # closed six-term evolution cross term vs the literal double sum
            "kperp_evol_closed_vs_raw": np.abs(kperp_cross(u, v) - raw) / (1 + np.abs(raw)),
            "ef_orthogonal_split": np.maximum.reduce([
                orth, np.abs(e_norm2 + f_norm2 - na2),
                np.abs(f_norm2 - slacks.trace_bound)]) / (1 + na2),
            "grad_kperp_bound": (lhs - rhs) / (1 + rhs),
        }

    return out + [_entry(name, count, dev, 1e-12) for name, (dev, _) in _sweep(count, devs).items()]


@releases_heap
def _reaction_sweeps(rng, count):
    a, b, c = rng.standard_normal((3, count))
    k = rng.uniform(0.55, 1.0, count)
    eps = rng.uniform(0.0, 1.0, count)
    states = (a, b, c, eps, k)

    def devs(rows):
        a, b, c, eps, k = (x[rows] for x in states)
        g = gamma_for_k(k)
        lhs = reaction_expression(a, b, c, eps, k, g)
        rhs = unreduced_reaction(a, b, c, eps, k, g)
        scale = 1 + np.abs(rhs) + (1 + 1 / (k - 0.5)) ** 2 * (a * a + b * b + c * c + eps) ** 2
        return {"reaction_reduction_oracle": np.abs(lhs - rhs) / scale}

    dev, i = _sweep(count, devs)["reaction_reduction_oracle"]
    return [_entry("reaction_reduction_oracle", count, dev, 1e-10, _witness(states, i))]
