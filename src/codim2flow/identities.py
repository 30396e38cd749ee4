"""Vectorized identity and inequality sweeps for the certification CLI.

Each sweep draws seeded random states, evaluates an algebraic identity or
inequality through two routes (closed form vs raw sums, or slack vs zero),
and reports the worst deviation with its witness.  The CLI turns any
failed property into a nonzero exit.
"""

from __future__ import annotations

import numpy as np

from .certifier import _drawn_ahead, _pieces, gamma_for_k, reaction_expression, unreduced_reaction
from .curvature import field_scalars, lift_batch, reaction_terms, special_frame_fields, tensor_z_batch
from .gradients import (_WEIGHTS, _scaled_slacks, grad_kperp_bound_fields, gradient_slacks,
                        kperp_cross, kperp_cross_raw, trace_part)


def closed_z_batch(h, a, b, c):
    return field_scalars(h, a, b, c)["simons_z"]


def _curvature_draw(rng, rows):
    h = np.abs(rng.standard_normal(rows)) + 1e-3
    a, b, c = rng.standard_normal((3, rows))
    return h, a, b, c


# tolerance of each property
_TOLERANCE = {
    "simons_closed_vs_tensor": 1e-12, "gauss_identity": 1e-13, "r2_cauchy_schwarz": 1e-13,
    "z_homogeneity": 1e-12, "frame_invariance": 1e-10,
    "grad_trace_bound": 1e-12, "grad_traceless_bound": 1e-12, "grad_kperp_evol_bound": 1e-12,
    "kperp_evol_closed_vs_raw": 1e-12, "ef_orthogonal_split": 1e-12, "grad_kperp_bound": 1e-12,
    "reaction_reduction_oracle": 1e-10,
}
# the gradient inequalities, whose worst value is the least scaled slack negated
_SLACKS = ("grad_trace_bound", "grad_traceless_bound", "grad_kperp_evol_bound")


def _entry(name, samples, worst, witness):
    tol = _TOLERANCE[name]
    row = {
        "property": name,
        "samples": int(samples),
        "worst": float(worst),
        "tolerance": tol,
        "pass": bool(worst <= tol),
        "witness": witness,
    }
    if name in _SLACKS:
        row.update(inequality=name, slack_min=-float(worst))
    return row


def _argmax(dev, states=None):
    """The piece's np.argmax deviation, with the states of its row as witness when given."""
    i = int(np.argmax(dev))
    return dev[i], None if states is None else [float(x[i]) for x in states]


def _worst(parts):
    """The (value, payload) pair that np.argmax picks from parts: the first NaN, else the first maximum.

    Given each piece's own argmax pair in order this is the argmax over all
    pieces: ties keep the first piece, and a NaN in any piece makes the worst
    value NaN, where Python's max() would drop it depending on order.
    """
    return parts[int(np.argmax([value for value, _ in parts]))]


def _sweep(seed, sweep, count, draw, evaluate):
    """Worst value and witness of each property of one sweep over count rows.

    Each _pieces(count) piece takes its states from draw(rng, rows), all from
    rng = default_rng([seed, sweep]), so no state outlives the piece after it
    and a larger count only appends pieces; evaluate(*states) maps each
    property to the piece's (worst, witness).  The next piece is drawn on a
    worker thread while this one is evaluated.
    """
    rng = np.random.default_rng([seed, sweep])
    parts = {}

    def use(s, states):
        for name, part in evaluate(*states).items():
            parts.setdefault(name, []).append(part)

    _drawn_ahead(_pieces(count), lambda s: draw(rng, s.stop - s.start), use)
    return {name: _worst(p) for name, p in parts.items()}


def identity_report(seed: int, count: int) -> dict:
    """Run every sweep at the given sample count; 0 gives an empty report, < 0 a ValueError.

    The frame-invariance and reaction sweeps take max(count // 10, 100) rows.
    The report depends on seed, count and the piece size, and memory on the
    piece size alone.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    props = []
    if count > 0:
        n = max(count // 10, 100)
        sweeps = ((_curvature_draw, _curvature_piece, count), (_frame_draw, _frame_piece, n),
                  (_gradient_draw, _gradient_piece, count), (_reaction_draw, _reaction_piece, n))
        for sweep, (draw, evaluate, rows) in enumerate(sweeps):
            props += [_entry(name, rows, worst, witness) for name, (worst, witness)
                      in _sweep(seed, sweep, rows, draw, evaluate).items()]
    ok = all(p["pass"] for p in props)
    return {"seed": int(seed), "count": int(count), "pass": ok, "properties": props}


def _curvature_piece(h, a, b, c):
    fields = h, a, b, c
    lam = 1.7
    sc = field_scalars(h, a, b, c)
    zt = tensor_z_batch(*lift_batch(h, a, b, c))
    zc = closed_z_batch(h, a, b, c)
    z_scaled = closed_z_batch(lam * h, lam * a, lam * b, lam * c)
    r2 = reaction_terms(h * h, a, b, c)[1]
    return {
        # Simons nonlinearity: closed form vs raw tensor sums
        "simons_closed_vs_tensor": _argmax(np.abs(zc - zt) / (1 + np.abs(zt)), fields),
        # Gauss identity |A|^2 + 2K = |H|^2
        "gauss_identity": _argmax(np.abs(sc["norm_a2"] + 2 * sc["gauss_k"] - h * h)
                                  / (1 + np.abs(sc["norm_a2"]) + h * h), fields),
        # R2 <= |A|^2 |H|^2
        "r2_cauchy_schwarz": _argmax((r2 - sc["norm_a2"] * h * h) / (1 + r2)),
        # homogeneity of degree 4 for Z under state scaling
        "z_homogeneity": _argmax(np.abs(z_scaled - lam ** 4 * zc) / (1 + np.abs(zc) * lam ** 4)),
    }


def _frame_draw(rng, rows):
    """Frame fields, then tangent and normal rotation angles and a tangent flip."""
    fields = _curvature_draw(rng, rows)
    t, p = rng.uniform(0, 2 * np.pi, (2, rows))
    return *fields, t, p, rng.integers(0, 2, rows) * 2 - 1


def _frame_piece(h, a, b, c, t, p, flip):
    """Frame invariance through random tangent/normal conjugation."""
    comp, mc = lift_batch(h, a, b, c)
    rt = np.moveaxis(np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]), -1, 0)
    rn = np.moveaxis(np.array([[np.cos(p), -np.sin(p)], [np.sin(p), np.cos(p)]]), -1, 0)
    rt[:, :, 1] *= flip[:, None]
    comp_rot = np.einsum("npi,nqj,nba,npqb->nija", rt, rt, rn, comp, optimize=True)
    mc_rot = np.einsum("nba,nb->na", rn, mc)
    f0 = field_scalars(*special_frame_fields(comp, mc))
    f1 = field_scalars(*special_frame_fields(comp_rot, mc_rot))
    # normal_kperp is canonical (>= 0) on both sides, so it compares as |K-perp|
    return {"frame_invariance": _argmax(np.maximum.reduce([
        np.abs(f0[key] - f1[key]) / (1 + np.abs(f0[key]))
        for key in ("norm_a2", "norm_acirc2", "gauss_k", "normal_kperp")]))}


def _gradient_draw(rng, rows):
    u, v = rng.standard_normal((2, rows, 4))
    return u, v, *_curvature_draw(rng, rows)


def _gradient_piece(u, v, *fields):
    na2, slacks = gradient_slacks(u, v)
    # sweep_inequalities' minima, witnessed by (u0..u3, v0..v3)
    out = {name: _argmax(-sl, (*u.T, *v.T)) for name, sl in _scaled_slacks(na2, slacks).items()}
    raw = kperp_cross_raw(u, v)
    # orthogonal splitting DA = E + F with E = trace_part: E is orthogonal to F
    # in each normal slot, |E|^2 + |F|^2 = |DA|^2, and |F|^2 is the slack
    # |DA|^2 - (3/4)|DH|^2 of the trace bound
    orth = e_norm2 = f_norm2 = 0.0
    for x in (u, v):
        e = trace_part(x)
        f = x - e
        orth = np.maximum(orth, np.abs((e * f) @ _WEIGHTS))
        e_norm2 = e_norm2 + (e * e) @ _WEIGHTS
        f_norm2 = f_norm2 + (f * f) @ _WEIGHTS
    # |grad K_perp| <= 4 |A_circ| |grad A| on paired curvature/gradient states
    lhs, rhs = grad_kperp_bound_fields(*fields, u, v)
    return out | {
        # closed six-term evolution cross term vs the literal double sum
        "kperp_evol_closed_vs_raw": _argmax(np.abs(kperp_cross(u, v) - raw) / (1 + np.abs(raw))),
        "ef_orthogonal_split": _argmax(np.maximum.reduce([
            orth, np.abs(e_norm2 + f_norm2 - na2),
            np.abs(f_norm2 - slacks.trace_bound)]) / (1 + na2)),
        "grad_kperp_bound": _argmax((lhs - rhs) / (1 + rhs)),
    }


def _reaction_draw(rng, rows):
    a, b, c = rng.standard_normal((3, rows))
    k = rng.uniform(0.55, 1.0, rows)
    eps = rng.uniform(0.0, 1.0, rows)
    return a, b, c, eps, k


def _reaction_piece(a, b, c, eps, k):
    g = gamma_for_k(k)
    lhs = reaction_expression(a, b, c, eps, k, g)
    rhs = unreduced_reaction(a, b, c, eps, k, g)
    scale = 1 + np.abs(rhs) + (1 + 1 / (k - 0.5)) ** 2 * (a * a + b * b + c * c + eps) ** 2
    return {"reaction_reduction_oracle": _argmax(np.abs(lhs - rhs) / scale, (a, b, c, eps, k))}
