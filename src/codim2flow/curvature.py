"""Pointwise curvature algebra for surfaces of codimension two in R^4.

A point on such a surface carries a second fundamental form with four
independent components once frames are adapted: rotate the normal frame so
the first normal direction is H/|H| and the tangent frame so the first
shape operator is diagonal.  In that special orthonormal frame the shape
operators are

    A1 = [[h/2 + a, 0], [0, h/2 - a]],    A2 = [[b, c], [c, -b]],

with h = |H|.  Every scalar invariant used by the flow and the pinching
certifier is a polynomial in (h, a, b, c); this module provides those
closed forms together with independent tensor-sum routes used as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_H = 1e-12
TOL_FRAME_REL = 1e-9


@dataclass(frozen=True)
class SpecialFrameState:
    """Second fundamental form reduced to the special orthonormal frame.

    h is |H| (nonnegative); a, b, c are the traceless components.  The
    special frame is fixed up to the order and signs of its vectors, which
    change only the signs of a, b and c; the representative that
    special_frame_fields returns has a, b, c >= 0, with c = 0 whenever the
    first shape operator is umbilic to tolerance.
    """

    h: float
    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.h < 0:
            raise ValueError(f"h must be nonnegative, got {self.h}")


@dataclass(frozen=True, eq=False)
class ShapeTensor:
    """Frame-explicit second fundamental form h_{ij,alpha}.

    components has shape (2, 2, 2) indexed [i, j, alpha] and is symmetric
    in (i, j); mean_curvature is the 2-vector H_alpha = sum_i h_{ii,alpha}
    in the same normal frame.
    """

    components: np.ndarray
    mean_curvature: np.ndarray

    def __init__(self, components, mean_curvature=None):
        comp = np.asarray(components, dtype=float)
        if comp.shape != (2, 2, 2):
            raise ValueError(f"components must have shape (2,2,2), got {comp.shape}")
        if not np.allclose(comp, comp.transpose(1, 0, 2), rtol=0, atol=1e-12 * (1 + np.abs(comp).max())):
            raise ValueError("components must be symmetric in the first two indices")
        trace = comp[0, 0] + comp[1, 1]
        if mean_curvature is None:
            mc = trace
        else:
            mc = np.asarray(mean_curvature, dtype=float)
            if not np.allclose(mc, trace, rtol=0, atol=1e-9 * (1 + np.abs(trace).max())):
                raise ValueError("mean_curvature inconsistent with trace of components")
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "mean_curvature", mc)

    @property
    def traceless(self) -> np.ndarray:
        """Traceless part: h_{ij,alpha} - (H_alpha/2) delta_ij."""
        out = self.components.copy()
        out[0, 0] -= self.mean_curvature / 2
        out[1, 1] -= self.mean_curvature / 2
        return out


@dataclass(frozen=True)
class CurvatureScalars:
    norm_a2: float        # |A|^2
    norm_acirc2: float    # |A-circ|^2, the traceless part
    gauss_k: float        # intrinsic Gauss curvature K
    normal_kperp: float   # normal curvature K-perp
    norm_rm_perp2: float  # |Rm-perp|^2 = 4 (K-perp)^2
    r1: float             # reaction term of |A|^2
    r2: float             # reaction term of |H|^2
    r3: float             # reaction term of |K-perp|


def scalars(s: SpecialFrameState) -> CurvatureScalars:
    """All scalar invariants from the special-frame closed forms.

    This is the production path; tensor_scalars is the tensor-sum oracle.
    """
    h, a, b, c = s.h, s.a, s.b, s.c
    f = field_scalars(h, a, b, c)
    kperp = f["normal_kperp"]
    return CurvatureScalars(f["norm_a2"], f["norm_acirc2"], f["gauss_k"], kperp,
                            4 * (kperp * kperp), *reaction_terms(h * h, a, b, c))


def reaction_terms(h2, a, b, c):
    """Reaction terms (R1, R2, R3) of |A|^2, |H|^2 and K-perp in the special frame.

    Takes h2 = |H|^2, not |H|, and is plain arithmetic: elementwise on
    ndarrays, exact on fractions.Fraction.  c11, c12, c22 is the Gram matrix
    <A_alpha, A_beta> of the shape operators; R3 has the sign of K-perp.
    """
    c11 = h2 / 2 + 2 * a * a
    c12 = 2 * a * b
    c22 = 2 * b * b + 2 * c * c
    kperp = 2 * a * c
    r1 = c11 * c11 + 2 * c12 * c12 + c22 * c22 + 4 * (kperp * kperp)
    r2 = h2 * c11
    # |A|^2 + 2 |A-circ|^2 = h2/2 + 3 |A-circ|^2
    r3 = kperp * (h2 / 2 + 3 * (2 * a * a + c22))
    return r1, r2, r3


def lift_batch(h, a, b, c):
    """Embed special-frame fields as (n, 2, 2, 2) shape tensors and (n, 2) mean curvatures."""
    n = h.shape[0]
    comp = np.zeros((n, 2, 2, 2))
    comp[:, 0, 0, 0] = h / 2 + a
    comp[:, 1, 1, 0] = h / 2 - a
    comp[:, 0, 0, 1] = b
    comp[:, 1, 1, 1] = -b
    comp[:, 0, 1, 1] = c
    comp[:, 1, 0, 1] = c
    mc = np.zeros((n, 2))
    mc[:, 0] = h
    return comp, mc


def lift(s: SpecialFrameState) -> ShapeTensor:
    """Embed a special-frame state as an explicit ShapeTensor."""
    comp, _ = lift_batch(*(np.array([x], dtype=float) for x in (s.h, s.a, s.b, s.c)))
    return ShapeTensor(comp[0])


def special_frame_fields(comp: np.ndarray, mean_curv: np.ndarray):
    """Vectorized special-frame reduction for per-vertex mesh data.

    comp has shape (n, 2, 2, alpha) and mean_curv shape (n, 2).  Returns
    arrays (h, a, b, c) with a, b, c >= 0.  With nu_1 = H/|H|, let (d1, e1)
    and (d2, e2) be the traceless entries ((A_00 - A_11)/2, A_01) of A1 and
    A2.  The tangent rotation by theta, (cos 2 theta, sin 2 theta) =
    (d1, e1)/a, diagonalizes A1 with a = |(d1, e1)| and turns (d2, e2) into
    b = |d2 d1 + e2 e1|/a, c = |e2 d1 - d2 e1|/a, taken in absolute value:
    flipping nu_2 and then the second tangent vector maps (h, a, b, c) to
    (h, a, -b, c), so the sign of b is no invariant, and neither is c's.
    Where the first shape operator is umbilic to tolerance the tangent
    frame diagonalizes the second one instead: b = |(d2, e2)| and c = 0.
    Entries with |H| <= TOL_H come back as NaN in (a, b, c) so callers can
    flag them rather than abort a whole mesh.
    """
    comp = np.asarray(comp, dtype=float)
    mean_curv = np.asarray(mean_curv, dtype=float)
    h = np.hypot(mean_curv[:, 0], mean_curv[:, 1])
    good = h > TOL_H
    nu = np.zeros_like(mean_curv)
    nu[good] = mean_curv[good] / h[good, None]

    a1 = nu[:, 0, None, None] * comp[:, :, :, 0] + nu[:, 1, None, None] * comp[:, :, :, 1]
    a2 = -nu[:, 1, None, None] * comp[:, :, :, 0] + nu[:, 0, None, None] * comp[:, :, :, 1]
    (d1, e1), (d2, e2) = ((0.5 * (m[:, 0, 0] - m[:, 1, 1]), m[:, 0, 1]) for m in (a1, a2))
    a = np.hypot(d1, e1)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.abs(d2 * d1 + e2 * e1) / a
        c = np.abs(e2 * d1 - d2 * e1) / a

    scale = np.sqrt(np.einsum("nija,nija->n", comp, comp)) + h
    deg = a < TOL_FRAME_REL * scale
    b = np.where(deg, np.hypot(d2, e2), b)
    c = np.where(deg, 0.0, c)
    return h, *(np.where(good, x, np.nan) for x in (a, b, c))


def field_scalars(h, a, b, c) -> dict:
    """Vectorized closed-form scalars for per-vertex frame fields.

    Accepts equal-shaped arrays (or plain floats), returns a dict of arrays
    keyed like CurvatureScalars fields (kperp is canonical, >= 0) plus the
    Simons nonlinearity; scalars() reads its shared invariants from here.
    """
    norm_a2 = h * h / 2 + 2 * a * a + 2 * b * b + 2 * c * c
    norm_acirc2 = 2 * a * a + 2 * b * b + 2 * c * c
    gauss_k = h * h / 4 - a * a - b * b - c * c
    kperp = 2 * a * c
    return {
        "norm_a2": norm_a2,
        "norm_acirc2": norm_acirc2,
        "gauss_k": gauss_k,
        "normal_kperp": kperp,
        "simons_z": 2 * gauss_k * norm_acirc2 - 2 * kperp * kperp,
    }


def pinching_fields(h, a, b, c, gamma, k=0.0, eps=0.0, sigma=0.0) -> dict:
    """field_scalars plus the pinching data of the flow monitors.

    Adds "h" = |H|, "kperp_abs" = |K-perp|, the pinching numerator
    "pinch_num" = |A-circ|^2 + 2 gamma |K-perp|, "q" = Q = |A|^2 + 2 gamma
    |K-perp| - k |H|^2 + eps and "fsigma" = pinch_num / |H|^(2(1-sigma)),
    NaN where |H| <= TOL_H.  k, eps and sigma only enter q and fsigma.
    """
    out = field_scalars(h, a, b, c)
    kperp_abs = np.abs(out["normal_kperp"])
    out["h"] = h
    out["kperp_abs"] = kperp_abs
    out["q"] = out["norm_a2"] + 2 * gamma * kperp_abs - k * h * h + eps
    out["pinch_num"] = out["norm_acirc2"] + 2 * gamma * kperp_abs
    with np.errstate(divide="ignore", invalid="ignore"):
        out["fsigma"] = np.where(h > TOL_H, out["pinch_num"] / h ** (2 * (1 - sigma)), np.nan)
    return out


def _gram(comp: np.ndarray) -> np.ndarray:
    return np.einsum("ija,ijb->ab", comp, comp)


def tensor_scalars(t: ShapeTensor) -> CurvatureScalars:
    """Scalar invariants from raw tensor sums in the given frame.

    Oracle route, independent of the special-frame reduction.  The sign of
    normal_kperp (and hence r3) depends on frame orientation; only the
    absolute values are frame invariant.
    """
    comp = t.components
    H = t.mean_curvature
    norm_a2 = float(np.sum(comp * comp))
    norm_h2 = float(H @ H)
    tr = t.traceless
    norm_acirc2 = float(np.sum(tr * tr))
    gauss_k = 0.5 * (norm_h2 - norm_a2)

    # R-perp_{ij,alpha,beta} = sum_p h_{ip,alpha} h_{jp,beta} - h_{jp,alpha} h_{ip,beta}
    rp = np.einsum("ipa,jpb->ijab", comp, comp)
    rperp = rp - rp.transpose(1, 0, 2, 3)
    kperp = float(rperp[0, 1, 0, 1])
    rm_perp2 = float(np.sum(rperp * rperp))

    gram = _gram(comp)
    r1 = float(np.sum(gram * gram)) + rm_perp2
    hw = np.einsum("a,ija->ij", H, comp)
    r2 = float(np.sum(hw * hw))
    r3 = _kperp_reaction(comp, H)
    return CurvatureScalars(norm_a2, norm_acirc2, gauss_k, kperp, rm_perp2, r1, r2, r3)


def _kperp_reaction(comp: np.ndarray, H: np.ndarray) -> float:
    """Zero-order reaction in the evolution of K-perp, by direct product rule.

    Applies the cubic reaction of the second fundamental form evolution to
    each factor of K-perp = sum_p (h_{1p1} h_{2p2} - h_{2p1} h_{1p2}).
    """
    a_mats = [comp[:, :, 0], comp[:, :, 1]]
    gram = _gram(comp)
    p = a_mats[0] @ a_mats[0] + a_mats[1] @ a_mats[1]
    n_mats = []
    for al in range(2):
        n = gram[al, 0] * a_mats[0] + gram[al, 1] * a_mats[1]
        n = n + p @ a_mats[al] + a_mats[al] @ p
        n = n - 2 * (a_mats[0] @ a_mats[al] @ a_mats[0] + a_mats[1] @ a_mats[al] @ a_mats[1])
        n_mats.append(n)
    m = n_mats[0] @ a_mats[1] + a_mats[0] @ n_mats[1]
    return float(m[0, 1] - m[1, 0])


def tensor_z_batch(comp, mean_curv):
    """Nonlinearity of the contracted Simons identity, as raw tensor sums.

    comp is (n, 2, 2, alpha) and mean_curv (n, 2); returns (n,) values.
    The sums run on (2, 2, 2, n) and (2, n) copies, sample index last, so
    each contraction's inner loop runs over the samples rather than over
    2-element axes.  The cubic term sum H_a A_ipa A_ijb A_pjb contracts
    pairwise, T_ip = sum_jb A_ijb A_pjb first.
    """
    A = np.ascontiguousarray(np.moveaxis(comp, 0, -1))
    H = np.ascontiguousarray(mean_curv.T)
    T = np.einsum("ijbn,pjbn->ipn", A, A)
    cubic = np.einsum("ipn,ipn->n", np.einsum("an,ipan->ipn", H, A), T)
    gram = np.einsum("ijan,ijbn->abn", A, A)
    rp = np.einsum("ipan,jpbn->ijabn", A, A)
    rperp = rp - rp.transpose(1, 0, 2, 3, 4)
    return cubic - np.einsum("abn,abn->n", gram, gram) - np.einsum("ijabn,ijabn->n", rperp, rperp)


def simons_z_tensor(t: ShapeTensor) -> float:
    """Nonlinearity of the contracted Simons identity, as raw tensor sums."""
    return float(tensor_z_batch(t.components[None], t.mean_curvature[None])[0])


def simons_z_closed(s: SpecialFrameState) -> float:
    """Closed form of the Simons nonlinearity: 2 K |A-circ|^2 - 2 (K-perp)^2."""
    return float(field_scalars(s.h, s.a, s.b, s.c)["simons_z"])
