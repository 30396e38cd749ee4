"""Closed triangle meshes immersed in R^4 with curvature recovery.

Geometry recovery uses two deliberately independent discretizations:

* the flow velocity comes from the cotangent Laplace-Beltrami operator
  applied to the coordinate functions (Delta_g F equals the mean curvature
  vector), which is intrinsic and works verbatim in R^4;
* the curvature monitors come from a weighted quartic jet fit of the two
  normal offset coordinates over the tangent plane of each vertex 2-ring,
  whose quadratic coefficients are the second fundamental form h_{ij,alpha}.

Keeping the two separate means monitor noise never feeds back into the
dynamics, and their agreement on exact shapes is itself a regression check.
"""

from __future__ import annotations

import math

import numpy as np

from .curvature import special_frame_fields
from .errors import DegenerateNeighborhood, NonManifoldMesh

MIN_RING2 = 6

# Vertices per jet-fit block.  Bounds the fit's workspace (2.7 MB for
# 18-point stencils) whatever the mesh size.
JET_BLOCK = 256

# Quartic jet basis x0^i x1^j in elimination order: the nine cubic and
# quartic terms first, then the six low-order ones whose coefficients the
# fit returns (1, x0, x1, x0^2, x0 x1, x1^2).
_JET_EXP = np.array([(4, 0), (3, 1), (2, 2), (1, 3), (0, 4), (3, 0), (2, 1), (1, 2), (0, 3),
                     (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
_N_JET = len(_JET_EXP)
_N_LOW = 6
_N_HIGH = _N_JET - _N_LOW
_MOM_DEG = 8  # moments x0^i x1^j with i, j <= 8 cover all products of two basis terms
_RHS_DEG = 4  # right-hand sides pair y with basis terms only
_JET_DIAG = np.arange(_N_JET)
# flat moment index of each normal-matrix entry, then of each right-hand side
_JET_GATHER = np.concatenate([
    (_JET_EXP[:, None, 0] + _JET_EXP[None, :, 0]) * (_MOM_DEG + 1)
    + _JET_EXP[:, None, 1] + _JET_EXP[None, :, 1],
    (_MOM_DEG + 1 + np.arange(2)[:, None] * (_RHS_DEG + 1) + _JET_EXP[None, :, 0]) * (_MOM_DEG + 1)
    + _JET_EXP[None, :, 1],
])
_JET_KEEP_QUAD = np.zeros((_N_JET + 2, _N_JET, 1), dtype=bool)
_JET_KEEP_QUAD[_N_HIGH:, _N_HIGH:] = True
_JET_EYE_HIGH = np.zeros((_N_JET + 2, _N_JET, 1))
_JET_EYE_HIGH[:_N_HIGH, :_N_HIGH, 0] = np.eye(_N_HIGH)
# smallest Cholesky pivot, relative to its diagonal entry, of a full-rank fit
_PIVOT_RTOL = 1e-12


class SurfaceMesh:
    """Triangle mesh in R^4 with per-vertex geometry caches.

    Topology (adjacency, rings, padded index tables) is validated and built
    once at construction and shared by meshes derived via with_vertices;
    position-dependent caches are filled by recover_geometry.
    """

    def __init__(self, vertices, triangles, require_closed: bool = True, _topology=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 4:
            raise ValueError("vertices must be (n, 4)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (m, 3)")
        self.require_closed = require_closed
        if _topology is None:
            _topology = _build_topology(self.vertices.shape[0], self.triangles, require_closed)
        self._topo = _topology
        self.geometry_recovered = False
        self.vertex_area = None
        self.tangent = None          # (n, 4, 2)
        self.normal = None           # (n, 4, 2)
        self.shape = None            # (n, 2, 2, 2) in the vertex frame
        self.mean_curv_alpha = None  # (n, 2) jet-fit H components
        self.mean_curv_jet = None    # (n, 4) jet-fit H vector
        self.mean_curv_cot = None    # (n, 4) cotan H vector (flow velocity)
        self.frame_h = None
        self.frame_a = None
        self.frame_b = None
        self.frame_c = None
        # (areas, squared edge lengths, corner cotangents), filled by triangle_areas
        self._tri = None

    # -- derived topology ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self._topo["n_edges"]

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_triangles

    @property
    def is_closed(self) -> bool:
        return self._topo["closed"]

    def with_vertices(self, vertices) -> "SurfaceMesh":
        """New mesh with the same topology and fresh geometry caches."""
        return SurfaceMesh(vertices, self.triangles, self.require_closed, _topology=self._topo)

    def interior_mask(self) -> np.ndarray:
        return self._topo["interior"]

    # -- element quantities ---------------------------------------------------

    def triangle_areas(self) -> np.ndarray:
        """(m,) triangle areas; the first call measures every triangle once.

        From each triangle's three edge vectors it caches the squared
        length of the edge opposite each corner, the areas and the corner
        cotangents (all intrinsic, so the same in R^4 as in R^3).  Caching
        is safe because nothing assigns vertices after construction:
        with_vertices returns a new mesh.
        """
        if self._tri is None:
            p = self.vertices[self.triangles]
            e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]      # edge opposite corner i
            sq = np.einsum("mci,mci->mc", e, e)
            # law of cosines: the dot product of the two edges at corner i
            dots = 0.5 * sq.sum(axis=1, keepdims=True) - sq
            area = 0.5 * np.sqrt(np.maximum(sq[:, 1] * sq[:, 2] - dots[:, 0] ** 2, 0.0))
            cots = dots / np.maximum(2.0 * area, 1e-300)[:, None]
            self._tri = (area, sq, cots)
        return self._tri[0]

    def total_area(self) -> float:
        """Sum of the triangle areas."""
        return float(self.triangle_areas().sum())

    def norm_a2(self) -> np.ndarray:
        """Per-vertex |A|^2 as the sum of h_{ij,alpha}^2; finite even where |H| = 0."""
        if not self.geometry_recovered:
            raise RuntimeError("recover_geometry must run first")
        return np.einsum("nija,nija->n", self.shape, self.shape)

    def min_triangle_angle(self) -> float:
        """Smallest corner angle in radians: the arccotangent of the largest cotangent."""
        self.triangle_areas()
        return math.atan2(1.0, float(np.max(self._tri[2])))


def _build_topology(n_vertices: int, triangles: np.ndarray, require_closed: bool) -> dict:
    m = triangles.shape[0]
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= n_vertices:
        raise NonManifoldMesh("triangle index out of range")
    used = np.zeros(n_vertices, dtype=bool)
    used[triangles.ravel()] = True
    if not used.all():
        raise NonManifoldMesh("mesh has isolated vertices")

    src = triangles[:, [0, 1, 2]].ravel()
    dst = triangles[:, [1, 2, 0]].ravel()
    directed = set(zip(src.tolist(), dst.tolist()))
    if len(directed) != 3 * m:
        raise NonManifoldMesh("duplicate directed edge: non-manifold or inconsistently oriented")
    boundary = [(a, b) for (a, b) in directed if (b, a) not in directed]
    closed = not boundary
    if require_closed and not closed:
        raise NonManifoldMesh(f"mesh has {len(boundary)} boundary edges")

    und = {tuple(sorted(e)) for e in directed}
    n_edges = len(und)
    if closed and (n_vertices - n_edges + m) not in (2, 0):
        raise NonManifoldMesh(
            f"Euler characteristic {n_vertices - n_edges + m} not a sphere or torus")

    ring1 = [set() for _ in range(n_vertices)]
    for a, b in und:
        ring1[a].add(b)
        ring1[b].add(a)
    ring2 = []
    for v in range(n_vertices):
        acc = set(ring1[v])
        for u in ring1[v]:
            acc.update(ring1[u])
        acc.discard(v)
        ring2.append(sorted(acc))
    counts2 = np.array([len(r) for r in ring2])
    if closed and (counts2 < MIN_RING2).any():
        bad = int(np.argmin(counts2))
        raise DegenerateNeighborhood(
            f"vertex {bad} has only {counts2[bad]} 2-ring neighbors (< {MIN_RING2})")

    boundary_v = np.zeros(n_vertices, dtype=bool)
    for a, b in boundary:
        boundary_v[a] = boundary_v[b] = True

    def pad(rings):
        k = max(len(r) for r in rings)
        idx = np.zeros((n_vertices, k), dtype=np.int64)
        mask = np.zeros((n_vertices, k), dtype=bool)
        for v, r in enumerate(rings):
            idx[v, :len(r)] = r
            mask[v, :len(r)] = True
        return idx, mask

    ring1_sorted = [sorted(r) for r in ring1]
    idx1, mask1 = pad(ring1_sorted)
    idx2, mask2 = pad(ring2)
    return {
        "n_edges": n_edges,
        "closed": closed,
        "interior": ~boundary_v,
        "ring1_idx": idx1, "ring1_mask": mask1,
        "ring2_idx": idx2, "ring2_mask": mask2,
    }


# ---------------------------------------------------------------------------
# geometry recovery


def _mixed_voronoi_areas(mesh: SurfaceMesh) -> np.ndarray:
    """Meyer-style mixed areas: Voronoi for non-obtuse corners, else split."""
    area, sq, cots = mesh._tri
    sc = sq * cots
    # Voronoi share of corner i: its two edges, each weighted by the cotangent opposite it
    vor = 0.125 * (sc[:, [1, 2, 0]] + sc[:, [2, 0, 1]])
    obtuse = cots < 0
    fallback = np.where(obtuse, 0.5, 0.25) * area[:, None]
    contrib = np.where(obtuse.any(axis=1, keepdims=True), fallback, vor)
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(), minlength=mesh.n_vertices)


def _cotan_mean_curvature(mesh: SurfaceMesh) -> np.ndarray:
    """Delta_g F per vertex, over the mixed areas: the discrete mean curvature vector in R^4."""
    v = mesh.vertices
    j, k = mesh.triangles[:, [1, 2, 0]], mesh.triangles[:, [2, 0, 1]]
    # corner i's cotangent weights the opposite edge (j, k)
    d = (v[k] - v[j]) * mesh._tri[2][:, :, None]
    acc = np.zeros_like(v)
    np.add.at(acc, j, d)
    np.add.at(acc, k, -d)
    return acc / (2.0 * np.maximum(mesh.vertex_area, 1e-300))[:, None]


def _gram_schmidt_pair(vecs: np.ndarray) -> np.ndarray:
    """Orthonormalize (n, 4, 2) column pairs in place order, batched."""
    v0 = vecs[:, :, 0]
    v0 = v0 / np.maximum(np.linalg.norm(v0, axis=1, keepdims=True), 1e-300)
    v1 = vecs[:, :, 1]
    v1 = v1 - np.einsum("ni,ni->n", v1, v0)[:, None] * v0
    v1 = v1 / np.maximum(np.linalg.norm(v1, axis=1, keepdims=True), 1e-300)
    return np.stack([v0, v1], axis=2)


def _jet_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Weighted least-squares jet fit of y over x, one vertex block at a time.

    x (n, K, 2) holds tangent coordinates in units of the stencil scale,
    y (n, K, 2) the two normal offsets and w (n, K) the stencil weights;
    full (n,) selects the quartic basis, otherwise the quadratic one.
    Returns the (n, 6, 2) coefficients of 1, x0, x1, x0^2, x0 x1, x1^2 per
    normal direction.  Each vertex's result depends on that vertex alone.
    Raises DegenerateNeighborhood on a rank-deficient stencil.
    """
    n, k = w.shape
    coef = np.empty((n, _N_LOW, 2))
    # every block works in one buffer: a single allocation of the same size
    # on each call, which the allocator keeps instead of unmapping
    work = np.empty(sum(math.prod(s) for s in _jet_block_shapes(min(n, JET_BLOCK), k)))
    for lo in range(0, n, JET_BLOCK):
        blk = slice(lo, lo + JET_BLOCK)
        coef[blk] = _jet_fit_block(x[blk], y[blk], w[blk], full[blk], work)
    if not np.all(np.isfinite(coef)):
        raise DegenerateNeighborhood("non-finite jet coefficients")
    return coef


def _jet_block_shapes(b: int, k: int) -> list:
    """Shapes of the block arrays: x0 and x1 powers, matmul operand and
    product, moments with the vertex last, augmented normal matrix."""
    rows = _MOM_DEG + 1 + 2 * (_RHS_DEG + 1)
    return [(_MOM_DEG + 1, b, k), (_MOM_DEG + 1, b, k), (rows, b, k),
            (b, rows, _MOM_DEG + 1), (rows * (_MOM_DEG + 1), b), (_N_JET + 2, _N_JET, b)]


def _jet_fit_block(x, y, w, full, work):
    b, k = w.shape
    arrays, off = [], 0
    for shape in _jet_block_shapes(b, k):
        arrays.append(work[off:off + math.prod(shape)].reshape(shape))
        off += math.prod(shape)
    p0, p1, lhs, mom, mom_t, a = arrays
    p0[0] = 1.0
    p1[0] = 1.0
    p0[1] = x[:, :, 0]
    p1[1] = x[:, :, 1]
    for i in range(2, _MOM_DEG + 1):
        np.multiply(p0[i - 1], p0[1], out=p0[i])
        np.multiply(p1[i - 1], p1[1], out=p1[i])
    # one matmul gives the weighted moments sum w x0^i x1^j (rows i <= 8)
    # and sum w y_s x0^i x1^j (rows 9 + 5 s + i, i <= 4)
    np.multiply(w, p0, out=lhs[:_MOM_DEG + 1])
    np.multiply((w * y.transpose(2, 0, 1))[:, None], p0[:_RHS_DEG + 1],
                out=lhs[_MOM_DEG + 1:].reshape(2, _RHS_DEG + 1, b, k))
    np.matmul(lhs.transpose(1, 0, 2), p1.transpose(1, 2, 0), out=mom)
    np.copyto(mom_t, mom.reshape(b, -1).T)
    # normal matrix with the two right-hand sides as extra rows, vertex last
    np.take(mom_t, _JET_GATHER, axis=0, out=a, mode="clip")
    coef, ok = _jet_solve(a, full)
    redo = full & ~ok
    if redo.any():
        # a stencil that cannot separate the cubic and quartic terms (a grid
        # row with four distinct abscissae, say) takes the quadratic fit
        coef[redo], ok[redo] = _jet_solve(mom_t[:, redo][_JET_GATHER],
                                          np.zeros(int(redo.sum()), dtype=bool))
    if not ok.all():
        raise DegenerateNeighborhood("rank-deficient jet fit")
    return coef


def _jet_solve(a: np.ndarray, full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky solve, in place, of the (17, 15, b) augmented normal matrix.

    Returns the (b, 6, 2) low-order coefficients and whether each vertex's
    normal matrix had full rank.
    """
    fallback = np.flatnonzero(~full)
    if fallback.size:
        # an identity block decouples the cubic and quartic unknowns: the
        # quadratic unknowns then solve exactly the 6-term normal equations
        a[:, :, fallback] = np.where(_JET_KEEP_QUAD, a[:, :, fallback], _JET_EYE_HIGH)
    diag = a[_JET_DIAG, _JET_DIAG]
    with np.errstate(invalid="ignore", divide="ignore"):
        # left-looking Cholesky; the extra rows come out forward-solved
        for j in range(_N_JET):
            a[j:, j] -= np.einsum("ikv,kv->iv", a[j:, :j], a[j, :j])
            np.sqrt(a[j, j], out=a[j, j])
            a[j + 1:, j] /= a[j, j]
        ok = np.all(a[_JET_DIAG, _JET_DIAG] ** 2 > _PIVOT_RTOL * diag, axis=0)
        # back-substitution: the low-order unknowns come last, so they need
        # only their own rows of the factor
        low = a[_N_HIGH:_N_JET, _N_HIGH:]
        c = a[_N_JET:, _N_HIGH:].copy()
        for j in range(_N_LOW - 1, -1, -1):
            c[:, j] /= low[j, j]
            c[:, :j] -= low[j, :j] * c[:, j, None]
    return c.transpose(2, 1, 0), ok


def recover_geometry(mesh: SurfaceMesh) -> SurfaceMesh:
    """Fill per-vertex areas, frames, shape tensors and curvature fields.

    Tangent planes come from the top eigenvectors of the weighted 2-ring
    offset covariance; the second fundamental form from the quadratic
    coefficients of a weighted quartic jet fit of the two normal offsets
    over local tangent coordinates (the quartic terms absorb the
    fourth-order surface contributions that would otherwise alias into the
    curvature).  Vertices whose 2-ring is too small for the quartic basis,
    or cannot separate its terms, fall back to the plain quadratic fit.
    The mixed areas and the cotan velocity read the mesh's one triangle
    pass (triangle_areas).  Modifies in place and returns the mesh.
    """
    v = mesh.vertices
    topo = mesh._topo
    idx2, mask2 = topo["ring2_idx"], topo["ring2_mask"]

    d = v[idx2] - v[:, None, :]                      # (n, K, 4)
    r2 = np.einsum("nki,nki->nk", d, d)
    # weight scale from the 2-ring spread; keeps the whole stencil active
    # even when the flow compresses neighborhoods anisotropically
    sigma = 0.75 * np.sum(np.sqrt(r2) * mask2, axis=1) / np.maximum(mask2.sum(axis=1), 1)
    sigma = np.maximum(sigma, 1e-300)
    w = np.exp(-r2 / (2.0 * sigma[:, None] ** 2)) * mask2

    cov = d.transpose(0, 2, 1) @ (d * w[:, :, None])
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    eigval, eigvec = np.linalg.eigh(cov)             # ascending
    tangent = eigvec[:, :, 2:]                       # (n, 4, 2) top-2
    normal = eigvec[:, :, :2]
    # deterministic eigenvector signs
    for basis in (tangent, normal):
        comp = np.take_along_axis(basis, np.argmax(np.abs(basis), axis=1)[:, None, :], axis=1)
        basis *= np.where(comp >= 0, 1.0, -1.0)

    counts = mask2.sum(axis=1)
    if (counts < MIN_RING2).any():
        bad = int(np.argmin(counts))
        raise DegenerateNeighborhood(
            f"vertex {bad} has only {counts[bad]} usable neighbors")
    # quartic where the stencil carries enough effective weight; plain
    # quadratic where it does not (small 2-rings, collapsed weights)
    eff = w.sum(axis=1) ** 2 / np.maximum((w * w).sum(axis=1), 1e-300)
    full = (counts >= 15) & (eff >= 12.0)

    def fit_all(tan, nor):
        return _jet_fit((d @ tan) / sigma[:, None, None], d @ nor, w, full)

    coef6 = fit_all(tangent, normal)

    # tilt correction: the linear jet terms measure how far the covariance
    # plane sits from the true tangent plane (an O(kappa * edge) effect on
    # asymmetric stencils); absorb them into the frame and refit once
    slope = coef6[:, 1:3, :] / sigma[:, None, None]      # (n, i, alpha)
    if float(np.max(np.abs(slope))) > 1e-8:
        t_corr = tangent + np.einsum("nia,nja->nji", slope, normal)
        n_corr = normal - np.einsum("nia,nji->nja", slope, tangent)
        tangent = _gram_schmidt_pair(t_corr)
        n_corr = n_corr - tangent @ (tangent.transpose(0, 2, 1) @ n_corr)
        normal = _gram_schmidt_pair(n_corr)
        coef6 = fit_all(tangent, normal)

    s2 = sigma[:, None] ** 2
    shape = np.empty((mesh.n_vertices, 2, 2, 2))
    shape[:, 0, 0, :] = 2.0 * coef6[:, 3, :] / s2
    shape[:, 0, 1, :] = coef6[:, 4, :] / s2
    shape[:, 1, 0, :] = shape[:, 0, 1, :]
    shape[:, 1, 1, :] = 2.0 * coef6[:, 5, :] / s2

    mc_alpha = shape[:, 0, 0, :] + shape[:, 1, 1, :]
    mc_jet = np.einsum("nia,na->ni", normal, mc_alpha)

    mesh.triangle_areas()  # fills the triangle cache that the two helpers read
    mesh.vertex_area = _mixed_voronoi_areas(mesh)
    mesh.tangent = tangent
    mesh.normal = normal
    mesh.shape = shape
    mesh.mean_curv_alpha = mc_alpha
    mesh.mean_curv_jet = mc_jet
    mesh.mean_curv_cot = _cotan_mean_curvature(mesh)
    h, a, b, c = special_frame_fields(shape, mc_alpha)
    mesh.frame_h, mesh.frame_a, mesh.frame_b, mesh.frame_c = h, a, b, c
    mesh.geometry_recovered = True
    return mesh


# ---------------------------------------------------------------------------
# discrete gradients for the integral monitors


def _polar_orthogonalize(mats: np.ndarray) -> np.ndarray:
    """Closest orthogonal 2x2 matrices (rotation or reflection), closed form."""
    a = mats[..., 0, 0]
    b = mats[..., 0, 1]
    c = mats[..., 1, 0]
    d = mats[..., 1, 1]
    det = a * d - b * c
    # rotation branch: proportional to [[a+d, b-c], [c-b, a+d]]
    rp = np.hypot(a + d, b - c)
    rp = np.maximum(rp, 1e-300)
    rot = np.stack([np.stack([(a + d) / rp, (b - c) / rp], axis=-1),
                    np.stack([(c - b) / rp, (a + d) / rp], axis=-1)], axis=-2)
    # reflection branch: proportional to [[a-d, b+c], [b+c, d-a]]
    rm = np.hypot(a - d, b + c)
    rm = np.maximum(rm, 1e-300)
    ref = np.stack([np.stack([(a - d) / rm, (b + c) / rm], axis=-1),
                    np.stack([(b + c) / rm, (d - a) / rm], axis=-1)], axis=-2)
    return np.where((det >= 0)[..., None, None], rot, ref)


def _ring1_gradients(mesh: SurfaceMesh, diffs: np.ndarray) -> np.ndarray:
    """Least-squares tangent gradients from (n, k, p) 1-ring differences; (n, 2, p).

    Fits over each vertex's 1-ring in its tangent coordinates; padded ring
    slots carry zero weight.
    """
    topo = mesh._topo
    idx1, mask1 = topo["ring1_idx"], topo["ring1_mask"]
    d = mesh.vertices[idx1] - mesh.vertices[:, None, :]
    x = np.einsum("nki,nia->nka", d, mesh.tangent)
    w = mask1.astype(float)
    g2 = np.einsum("nk,nka,nkb->nab", w, x, x) + 1e-300 * np.eye(2)
    rhs = np.einsum("nka,nkp->nap", x * w[:, :, None], diffs)
    return np.linalg.solve(g2, rhs)


def vertex_gradients(mesh: SurfaceMesh, values: np.ndarray) -> np.ndarray:
    """Least-squares tangent gradient of per-vertex scalar fields.

    values is (n,) or (n, p); returns (n, 2) or (n, 2, p) gradients in each
    vertex's tangent coordinates, fitted over the 1-ring.
    """
    if not mesh.geometry_recovered:
        raise RuntimeError("recover_geometry must run first")
    squeeze = values.ndim == 1
    vals = values[:, None] if squeeze else values
    idx1 = mesh._topo["ring1_idx"]
    grad = _ring1_gradients(mesh, vals[idx1] - vals[:, None, :])
    return grad[:, :, 0] if squeeze else grad


def shape_gradient_norm2(mesh: SurfaceMesh) -> np.ndarray:
    """Per-vertex |grad A|^2 from transported 1-ring shape differences.

    Neighbor frames are aligned to the vertex frame by polar decomposition
    of the tangent-tangent and normal-normal basis overlaps before the
    componentwise least-squares gradient.
    """
    if not mesh.geometry_recovered:
        raise RuntimeError("recover_geometry must run first")
    idx1 = mesh._topo["ring1_idx"]

    t_v = mesh.tangent[:, None, :, :]           # (n, 1, 4, 2)
    t_u = mesh.tangent[idx1]                    # (n, k, 4, 2)
    n_v = mesh.normal[:, None, :, :]
    n_u = mesh.normal[idx1]
    mt = _polar_orthogonalize(np.einsum("nkia,nkib->nkab", np.broadcast_to(t_v, t_u.shape), t_u))
    mn = _polar_orthogonalize(np.einsum("nkia,nkib->nkab", np.broadcast_to(n_v, n_u.shape), n_u))

    q_u = mesh.shape[idx1]                      # (n, k, 2, 2, 2)
    q_t = np.einsum("nkip,nkjq,nkab,nkpqb->nkija", mt, mt, mn, q_u)
    dq = q_t - mesh.shape[:, None, :, :, :]

    # 6 independent components with multiplicities (1, 2, 1) per normal slot
    comps = np.stack([dq[:, :, 0, 0, 0], dq[:, :, 0, 1, 0], dq[:, :, 1, 1, 0],
                      dq[:, :, 0, 0, 1], dq[:, :, 0, 1, 1], dq[:, :, 1, 1, 1]], axis=2)
    grad = _ring1_gradients(mesh, comps)        # (n, 2, 6)
    mult = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
    return np.einsum("nap,p->n", grad * grad, mult)


# ---------------------------------------------------------------------------
# I/O


def write_off4(mesh: SurfaceMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("OFF4\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles} {mesh.n_edges}\n")
        for row in mesh.vertices:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def read_off4(path, require_closed: bool = True) -> SurfaceMesh:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"empty OFF4 file: {path}")
    if lines[0] != "OFF4":
        raise ValueError(f"not an OFF4 file: header {lines[0]!r}")
    try:
        nv, nf, _ = (int(x) for x in lines[1].split())
        verts = np.array([[float(x) for x in lines[2 + i].split()] for i in range(nv)])
        tris = []
        for i in range(nf):
            parts = lines[2 + nv + i].split()
            if parts[0] != "3":
                raise ValueError("only triangle faces supported")
            tris.append([int(p) for p in parts[1:4]])
    except IndexError:
        raise ValueError(f"truncated OFF4 file: {path}") from None
    return SurfaceMesh(verts, np.array(tris), require_closed=require_closed)
