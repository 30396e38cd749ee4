"""Closed triangle meshes immersed in R^4 with curvature recovery.

Geometry recovery uses two deliberately independent discretizations:

* the flow velocity comes from the cotangent Laplace-Beltrami operator
  applied to the coordinate functions (Delta_g F equals the mean curvature
  vector), which is intrinsic and works verbatim in R^4;
* the curvature monitors come from a weighted quartic jet fit of the two
  normal offset coordinates over the tangent plane of each vertex 2-ring,
  whose slope and quadratic coefficients give the frames and the second
  fundamental form h_{ij,alpha} in closed form.

Keeping the two separate means monitor noise never feeds back into the
dynamics, and their agreement on exact shapes is itself a regression check.
"""

from __future__ import annotations

import math
from pathlib import Path

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
# flat moment index of each normal-matrix entry, then of each right-hand side
_JET_GATHER = np.concatenate([
    (_JET_EXP[:, None, 0] + _JET_EXP[None, :, 0]) * (_MOM_DEG + 1)
    + _JET_EXP[:, None, 1] + _JET_EXP[None, :, 1],
    (_MOM_DEG + 1 + np.arange(2)[:, None] * (_RHS_DEG + 1) + _JET_EXP[None, :, 0]) * (_MOM_DEG + 1)
    + _JET_EXP[None, :, 1],
])
# smallest Cholesky pivot, relative to its diagonal entry, of a full-rank fit
_PIVOT_RTOL = 1e-12

# The covariance plane's orthogonal iteration stops once no vertex's plane
# moves by more than PLANE_TOL in a pass (the root sum of squares of the
# sines of the two principal angles), or after PLANE_MAX_ITER passes.
PLANE_TOL = 1e-14
PLANE_MAX_ITER = 100
# The iteration starts from columns of C^2 in this orthonormal basis, left
# multiplication by the unit quaternion (1, 2, 3, 4) / sqrt(30), whose every
# column mixes all four coordinates: in the coordinate basis, the two pivot
# columns of a stencil symmetric in the coordinates can span a wrong
# invariant plane exactly (on product_torus(1, 1, 48, 12), say), which no
# pass leaves.
_PLANE_BASIS = np.array([[1, -2, -3, -4], [2, 1, -4, 3], [3, 4, 1, -2], [4, -3, 2, 1]],
                        dtype=float) / math.sqrt(30.0)


class SurfaceMesh:
    """Closed triangle mesh in R^4 with per-vertex geometry caches.

    Topology is validated and built once at construction and shared by
    meshes derived via with_vertices: the 1-ring as one (L, n) table padded
    with each vertex itself, the corner cotangents opposite each of its
    edges, the valences, and the masked 2-ring.  Position-dependent caches
    are filled by recover_geometry.
    """

    def __init__(self, vertices, triangles, _topology=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 4:
            raise ValueError("vertices must be (n, 4)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (m, 3)")
        if _topology is None:
            _topology = _build_topology(self.vertices.shape[0], self.triangles)
        self._topo = _topology
        self.geometry_recovered = False
        self.vertex_area = None
        self.tangent = None          # (n, 4, 2)
        self.normal = None           # (n, 4, 2)
        self.shape = None            # (n, 2, 2, 2) in the vertex frame
        self.mean_curv_cot = None    # (n, 4) cotan H vector (flow velocity)
        self.frame_h = None
        self.frame_a = None
        self.frame_b = None
        self.frame_c = None
        # (areas, squared edge lengths, corner cotangents), filled by triangle_areas
        self._tri = None
        self.step_info = None        # flow.StepInfo of the step that made this mesh

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

    def with_vertices(self, vertices) -> "SurfaceMesh":
        """New mesh with the same topology and fresh geometry caches."""
        return SurfaceMesh(vertices, self.triangles, _topology=self._topo)

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
            p = self.vertices.take(self.triangles, axis=0)
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


def _build_topology(n_vertices: int, triangles: np.ndarray) -> dict:
    m = triangles.shape[0]
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= n_vertices:
        raise NonManifoldMesh("triangle index out of range")
    used = np.zeros(n_vertices, dtype=bool)
    used[triangles.ravel()] = True
    if not used.all():
        raise NonManifoldMesh("mesh has isolated vertices")

    # directed edges as sorted codes src * n + dst: a CSR table of each
    # vertex's 1-ring, since every edge of a closed mesh runs both ways.
    # Edge 3 t + i is the one opposite corner i of triangle t, so order
    # also indexes the flat corner cotangents
    code = (triangles[:, [1, 2, 0]] * n_vertices + triangles[:, [2, 0, 1]]).ravel()
    order = np.argsort(code)
    code = code[order]
    if (code[1:] == code[:-1]).any():
        raise NonManifoldMesh("duplicate directed edge: non-manifold or inconsistently oriented")
    src, dst = np.divmod(code, n_vertices)
    rev = dst * n_vertices + src
    twin = np.searchsorted(code, rev)
    found = code.take(twin, mode="clip") == rev
    if not found.all():
        raise NonManifoldMesh(f"mesh has {int(np.count_nonzero(~found))} boundary edges")

    n_edges = int(np.count_nonzero(src <= dst))
    if (n_vertices - n_edges + m) not in (2, 0):
        raise NonManifoldMesh(
            f"Euler characteristic {n_vertices - n_edges + m} not a sphere or torus")

    # 1-ring columns padded with the vertex itself, so x[ring1] - x is 0 there
    valence = np.bincount(src, minlength=n_vertices)
    slot = np.arange(code.size) - np.repeat(np.cumsum(valence) - valence, valence)
    ring1 = np.tile(np.arange(n_vertices), (int(valence.max()), 1))
    ring1[slot, src] = dst
    # the cotangents opposite each slot's edge, in its triangle and its
    # reverse's; padding reads the 0 at 3 m
    ring1_cot = np.full((2,) + ring1.shape, 3 * m)
    ring1_cot[:, slot, src] = order, order[twin]
    # 2-ring: the 1-ring and its members' 1-rings, less the vertex itself;
    # repeats are blanked between two sorts (np.unique would import numpy.ma)
    rows = ring1.T
    ring2 = np.concatenate([rows, rows[rows].reshape(n_vertices, -1)], axis=1)
    ring2[ring2 == np.arange(n_vertices)[:, None]] = n_vertices
    ring2.sort(axis=1)
    ring2[:, 1:][ring2[:, 1:] == ring2[:, :-1]] = n_vertices
    ring2.sort(axis=1)
    counts2 = np.count_nonzero(ring2 < n_vertices, axis=1)
    if (counts2 < MIN_RING2).any():
        bad = int(np.argmin(counts2))
        raise DegenerateNeighborhood(
            f"vertex {bad} has only {counts2[bad]} 2-ring neighbors (< {MIN_RING2})")
    ring2 = ring2[:, :counts2.max()]
    return {
        "n_edges": n_edges, "ring1": ring1, "ring1_cot": ring1_cot, "valence": valence,
        "ring2_idx": np.where(ring2 < n_vertices, ring2, 0), "ring2_mask": ring2 < n_vertices,
    }


def _ring1_differences(mesh: SurfaceMesh, x: np.ndarray, axis: int = 0) -> np.ndarray:
    """x[k] - x[v] over each vertex v's 1-ring k, for vertex values x along axis.

    Adds the 1-ring axis, of length L the largest valence, before the vertex axis; padding is 0.
    """
    d = x.take(mesh._topo["ring1"], axis=axis)
    d -= np.expand_dims(x, axis)
    return d


def centroid_offset(mesh: SurfaceMesh) -> np.ndarray:
    """(n, 4) offsets from each vertex to the centroid of its 1-ring."""
    return _ring1_differences(mesh, mesh.vertices).sum(axis=0) / mesh._topo["valence"][:, None]


# ---------------------------------------------------------------------------
# geometry recovery


def mixed_voronoi_areas(mesh: SurfaceMesh) -> np.ndarray:
    """Meyer-style mixed areas, the lumped mass: Voronoi for non-obtuse corners, else split."""
    area = mesh.triangle_areas()
    _, sq, cots = mesh._tri
    sc = sq * cots
    # Voronoi share of corner i: its two edges, each weighted by the cotangent opposite it
    vor = 0.125 * (sc[:, [1, 2, 0]] + sc[:, [2, 0, 1]])
    obtuse = cots < 0
    fallback = np.where(obtuse, 0.5, 0.25) * area[:, None]
    contrib = np.where(obtuse.any(axis=1, keepdims=True), fallback, vor)
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(), minlength=mesh.n_vertices)


def stiffness_operator(mesh: SurfaceMesh):
    """The cotan stiffness matrix A of mesh as (product, diagonal).

    (A x)_j = (1/2) sum over the edges (j, k) of (cot alpha + cot beta)(x_j - x_k),
    the angles opposite the edge.  A is symmetric and positive semidefinite,
    and Delta_g F = -A F / (mixed area).  product(x) returns A x for (p, n)
    blocks x, one vertex field per row, gathering each edge's weight and
    difference once per end from the 1-ring table, with the vertices innermost.
    """
    mesh.triangle_areas()
    w = 0.5 * np.append(mesh._tri[2], 0.0).take(mesh._topo["ring1_cot"]).sum(axis=0)

    def product(x):
        t = _ring1_differences(mesh, x, axis=1)
        t *= w
        return -t.sum(axis=1)

    return product, w.sum(axis=0)


def _cotan_mean_curvature(mesh: SurfaceMesh) -> np.ndarray:
    """Delta_g F per vertex, over the mixed areas: the discrete mean curvature vector in R^4."""
    product, _ = stiffness_operator(mesh)
    return (product(mesh.vertices.T) / -np.maximum(mesh.vertex_area, 1e-300)).T


def _inv_sqrt_2x2(a, b, c):
    """Entries (a', b', c') of [[a, b], [b, c]]^(-1/2), positive definite, elementwise, closed form.

    sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)), and a 2 x 2
    inverse is the adjugate over the determinant, here sqrt(det M).
    """
    root_det = np.sqrt(a * c - b * b)
    scale = 1.0 / (root_det * np.sqrt(a + c + 2.0 * root_det))
    return (c + root_det) * scale, -b * scale, (a + root_det) * scale


def _sym_times(u, v, a, b, c):
    """The row (u, v) times the symmetric [[a, b], [b, c]], elementwise over arrays."""
    return a * u + b * v, b * u + c * v


def _jet_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least-squares jet fit of y over x, one vertex block at a time.

    x (n, K, 2) holds tangent coordinates in units of the stencil scale,
    y (n, K, 2) the two normal offsets and w (n, K) the stencil weights.
    A vertex takes the quartic basis unless its quartic normal matrix is
    singular, and then the quadratic one.  Returns the (n, 6, 2)
    coefficients of 1, x0, x1, x0^2, x0 x1, x1^2 per normal direction;
    each vertex's depend on that vertex alone.  A rank-deficient stencil or
    non-finite coefficients raise DegenerateNeighborhood naming the vertex.
    """
    n, k = w.shape
    coef = np.empty((n, _N_LOW, 2))
    # every block works in one buffer because it is faster: plain arrays per
    # block give bit-identical output and make recovery 6-8 % slower.  The
    # heap top it lands on is still trimmed, so its pages fault in each call
    work = np.empty(sum(math.prod(s) for s in _jet_block_shapes(min(n, JET_BLOCK), k)))
    ok = np.empty(n, dtype=bool)
    for lo in range(0, n, JET_BLOCK):
        blk = slice(lo, lo + JET_BLOCK)
        coef[blk], ok[blk] = _jet_fit_block(x[blk], y[blk], w[blk], work)
    bad = ~(ok & np.isfinite(coef).all(axis=(1, 2)))
    if bad.any():
        i = int(bad.argmax())
        raise DegenerateNeighborhood(
            f"vertex {i}: {'non-finite jet coefficients' if ok[i] else 'rank-deficient jet fit'}"
            f" over {np.count_nonzero(w[i])} weighted 2-ring points")
    return coef


def _jet_block_shapes(b: int, k: int) -> list:
    """Shapes of the block arrays: x0 and x1 powers, matmul operand and
    product, moments with the vertex last, augmented normal matrix."""
    rows = _MOM_DEG + 1 + 2 * (_RHS_DEG + 1)
    return [(_MOM_DEG + 1, b, k), (_MOM_DEG + 1, b, k), (rows, b, k),
            (b, rows, _MOM_DEG + 1), (rows * (_MOM_DEG + 1), b), (_N_JET + 2, _N_JET, b)]


def _jet_fit_block(x, y, w, work):
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
    # the low-order terms come last, so the trailing block is the quadratic
    # fit's own augmented normal matrix
    quad = a[_N_HIGH:, _N_HIGH:].copy()
    coef, ok = _jet_solve(a)
    # a singular quartic matrix takes the quadratic fit: a grid row with
    # four distinct abscissae, say, or fewer weighted points than unknowns,
    # whose last pivot can round to 1e-11 of its diagonal
    redo = ~ok | (np.count_nonzero(w, axis=1) < _N_JET)
    if redo.any():
        coef[redo], ok[redo] = _jet_solve(quad[:, :, redo])
    return coef, ok


def _jet_solve(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky solve, in place, of the (m + 2, m, b) augmented normal matrix.

    The last six of the m unknowns are the low-order ones.  Returns their
    (b, 6, 2) coefficients and whether each vertex's normal matrix had
    full rank.
    """
    m = a.shape[1]
    idx = np.arange(m)
    diag = a[idx, idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        # left-looking Cholesky; the extra rows come out forward-solved
        for j in range(m):
            a[j:, j] -= np.einsum("ikv,kv->iv", a[j:, :j], a[j, :j])
            np.sqrt(a[j, j], out=a[j, j])
            a[j + 1:, j] /= a[j, j]
        ok = np.all(a[idx, idx] ** 2 > _PIVOT_RTOL * diag, axis=0)
        # back-substitution: the low-order unknowns come last, so they need
        # only their own rows of the factor
        low = a[m - _N_LOW:m, m - _N_LOW:]
        c = a[m:, m - _N_LOW:].copy()
        for j in range(_N_LOW - 1, -1, -1):
            c[:, j] /= low[j, j]
            c[:, :j] -= low[j, :j] * c[:, j, None]
    return c.transpose(2, 1, 0), ok


def _orthonormalize(y: np.ndarray, out: np.ndarray) -> None:
    """Gram-Schmidt of the (2, 4, n) vector pairs y, vertex last, into out; overwrites y[1]."""
    y0, y1 = y
    q0, q1 = out
    np.divide(y0, np.sqrt(np.einsum("in,in->n", y0, y0)), out=q0)
    y1 -= q0 * np.einsum("in,in->n", q0, y1)
    np.divide(y1, np.sqrt(np.einsum("in,in->n", y1, y1)), out=q1)


def _covariance_plane(cov: np.ndarray) -> np.ndarray:
    """(n, 4, 4) orthonormal frames of (n, 4, 4) covariances: the first two
    columns span the top-2 eigenspace, the last two its complement.

    Orthogonal iteration on G = C^2, C = cov / tr cov, with the vertex index
    last (Golub & Van Loan, Matrix Computations, 8.2).  It starts from the
    two pivot columns of G in _PLANE_BASIS, then applies G and Gram-Schmidt
    once a pass, so the plane converges by (lambda_3 / lambda_2)^2 a pass.
    The normal pair is the two pivot columns of the complement projector.
    No basis has a sign or in-plane angle convention.  A NaN vertex neither
    keeps the iteration going nor stops it for the others.
    """
    n = cov.shape[0]
    cols = np.arange(n)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.ascontiguousarray(cov.transpose(1, 2, 0))
        c /= np.einsum("iin->n", c)
        g = np.einsum("ijn,jkn->ikn", c, c)
        # the column of G r_k of largest norm, then the one with the largest
        # part orthogonal to it
        gr = np.einsum("ijn,jk->ikn", g, _PLANE_BASIS)
        norm2 = np.einsum("ikn,ikn->kn", gr, gr)
        flat = gr.reshape(4, -1)                     # column k of vertex v at k n + v
        y = np.empty((2, 4, n))
        k = norm2.T.argmax(axis=1) * n + cols
        flat.take(k, axis=1, out=y[0])
        rest = norm2 - np.einsum("in,ikn->kn", y[0], gr) ** 2 / norm2.ravel().take(k)
        flat.take(rest.T.argmax(axis=1) * n + cols, axis=1, out=y[1])
        del c, gr, flat                              # fewer live temporaries: a lower peak RSS
        q = np.empty((2, 4, n))
        _orthonormalize(y, q)
        for _ in range(PLANE_MAX_ITER):
            _orthonormalize(np.einsum("ijn,ajn->ain", g, q), y)
            # minus the new pair's part outside the old plane: its squared
            # norm is the sum of the squared sines of the principal angles
            r = np.einsum("abn,bin->ain", np.einsum("ain,bin->abn", y, q), q)
            r -= y
            q, y = y, q
            if not (np.einsum("ain,ain->n", r, r) > PLANE_TOL ** 2).any():
                break
        # pivot columns e_k - sum_b b b_k of the projector I - sum_b b b^T onto
        # the complement of the basis so far, whose diagonal is 1 - sum_b b_k^2
        basis = list(q)
        diag = 1.0 - q[0] * q[0] - q[1] * q[1]
        for _ in range(2):
            k = diag.T.argmax(axis=1) * n + cols
            col = -sum(b * b.ravel().take(k) for b in basis)
            col.ravel()[k] += 1.0
            col /= np.sqrt(np.einsum("in,in->n", col, col))
            diag -= col * col
            basis.append(col)
    return np.ascontiguousarray(np.transpose(basis, (2, 1, 0)))


def _graph_geometry(tangent, normal, coef6, sigma):
    """Frames (n, 4, 2) and second fundamental form (n, 2, 2, 2) of the fitted graphs.

    The jet fit is a graph y(x) over the covariance plane, whose slope s
    measures how far that plane sits from the true tangent plane (an
    O(kappa * edge) effect on asymmetric stencils).  This is the graph's own
    geometry at x = 0, in closed form: with G = (I + s s^T)^(-1/2) and
    P = (I + s^T s)^(-1/2), the frames are (T + N s^T) G and (N - T s) P,
    and h^beta = sum_alpha P_alpha,beta G f^alpha G for second derivatives f.
    Each 2 x 2 product is written out entry by entry, over the vertices.
    """
    cf = coef6.transpose(1, 2, 0)                        # (6, alpha, n)
    (a, b), (c, d) = cf[1:3] / sigma                     # the slope s = [[a, b], [c, d]]
    f00, f01, f11 = cf[3:] / sigma ** 2 * [[[2.0]], [[1.0]], [[2.0]]]   # f^alpha_ij: 2 c3, c4, 2 c5
    g = _inv_sqrt_2x2(1.0 + (a * a + b * b), a * c + b * d, 1.0 + (c * c + d * d))
    p = _inv_sqrt_2x2(1.0 + (a * a + c * c), a * b + c * d, 1.0 + (b * b + d * d))
    (t0, t1), (n0, n1) = tangent.transpose(2, 1, 0), normal.transpose(2, 1, 0)   # (4, n) each
    new_t, new_n = np.empty((2,) + tangent.shape)        # the new frames, written through .T
    new_t.T[0], new_t.T[1] = _sym_times(t0 + (a * n0 + b * n1), t1 + (c * n0 + d * n1), *g)
    new_n.T[0], new_n.T[1] = _sym_times(n0 - (a * t0 + c * t1), n1 - (b * t0 + d * t1), *p)
    # G f G by columns from the rows of f G, then h^beta_ij over beta
    fg0, fg1 = _sym_times(f00, f01, *g), _sym_times(f01, f11, *g)
    k01, k11 = _sym_times(fg0[1], fg1[1], *g)
    h00, h01, h11 = (_sym_times(*k, *p) for k in (g[0] * fg0[0] + g[1] * fg1[0], k01, k11))
    # one h_01 in both slots, so shape is exactly symmetric
    shape = np.array([h00, h01, h01, h11]).transpose(2, 0, 1).reshape(-1, 2, 2, 2)
    return new_t, new_n, shape


def recover_geometry(mesh: SurfaceMesh) -> SurfaceMesh:
    """Fill per-vertex areas, frames, shape tensors and curvature fields.

    One weighted quartic jet fit per vertex gives the two normal offsets as
    a graph over the top-2 eigenspace of the weighted 2-ring offset
    covariance, which _covariance_plane finds for every vertex at once (the
    quartic terms absorb the fourth-order surface contributions that would
    otherwise alias into the curvature).  The frames and the second
    fundamental form are that graph's exact ones at the vertex, from the
    fit's slope and second derivatives in closed form, so a covariance
    plane tilted against the surface needs no second fit.  No field read
    from the frames depends on their signs or on the basis chosen inside
    either plane.  A vertex takes the plain quadratic fit if and only if
    its quartic normal matrix is singular (_jet_fit); a 2-ring whose
    distances do not square to finite positive numbers raises
    DegenerateNeighborhood naming the vertex.
    The mixed areas and the cotan velocity read the mesh's one triangle
    pass (triangle_areas).  Fills the mesh once, in place, and returns it.
    """
    if mesh.geometry_recovered:
        return mesh
    v = mesh.vertices
    topo = mesh._topo
    idx2, mask2 = topo["ring2_idx"], topo["ring2_mask"]

    d = v.take(idx2, axis=0) - v[:, None, :]         # (n, K, 4)
    r2 = np.einsum("nki,nki->nk", d, d)
    # weight scale from the 2-ring spread; keeps the whole stencil active
    # even when the flow compresses neighborhoods anisotropically
    with np.errstate(invalid="ignore"):              # inf * 0 at padded slots is caught below
        sigma = 0.75 * np.sum(np.sqrt(r2) * mask2, axis=1) / mask2.sum(axis=1)
    # squared distances that overflow, or underflow to 0 over a whole
    # stencil, leave the weights and the plane without a scale
    sigma2 = sigma * sigma
    bad = ~(np.isfinite(sigma2) & (sigma2 >= np.finfo(float).tiny))
    if bad.any():
        i = int(bad.argmax())
        raise DegenerateNeighborhood(
            f"vertex {i}: 2-ring offsets of size {np.abs(d[i]).max():.3g} have squared "
            "distances that are not finite and positive")
    w = np.exp(-r2 / (2.0 * sigma2[:, None])) * mask2

    frames = _covariance_plane(d.transpose(0, 2, 1) @ (d * w[:, :, None]))
    # each offset's tangent coordinates over sigma, then its normal ones: an
    # (n, K, 4) view of an (n, 4, K) product, so that the fit reads each
    # coordinate in rows
    coords = frames.transpose(0, 2, 1) @ d.transpose(0, 2, 1)
    coords[:, :2] /= sigma[:, None, None]
    coords = coords.transpose(0, 2, 1)

    coef6 = _jet_fit(coords[:, :, :2], coords[:, :, 2:], w)

    tangent, normal, shape = _graph_geometry(frames[:, :, :2], frames[:, :, 2:], coef6, sigma)

    mesh.vertex_area = mixed_voronoi_areas(mesh)  # also fills the triangle cache
    mesh.tangent = tangent
    mesh.normal = normal
    mesh.shape = shape
    mesh.mean_curv_cot = _cotan_mean_curvature(mesh)
    h, a, b, c = special_frame_fields(shape, shape[:, 0, 0, :] + shape[:, 1, 1, :])
    mesh.frame_h, mesh.frame_a, mesh.frame_b, mesh.frame_c = h, a, b, c
    mesh.geometry_recovered = True
    return mesh


# ---------------------------------------------------------------------------
# discrete gradients for the integral monitors


def _polar_orthogonalize(mats: np.ndarray) -> np.ndarray:
    """Closest orthogonal 2x2 matrices, closed form: M + s cof M with unit columns.

    s is the sign of det M (1 at det 0) and cof M = [[d, -c], [-b, a]] for
    M = [[a, b], [c, d]], so M + cof M is a scaled rotation and M - cof M a
    scaled reflection.
    """
    det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    s = np.where(det >= 0, 1.0, -1.0)[..., None, None]
    out = mats + s * (mats[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    out /= np.maximum(np.hypot(out[..., 0, :], out[..., 1, :]), 1e-300)[..., None, :]
    return out


def _ring1_gradients(mesh: SurfaceMesh, diffs: np.ndarray) -> np.ndarray:
    """Least-squares tangent gradients from (L, n, p) 1-ring differences; (n, 2, p).

    Fits over each vertex's 1-ring in its tangent coordinates; a padded
    slot's offset is zero, so it adds nothing to either side of the fit.
    """
    x = np.einsum("lni,nia->lna", _ring1_differences(mesh, mesh.vertices), mesh.tangent)
    g2 = np.einsum("lna,lnb->nab", x, x) + 1e-300 * np.eye(2)
    rhs = np.einsum("lna,lnp->nap", x, diffs)
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
    grad = _ring1_gradients(mesh, _ring1_differences(mesh, vals))
    return grad[:, :, 0] if squeeze else grad


def shape_gradient_norm2(mesh: SurfaceMesh) -> np.ndarray:
    """Per-vertex |grad A|^2 from transported 1-ring shape differences.

    Neighbor frames are aligned to the vertex frame by polar decomposition
    of the tangent-tangent and normal-normal basis overlaps before the
    componentwise least-squares gradient.
    """
    if not mesh.geometry_recovered:
        raise RuntimeError("recover_geometry must run first")
    ring1 = mesh._topo["ring1"]

    # (L, n, 2, 2) overlaps of each vertex's (n, 4, 2) frames with its neighbours'
    mt, mn = (_polar_orthogonalize(np.einsum("nia,lnib->lnab", basis, basis.take(ring1, axis=0)))
              for basis in (mesh.tangent, mesh.normal))

    q_u = mesh.shape.take(ring1, axis=0)        # (L, n, 2, 2, 2)
    # pairwise, so that no intermediate is larger than q_u
    q_t = np.einsum("lnip,lnjq,lnab,lnpqb->lnija", mt, mt, mn, q_u, optimize=True)
    dq = q_t - mesh.shape

    # 6 independent components with multiplicities (1, 2, 1) per normal slot
    comps = np.stack([dq[..., 0, 0, 0], dq[..., 0, 1, 0], dq[..., 1, 1, 0],
                      dq[..., 0, 0, 1], dq[..., 0, 1, 1], dq[..., 1, 1, 1]], axis=2)
    grad = _ring1_gradients(mesh, comps)        # (n, 2, 6)
    mult = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
    return np.einsum("nap,p->n", grad * grad, mult)


# ---------------------------------------------------------------------------
# I/O


def write_table(path, rows, sep: str = ",") -> None:
    """Write one sep-joined, LF-ended line per row, making the parent directory: a str
    cell as it is, an integer in decimal, else repr(float(v)), which reads back exactly."""
    lines = [sep.join([repr(v) if type(v) is float
                       else str(v) if isinstance(v, (str, int, np.integer)) else repr(float(v))
                       for v in row]) + "\n" for row in rows]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(lines), newline="\n")


def write_off4(mesh: SurfaceMesh, path) -> None:
    write_table(path, [["OFF4"], [mesh.n_vertices, mesh.n_triangles, mesh.n_edges],
                       *mesh.vertices.tolist(), *([3, *t] for t in mesh.triangles.tolist())], sep=" ")


def read_off4(path) -> SurfaceMesh:
    """Read write_off4's format; a malformed line raises ValueError naming the file and the line."""
    with open(path) as fh:
        lines = [(no, ln.split()) for no, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.startswith("#")]

    def row(i, n, kind, what, ok=lambda cells: True):
        if i >= len(lines):
            raise ValueError(f"truncated OFF4 file: {path}")
        try:
            cells = [kind(c) for c in lines[i][1]]
            if len(cells) == n and ok(cells):
                return cells
        except ValueError:
            pass
        raise ValueError(f"OFF4 file {path} line {lines[i][0]}: expected {what}, "
                         f"got {' '.join(lines[i][1])!r}")

    row(0, 1, str, "the header OFF4", lambda c: c == ["OFF4"])
    nv, nf, _ = row(1, 3, int, "three counts, of vertices and faces > 0", lambda c: min(c[:2]) > 0)
    verts = np.array([row(2 + i, 4, float, "four coordinates") for i in range(nv)]).reshape(nv, 4)
    bad = ~np.isfinite(verts).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite vertex coordinate in OFF4 file: {path} "
                         f"line {lines[2 + bad.argmax()][0]}")
    tris = [row(2 + nv + i, 4, int, "a face 3 a b c", lambda c: c[0] == 3)[1:] for i in range(nf)]
    try:
        return SurfaceMesh(verts, np.array(tris).reshape(nf, 3))
    except (NonManifoldMesh, DegenerateNeighborhood) as exc:
        raise ValueError(f"bad OFF4 mesh {path}: {exc}") from None
