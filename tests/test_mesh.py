import math

import numpy as np
import pytest

from codim2flow.builders import ellipsoid_plus_bump, flat_patch, icosphere, product_torus
from codim2flow.curvature import ShapeTensor, simons_z_closed, simons_z_tensor, to_special_frame
from codim2flow.errors import DegenerateNeighborhood, NonManifoldMesh
from codim2flow.mesh import (
    SurfaceMesh,
    _jet_fit,
    read_off4,
    recover_geometry,
    shape_gradient_norm2,
    vertex_gradients,
    write_off4,
)


@pytest.fixture(scope="module")
def sphere4():
    m = icosphere(1.0, 4)
    recover_geometry(m)
    return m


@pytest.fixture(scope="module")
def torus48():
    m = product_torus(1.0, 1.0, 48, 48)
    recover_geometry(m)
    return m


# ---------------------------------------------------------------------------
# topology and validation


def test_icosphere_topology():
    m = icosphere(1.0, 2)
    assert m.euler_characteristic == 2
    assert m.is_closed
    assert 3 * m.n_triangles == 2 * m.n_edges


def test_torus_topology():
    m = product_torus(1.0, 0.7, 16, 12)
    assert m.euler_characteristic == 0
    assert m.is_closed


def test_open_mesh_rejected_when_closed_required():
    verts = np.zeros((3, 4))
    verts[1, 0] = 1.0
    verts[2, 1] = 1.0
    with pytest.raises(NonManifoldMesh):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))
    m = SurfaceMesh(verts, np.array([[0, 1, 2]]), require_closed=False)
    assert not m.is_closed


def test_duplicate_face_rejected():
    verts, faces = icosphere(1.0, 1).vertices, icosphere(1.0, 1).triangles
    bad = np.vstack([faces, faces[:1]])
    with pytest.raises(NonManifoldMesh):
        SurfaceMesh(verts, bad)


def test_isolated_vertex_rejected():
    m = icosphere(1.0, 1)
    verts = np.vstack([m.vertices, [[5.0, 5.0, 5.0, 5.0]]])
    with pytest.raises(NonManifoldMesh):
        SurfaceMesh(verts, m.triangles)


def test_frame_orthonormality(sphere4):
    frames = np.concatenate([sphere4.tangent, sphere4.normal], axis=2)  # (n, 4, 4)
    eye = np.einsum("nia,nib->nab", frames, frames)
    assert np.abs(eye - np.eye(4)).max() < 1e-10


# ---------------------------------------------------------------------------
# curvature recovery oracles


def test_sphere_curvature_oracle(sphere4):
    m = sphere4
    h_err = np.abs(m.frame_h - 2.0) / 2.0
    assert np.median(h_err) < 0.01
    acirc2 = 2 * (m.frame_a ** 2 + m.frame_b ** 2 + m.frame_c ** 2)
    na2 = m.frame_h ** 2 / 2 + acirc2
    assert np.max(acirc2 / na2) < 1e-3
    kperp = np.abs(2 * m.frame_a * m.frame_c)
    assert np.max(kperp) < 1e-3


def test_sphere_flow_velocity_matches_inward_normal(sphere4):
    rhat = sphere4.vertices / np.linalg.norm(sphere4.vertices, axis=1, keepdims=True)
    radial = -np.einsum("ni,ni->n", sphere4.mean_curv_cot, rhat)
    assert np.median(np.abs(radial - 2.0) / 2.0) < 0.01


def test_jet_vs_cotan_mean_curvature(sphere4, torus48):
    for m in (sphere4, torus48):
        diff = np.linalg.norm(m.mean_curv_jet - m.mean_curv_cot, axis=1)
        ref = np.linalg.norm(m.mean_curv_cot, axis=1)
        assert np.median(diff / ref) < 0.02


def test_torus_curvature_oracle(torus48):
    m = torus48
    h2 = m.frame_h ** 2
    assert np.median(np.abs(h2 - 2.0) / 2.0) < 0.01
    na2 = h2 / 2 + 2 * (m.frame_a ** 2 + m.frame_b ** 2 + m.frame_c ** 2)
    assert np.median(np.abs(na2 - 2.0) / 2.0) < 0.01
    gauss = h2 / 4 - (m.frame_a ** 2 + m.frame_b ** 2 + m.frame_c ** 2)
    assert np.median(np.abs(gauss)) < 0.01
    kperp = np.abs(2 * m.frame_a * m.frame_c)
    assert np.median(kperp) < 0.01
    # mean curvature vector has components (-1/r1, -1/r2) along each factor
    hvec = m.mean_curv_cot
    expected = -m.vertices  # r1 = r2 = 1
    assert np.median(np.linalg.norm(hvec - expected, axis=1)) < 0.01


def test_torus_unequal_radii_curvatures():
    m = product_torus(1.0, 0.5, 48, 24)
    recover_geometry(m)
    h2_exact = 1.0 + 4.0
    h2 = m.frame_h ** 2
    assert np.median(np.abs(h2 - h2_exact) / h2_exact) < 0.01
    na2 = h2 / 2 + 2 * (m.frame_a ** 2 + m.frame_b ** 2 + m.frame_c ** 2)
    assert np.median(np.abs(na2 - h2_exact) / h2_exact) < 0.01


def test_flat_patch_interior_curvature_free():
    m = flat_patch(13, 0.5)
    recover_geometry(m)
    inter = m.interior_mask()
    assert inter.sum() > 0
    assert np.abs(m.frame_h[inter]).max() < 1e-10


def test_normal_bundle_vanishes_for_r3_immersions(sphere4):
    # sphere lives in R^3 x {0}: recovered normal curvature is fit noise
    kperp = np.abs(2 * sphere4.frame_a * sphere4.frame_c)
    assert kperp.max() < 1e-6


def test_bump_makes_normal_curvature_live():
    m = ellipsoid_plus_bump(1.2, 1.0, 0.9, 0.05, subdivisions=3)
    recover_geometry(m)
    kperp = np.abs(2 * m.frame_a * m.frame_c)
    assert kperp.max() > 1e-3


def test_gauss_bonnet_sphere(sphere4):
    gauss = sphere4.frame_h ** 2 / 4 - (sphere4.frame_a ** 2 + sphere4.frame_b ** 2
                                        + sphere4.frame_c ** 2)
    total = float(np.sum(gauss * sphere4.vertex_area))
    assert abs(total - 4 * math.pi) < 0.02 * 4 * math.pi


def test_gauss_bonnet_torus(torus48):
    gauss = torus48.frame_h ** 2 / 4 - (torus48.frame_a ** 2 + torus48.frame_b ** 2
                                        + torus48.frame_c ** 2)
    signed = float(np.sum(gauss * torus48.vertex_area))
    total_abs = float(np.sum(np.abs(gauss) * torus48.vertex_area))
    # recovered K on the structured torus sits at rounding noise, so the
    # signed/absolute ratio is meaningless below a machine-noise floor
    floor = 1e-9 * float(np.sum(torus48.frame_h ** 2 / 4 * torus48.vertex_area))
    assert abs(signed) <= max(0.05 * total_abs, floor)
    assert total_abs <= floor  # K recovered as zero to machine precision


def test_triangle_pass_matches_per_corner_reference(torus48):
    p = torus48.vertices[torus48.triangles]
    ang = np.empty((torus48.n_triangles, 3))
    for i in range(3):
        u, v = p[:, (i + 1) % 3] - p[:, i], p[:, (i + 2) % 3] - p[:, i]
        ang[:, i] = np.arccos(np.einsum("mi,mi->m", u, v)
                              / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)))
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1) * np.sin(ang[:, 0])
    np.testing.assert_allclose(torus48.triangle_areas(), area, rtol=1e-12)
    np.testing.assert_allclose(torus48._tri[2], 1 / np.tan(ang), rtol=1e-10, atol=1e-12)
    assert torus48.min_triangle_angle() == pytest.approx(ang.min(), rel=1e-12)
    # the mixed areas partition the surface
    assert torus48.vertex_area.sum() == pytest.approx(torus48.total_area(), rel=1e-12)


def test_simons_identity_on_recovered_tensors(sphere4, rng):
    # closed vs tensor route agree on the recovered shape data by algebra
    m = ellipsoid_plus_bump(1.2, 1.0, 0.9, 0.08, subdivisions=2)
    recover_geometry(m)
    for i in rng.choice(m.n_vertices, 40, replace=False):
        t = ShapeTensor(m.shape[i])
        zt = simons_z_tensor(t)
        zc = simons_z_closed(to_special_frame(t))
        assert abs(zc - zt) <= 1e-10 * (1 + abs(zt))


def test_degenerate_neighborhood_raised():
    # tetrahedron: closed but 2-rings have only 3 vertices
    verts = np.zeros((4, 4))
    verts[:, :3] = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    with pytest.raises(DegenerateNeighborhood):
        SurfaceMesh(verts, tris)


# ---------------------------------------------------------------------------
# blocked jet-fit kernel


@pytest.fixture(scope="module")
def pinched3():
    m = ellipsoid_plus_bump(1.2, 1.0, 0.9, 0.05, subdivisions=3)
    recover_geometry(m)
    return m


def _stencil(mesh):
    """Jet-fit inputs as recover_geometry builds them, in the final frames."""
    topo = mesh._topo
    idx2, mask2 = topo["ring2_idx"], topo["ring2_mask"]
    d = mesh.vertices[idx2] - mesh.vertices[:, None, :]
    r2 = np.einsum("nki,nki->nk", d, d)
    sigma = 0.75 * np.sum(np.sqrt(r2) * mask2, axis=1) / mask2.sum(axis=1)
    w = np.exp(-r2 / (2.0 * sigma[:, None] ** 2)) * mask2
    return (d @ mesh.tangent) / sigma[:, None, None], d @ mesh.normal, w, sigma


def _reference_fit(x, y, w, full):
    """Per-vertex normal equations solved by LU, quartic or quadratic basis."""
    out = np.empty((w.shape[0], 6, 2))
    for i in range(w.shape[0]):
        x0, x1 = x[i, :, 0], x[i, :, 1]
        cols = [np.ones_like(x0), x0, x1, x0 * x0, x0 * x1, x1 * x1]
        if full[i]:
            cols += [x0 ** 3, x0 ** 2 * x1, x0 * x1 ** 2, x1 ** 3,
                     x0 ** 4, x0 ** 3 * x1, x0 ** 2 * x1 ** 2, x0 * x1 ** 3, x1 ** 4]
        phi = np.stack(cols, axis=1)
        phiw = phi * w[i, :, None]
        out[i] = np.linalg.solve(phi.T @ phiw, phiw.T @ y[i])[:6]
    return out


def _assert_fits_agree(coef, ref, sigma, max_a):
    # quadratic coefficients in curvature units, linear ones as slopes
    assert np.max(np.abs(coef - ref)[:, 3:] / sigma[:, None, None] ** 2) <= 1e-10 * max_a
    assert np.max(np.abs(coef - ref)[:, 1:3] / sigma[:, None, None]) <= 1e-10


def test_jet_kernel_matches_lu_reference(sphere4, torus48, pinched3):
    for m in (sphere4, torus48, pinched3):
        x, y, w, sigma = _stencil(m)
        full = np.ones(m.n_vertices, dtype=bool)
        max_a = float(np.sqrt(np.max(m.norm_a2())))
        _assert_fits_agree(_jet_fit(x, y, w, full), _reference_fit(x, y, w, full), sigma, max_a)


def test_jet_kernel_fallback_is_plain_quadratic_fit(pinched3):
    x, y, w, sigma = _stencil(pinched3)
    full = np.ones(pinched3.n_vertices, dtype=bool)
    full[::37] = False
    coef = _jet_fit(x, y, w, full)
    quad = _reference_fit(x, y, w, np.zeros_like(full))
    max_a = float(np.sqrt(np.max(pinched3.norm_a2())))
    _assert_fits_agree(coef[~full], quad[~full], sigma[~full], max_a)
    # the quartic terms do change the fit elsewhere
    assert np.max(np.abs(coef[full] - quad[full])[:, 3:]) > 1e-6


def test_jet_kernel_independent_of_block_split(pinched3):
    x, y, w, _ = _stencil(pinched3)
    full = np.ones(pinched3.n_vertices, dtype=bool)
    full[5::41] = False
    whole = _jet_fit(x, y, w, full)
    cuts = [0, 1, 130, 131, 400, pinched3.n_vertices]
    parts = [_jet_fit(x[a:b], y[a:b], w[a:b], full[a:b]) for a, b in zip(cuts, cuts[1:])]
    # one-vertex blocks sum in another order, so equal up to rounding only
    assert np.max(np.abs(np.concatenate(parts) - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_jet_kernel_rank_deficient_stencil_raises():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 18, 2))
    x[1, :, 1] = 0.5 * x[1, :, 0]           # stencil on a line through the vertex
    y = rng.standard_normal((3, 18, 2))
    w = np.ones((3, 18))
    for full in (np.ones(3, dtype=bool), np.zeros(3, dtype=bool)):
        with pytest.raises(DegenerateNeighborhood):
            _jet_fit(x, y, w, full)


def test_jet_kernel_singular_quartic_takes_quadratic_fit():
    # four distinct abscissae: x0 (x0^2 - 1/4)(x0 + 1) vanishes on the stencil,
    # so only the quadratic terms are determined
    g0, g1 = np.meshgrid([-1.0, -0.5, 0.0, 0.5], [-1.0, -0.5, 0.0, 0.5, 1.0])
    x = np.stack([g0.ravel(), g1.ravel()], axis=1)[None]
    y = np.random.default_rng(1).standard_normal((1, 20, 2))
    w = np.ones((1, 20))
    coef = _jet_fit(x, y, w, np.ones(1, dtype=bool))
    quad = _reference_fit(x, y, w, np.zeros(1, dtype=bool))
    assert np.max(np.abs(coef - quad)) <= 1e-10 * np.max(np.abs(quad))


# ---------------------------------------------------------------------------
# discrete gradients


def test_vertex_gradients_linear_field_exact(sphere4):
    # gradient of a linear ambient function restricted to the surface is its
    # tangential projection
    coeff = np.array([0.3, -0.7, 0.2, 0.0])
    vals = sphere4.vertices @ coeff
    grad = vertex_gradients(sphere4, vals)
    expected = np.einsum("i,nia->na", coeff, sphere4.tangent)
    err = np.linalg.norm(grad - expected, axis=1)
    assert np.median(err) < 0.01 * np.linalg.norm(coeff)


def test_shape_gradient_zero_on_homogeneous_shapes(sphere4, torus48):
    for m, scale in ((sphere4, 2.0), (torus48, 2.0)):
        g = shape_gradient_norm2(m)
        assert np.median(g) < 1e-4 * scale ** 2


def test_shape_gradient_positive_on_ellipsoid():
    m = ellipsoid_plus_bump(1.4, 1.0, 0.8, 0.0, subdivisions=3)
    recover_geometry(m)
    g = shape_gradient_norm2(m)
    assert np.median(g) > 1e-3


# ---------------------------------------------------------------------------
# I/O round trips


def test_off4_round_trip(tmp_path):
    m = icosphere(0.7, 1)
    path = tmp_path / "m.off4"
    write_off4(m, path)
    m2 = read_off4(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.triangles, m2.triangles)
    header = path.read_text().splitlines()[0]
    assert header == "OFF4"


def test_off4_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.off4"
    path.write_text("OFF\n1 0 0\n0 0 0\n")
    with pytest.raises(ValueError):
        read_off4(path)
