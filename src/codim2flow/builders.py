"""Initial surfaces for the flow experiments.

icosphere          round control with an exact shrinking solution
ellipsoid_plus_bump  pinched sphere-like data made genuinely codimension two
product_torus      S^1 x S^1 in R^2 x R^2: the negative control (|A|^2 = |H|^2)
"""

from __future__ import annotations

import numpy as np

from .mesh import SurfaceMesh


def _icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return verts, faces


def unit_sphere_mesh(subdivisions: int = 4):
    """Subdivided icosahedron projected to the unit 2-sphere, as (verts, faces).

    Each level splits every face (a, b, c) into [a, ab, ca], [b, bc, ab],
    [c, ca, bc] and [ab, bc, ca].  Midpoints are numbered in the order their
    edges first occur (face order; edges ab, bc, ca within a face).
    """
    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        n = verts.shape[0]
        ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        key = ends.min(axis=1) * n + ends.max(axis=1)
        order = np.argsort(key, kind="stable")
        new_edge = np.r_[True, key[order][1:] != key[order][:-1]]
        # a stable sort puts each edge's first occurrence at the head of its run
        first = order[new_edge]
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        mid = np.empty(key.size, dtype=np.int64)
        mid[order] = n + rank[np.cumsum(new_edge) - 1]
        m = np.empty((first.size, 3))
        m[rank] = verts[ends[first, 0]] + verts[ends[first, 1]]
        # the row norm rounds as np.linalg.norm of one row does
        verts = np.vstack([verts, m / np.sqrt(np.vecdot(m, m))[:, None]])
        (a, b, c), (ab, bc, ca) = faces.T, mid.reshape(-1, 3).T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return verts, faces


def icosphere(r: float = 1.0, subdivisions: int = 4) -> SurfaceMesh:
    """Round sphere of radius r in R^3 x {0}."""
    verts, faces = unit_sphere_mesh(subdivisions)
    v4 = np.zeros((verts.shape[0], 4))
    v4[:, :3] = r * verts
    return SurfaceMesh(v4, faces)


def ellipsoid_plus_bump(a1: float, a2: float, a3: float, eps4: float,
                        subdivisions: int = 4) -> SurfaceMesh:
    """Triaxial ellipsoid with a quadratic fourth-coordinate bump.

    The bump w = eps4 * X_0 X_1 / r0^2 (r0 the mean semi-axis) bends the
    surface out of R^3 x {0}, so the normal bundle genuinely has rank two
    and the normal curvature is nonzero.
    """
    verts, faces = unit_sphere_mesh(subdivisions)
    v4 = np.zeros((verts.shape[0], 4))
    v4[:, 0] = a1 * verts[:, 0]
    v4[:, 1] = a2 * verts[:, 1]
    v4[:, 2] = a3 * verts[:, 2]
    r0 = (a1 * a2 * a3) ** (1.0 / 3.0)
    v4[:, 3] = eps4 * v4[:, 0] * v4[:, 1] / r0 ** 2
    return SurfaceMesh(v4, faces)


def product_torus(r1: float, r2: float, n1: int = 48, n2: int = 48) -> SurfaceMesh:
    """S^1(r1) x S^1(r2) in R^2 x R^2 on a structured grid.

    Satisfies |A|^2 = |H|^2 = 1/r1^2 + 1/r2^2 with K = K_perp = 0; each
    circle factor shrinks by its own curve-shortening law under the flow.
    """
    if n1 < 8 or n2 < 8:
        raise ValueError("need at least 8 segments per factor")
    th = 2 * np.pi * np.arange(n1) / n1
    ph = 2 * np.pi * np.arange(n2) / n2
    tg, pg = np.meshgrid(th, ph, indexing="ij")
    verts = np.stack([r1 * np.cos(tg), r1 * np.sin(tg),
                      r2 * np.cos(pg), r2 * np.sin(pg)], axis=2).reshape(-1, 4)
    row, col = np.arange(n1) * n2, np.arange(n2)
    i, j = np.meshgrid(row, col, indexing="ij")
    i1, j1 = np.meshgrid(np.roll(row, -1), np.roll(col, -1), indexing="ij")
    # two triangles per grid cell, i-major like the vertex order
    faces = np.stack([i + j, i1 + j, i1 + j1, i + j, i1 + j1, i + j1], axis=2).reshape(-1, 3)
    return SurfaceMesh(verts, faces)
