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
    """Subdivided icosahedron projected to the unit 2-sphere, as (verts, faces)."""
    verts, faces = _icosahedron()
    verts = list(map(np.asarray, verts))
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                m /= np.linalg.norm(m)
                verts.append(m)
                cache[key] = len(verts) - 1
            return cache[key]

        out = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            out += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.array(out, dtype=np.int64)
    return np.array(verts), faces


def icosphere(r: float = 1.0, subdivisions: int = 4) -> SurfaceMesh:
    """Round sphere of radius r in R^3 x {0}."""
    verts, faces = unit_sphere_mesh(subdivisions)
    v4 = np.zeros((verts.shape[0], 4))
    v4[:, :3] = r * verts
    return SurfaceMesh(v4, faces)


def ellipsoid_plus_bump(a1: float, a2: float, a3: float, eps4: float,
                        subdivisions: int = 4, harmonic: tuple = (0, 1)) -> SurfaceMesh:
    """Triaxial ellipsoid with a quadratic fourth-coordinate bump.

    The bump w = eps4 * X_i X_j / r0^2 (r0 the mean semi-axis) bends the
    surface out of R^3 x {0}, so the normal bundle genuinely has rank two
    and the normal curvature is nonzero.
    """
    verts, faces = unit_sphere_mesh(subdivisions)
    v4 = np.zeros((verts.shape[0], 4))
    v4[:, 0] = a1 * verts[:, 0]
    v4[:, 1] = a2 * verts[:, 1]
    v4[:, 2] = a3 * verts[:, 2]
    r0 = (a1 * a2 * a3) ** (1.0 / 3.0)
    i, j = harmonic
    v4[:, 3] = eps4 * v4[:, i] * v4[:, j] / r0 ** 2
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

    def vid(i, j):
        return (i % n1) * n2 + (j % n2)

    faces = []
    for i in range(n1):
        for j in range(n2):
            faces.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            faces.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return SurfaceMesh(verts, np.array(faces, dtype=np.int64))
