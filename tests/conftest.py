from __future__ import annotations

import numpy as np
import pytest

from cpflow import (
    Background,
    PackingMetric,
    genus2_surface,
    icosahedron,
    is_admissible,
    octahedron,
    tetrahedron,
    triangulated_torus,
)


@pytest.fixture(scope="session")
def tetra():
    return tetrahedron()


@pytest.fixture(scope="session")
def octa():
    return octahedron()


@pytest.fixture(scope="session")
def icosa():
    return icosahedron()


@pytest.fixture(scope="session")
def genus2():
    return genus2_surface()


@pytest.fixture(scope="session")
def torus():
    return triangulated_torus(3, 3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


def random_metric(complex, rng, background=Background.HYPERBOLIC,
                  radius_range=(0.1, 5.0), inversive_range=(0.0, 3.0)):
    """One random metric, not necessarily admissible."""
    radii = np.exp(rng.uniform(np.log(radius_range[0]), np.log(radius_range[1]),
                               complex.vertex_count))
    inversive = rng.uniform(*inversive_range, complex.edge_count)
    return PackingMetric(background, inversive, radii)


def random_admissible_metric(complex, rng, background=Background.HYPERBOLIC,
                             radius_range=(0.1, 5.0), inversive_range=(0.0, 3.0),
                             max_tries=2000):
    """Rejection-sample a metric with every face strictly admissible."""
    for _ in range(max_tries):
        metric = random_metric(complex, rng, background, radius_range, inversive_range)
        if is_admissible(complex, metric)[0]:
            return metric
    raise AssertionError("could not sample an admissible metric")


def flip_edges(faces, rng, flips):
    """A closed surface made from ``faces`` by up to ``flips`` random edge flips.

    Flipping edge ab of the faces abc and abd gives the faces cda and cdb: the
    same surface, triangulated differently.  A flip whose new edge cd already
    exists is refused, so the result stays a simplicial complex.
    """
    faces = [tuple(int(v) for v in face) for face in faces]
    for _ in range(flips):
        edge_faces = {}
        for k, face in enumerate(faces):
            for m in range(3):
                edge_faces.setdefault(frozenset(face[:m] + face[m + 1:]), []).append(k)
        edges = sorted(edge_faces, key=sorted)
        edge = edges[rng.integers(len(edges))]
        f, g = edge_faces[edge]
        (c,), (d,) = set(faces[f]) - edge, set(faces[g]) - edge
        if frozenset((c, d)) in edge_faces:
            continue
        a, b = sorted(edge)
        faces[f], faces[g] = (c, d, a), (c, d, b)
    return faces
