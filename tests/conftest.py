from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

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

# Property tests are deterministic by default: the same examples on every run,
# and no per-example deadline, which timing noise on a loaded host would trip.
settings.register_profile("cpflow", derandomize=True, deadline=None)
settings.load_profile("cpflow")


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


def angle_jacobian_blocks(diagonal, coupling):
    """The (F, 3, 3) blocks of ``angle_jacobians_batch``'s per-corner arrays:
    [f, p, q] is the derivative of angle p of face f with respect to the
    u-coordinate of its vertex q, each block symmetric bit for bit."""
    slots, following = np.arange(3), np.array([1, 2, 0])
    blocks = np.empty((len(diagonal), 3, 3))
    blocks[:, slots, slots] = diagonal
    blocks[:, slots, following] = coupling
    blocks[:, following, slots] = coupling
    return blocks


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


def simpson_reference(f, tolerance, max_depth=100):
    """Deep reference for quadrature tests: adaptive Simpson with Richardson
    update on [0, 1], no evaluation budget and a generous depth cap."""

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tol or depth <= 0:
            return left + right + err / 15.0
        return recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + recurse(
            m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
        )

    fa, fm, fb = f(0.0), f(0.5), f(1.0)
    return recurse(0.0, 1.0, fa, fm, fb, (fa + 4.0 * fm + fb) / 6.0, tolerance, max_depth)


def segment_reference(ctx, u_from, u_to, tolerance):
    """``simpson_reference`` of the potential difference from u_from to u_to."""
    direction = u_to - u_from

    def integrand(s):
        return float((ctx._evaluate(u_from + s * direction)[0] - ctx.target) @ direction)

    return simpson_reference(integrand, tolerance)
