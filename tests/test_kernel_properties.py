"""Property tests of the length/angle/curvature kernel on generated surfaces.

Inputs are the stock complexes and random edge flips of them, in both
backgrounds, with radii log-uniform in [1e-12, 50] and inversive distances
in [0, 5]: tiny, huge and degenerate triangles all occur.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpflow import (
    Background,
    PackingMetric,
    build_complex,
    edge_length,
    extended_angles,
    extended_curvature,
    gauss_bonnet_defect,
    genus2_surface,
    icosahedron,
    octahedron,
    tetrahedron,
    triangulated_torus,
)
from cpflow.curvature import make_curvature_evaluator
from cpflow.packing import (
    face_lengths,
    radii_to_u_array,
    triangle_inequality_violations,
    u_to_radii_array,
)

from conftest import flip_edges

HYP = Background.HYPERBOLIC
EUC = Background.EUCLIDEAN
STOCK = [tetrahedron(), octahedron(), icosahedron(), genus2_surface(), triangulated_torus(3, 3)]


@st.composite
def _cases(draw):
    """A surface, a background and a metric given by its u-coordinates."""
    base = draw(st.sampled_from(STOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex = build_complex(flip_edges(base.faces, rng, draw(st.integers(0, 2 * base.face_count))))
    background = draw(st.sampled_from([HYP, EUC]))
    radii = np.exp(rng.uniform(np.log(1e-12), np.log(50.0), complex.vertex_count))
    inversive = rng.uniform(0.0, 5.0, complex.edge_count)
    return complex, background, inversive, radii


def _metric_at_u(background, inversive, radii):
    """u of the radii, and the metric at exactly the radii that u maps to."""
    u = radii_to_u_array(radii, background)
    return u, PackingMetric(background, inversive, u_to_radii_array(u, background))


@settings(max_examples=60)
@given(_cases())
def test_evaluator_equals_extended_curvature(case):
    complex, background, inversive, radii = case
    u, metric = _metric_at_u(background, inversive, radii)
    values, degenerate = make_curvature_evaluator(complex, background, inversive)(u)
    curv = extended_curvature(complex, metric)
    assert np.array_equal(values, curv.values)
    assert np.array_equal(degenerate, curv.degenerate)


@settings(max_examples=60)
@given(_cases())
def test_degenerate_mask_is_the_triangle_inequality(case):
    complex, background, inversive, radii = case
    metric = PackingMetric(background, inversive, radii)
    curv = extended_curvature(complex, metric)
    expected = triangle_inequality_violations(face_lengths(complex, metric))
    assert np.array_equal(curv.degenerate, expected)
    assert curv.extended == bool(expected.any())


@settings(max_examples=60)
@given(_cases())
def test_gauss_bonnet_defect_vanishes(case):
    complex, background, inversive, radii = case
    defect = gauss_bonnet_defect(complex, PackingMetric(background, inversive, radii))
    # arccos near +-1 resolves an angle only to about sqrt(2 eps) ~ 2e-8, so a
    # thin face can carry that much per angle; the sum is exact otherwise.
    assert abs(defect) <= 3 * np.sqrt(2 * np.finfo(float).eps) * complex.face_count


@settings(max_examples=60)
@given(_cases())
def test_u_round_trip(case):
    _, background, _, radii = case
    u = radii_to_u_array(radii, background)
    assert np.all(np.isfinite(u))
    back = u_to_radii_array(u, background)
    assert np.max(np.abs(back - radii) / radii) <= 1e-12
    assert np.max(np.abs(radii_to_u_array(back, background) - u) / np.abs(u)) <= 1e-12


def _angles(background, radii, inversive):
    lengths = [
        edge_length(background, radii[(m + 1) % 3], radii[(m + 2) % 3], inversive[m])
        for m in range(3)
    ]
    return extended_angles(background, lengths)


def test_small_hyperbolic_triangles_are_euclidean():
    # Hyperbolic geometry at scale t is euclidean up to O(t^2), so the angles
    # of the radii t * r must be the euclidean angles of r to rounding.
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(1000):
        radii = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
        inversive = rng.uniform(0.0, 5.0, 3)
        flat = _angles(EUC, radii, inversive)
        for t in (1e-8, 1e-12):
            small = _angles(HYP, t * radii, inversive)
            if small.degenerate != flat.degenerate:
                continue
            assert np.max(np.abs(small.values - flat.values)) <= 1e-12
            compared += 1
    assert compared >= 1900
