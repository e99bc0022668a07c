from __future__ import annotations

import numpy as np
import pytest

from cpflow import (
    Background,
    BoundaryError,
    ConfigError,
    NotAdmissibleError,
    PackingMetric,
    all_edge_lengths,
    curvature,
    curvature_jacobian,
    extended_curvature,
    gauss_bonnet_defect,
    is_admissible,
    stability_certificate,
)
from cpflow.packing import radii_to_u_array, to_u, u_to_radii_array

from conftest import random_admissible_metric, random_metric

HYP = Background.HYPERBOLIC
EUC = Background.EUCLIDEAN


def test_euclidean_tetrahedron(tetra):
    curv = curvature(tetra, PackingMetric(EUC, np.zeros(6), np.ones(4)))
    assert curv.values == pytest.approx(np.full(4, np.pi), rel=1e-14)
    assert curv.total == pytest.approx(4 * np.pi, rel=1e-14)
    assert curv.total_area == 0.0
    assert not curv.extended


def test_hyperbolic_tetrahedron(tetra):
    curv = curvature(tetra, PackingMetric(HYP, np.zeros(6), np.ones(4)))
    # oracle: direct cosine-law evaluation at the symmetric point
    side = np.arccosh(np.cosh(1.0) ** 2)
    angle = np.arccos(
        (np.cosh(side) ** 2 - np.cosh(side)) / np.sinh(side) ** 2
    )
    expected = 2 * np.pi - 3 * angle
    assert curv.values == pytest.approx(np.full(4, expected), rel=1e-13)
    assert expected > np.pi
    assert curv.total == pytest.approx(4 * np.pi + curv.total_area, rel=1e-13)


def test_icosahedron_tangent_circles(icosa):
    metric = PackingMetric(EUC, np.ones(30), np.ones(12))
    curv = curvature(icosa, metric)
    assert curv.values == pytest.approx(np.full(12, np.pi / 3), rel=1e-13)


def test_extended_agrees_on_admissible(genus2, rng):
    for _ in range(10):
        metric = random_admissible_metric(genus2, rng)
        classical = curvature(genus2, metric)
        extended = extended_curvature(genus2, metric)
        assert extended.values.tolist() == classical.values.tolist()
        assert not extended.extended


def test_forced_degenerate_face(tetra):
    inversive = np.zeros(6)
    inversive[tetra.edge_id(2, 3)] = 3.0
    metric = PackingMetric(HYP, inversive, np.array([1e-8, 1.0, 1.0, 1.0]))
    with pytest.raises(NotAdmissibleError) as err:
        curvature(tetra, metric)
    assert err.value.faces  # offending faces are reported
    curv = extended_curvature(tetra, metric)
    assert curv.extended
    # the degenerate-face mask is the strict triangle test, and names the
    # faces the classical curvature refused
    from cpflow import extended_angles
    from cpflow.packing import face_lengths, triangle_inequality_violations

    lengths = face_lengths(tetra, metric)
    assert curv.degenerate.tolist() == triangle_inequality_violations(lengths).tolist()
    assert np.nonzero(curv.degenerate)[0].tolist() == err.value.faces
    # the degenerate face {0,2,3} contributes a straight angle at vertex 0
    degenerate_face = tetra.faces.tolist().index([0, 2, 3])
    angles = extended_angles(HYP, lengths[degenerate_face])
    assert angles.degenerate
    assert angles.values.tolist() == [np.pi, 0.0, 0.0]
    # and vertex 0's curvature sits at its small-radius limit 2pi - pi - 2*(pi/2)
    assert curv.values[0] == pytest.approx(0.0, abs=1e-6)


def test_gauss_bonnet_random(genus2, octa, rng):
    for complex in (octa, genus2):
        for k in range(40):
            background = HYP if k % 2 else EUC
            metric = random_metric(complex, rng, background)
            assert abs(gauss_bonnet_defect(complex, metric)) <= 1e-9


def test_gauss_bonnet_with_degenerate_faces(tetra, rng):
    hits = 0
    from cpflow import is_admissible

    while hits < 10:
        metric = random_metric(tetra, rng, HYP, (0.05, 5.0), (1.5, 4.0))
        if is_admissible(tetra, metric)[0]:
            continue
        hits += 1
        assert abs(gauss_bonnet_defect(tetra, metric)) <= 1e-9
        assert extended_curvature(tetra, metric).extended


def test_permissive_negative_inversive_curvature(torus):
    # computation is exposed for inversive in (-1, 0); the total-curvature
    # identity is a formula-level fact and still holds
    metric = PackingMetric(
        HYP, np.full(torus.edge_count, -0.4), np.ones(torus.vertex_count),
        permissive=True,
    )
    curv = extended_curvature(torus, metric)
    assert np.all(np.isfinite(curv.values))
    assert abs(gauss_bonnet_defect(torus, metric)) <= 1e-9


def test_jacobian_hyperbolic_contracts(tetra):
    metric = PackingMetric(HYP, np.zeros(6), np.ones(4))
    jac = curvature_jacobian(tetra, metric)
    assert np.max(np.abs(jac - jac.T)) <= 1e-9
    assert np.linalg.eigvalsh(jac)[0] > 0
    np.linalg.cholesky(jac)  # positive definite


def test_jacobian_euclidean_row_sums(octa, rng):
    metric = random_admissible_metric(octa, rng, EUC, (0.5, 2.0), (0.0, 1.0))
    jac = curvature_jacobian(octa, metric)
    assert np.max(np.abs(jac.sum(axis=1))) <= 1e-9
    assert np.max(np.abs(jac - jac.T)) <= 1e-9


@pytest.mark.parametrize("background", [HYP, EUC])
def test_jacobian_finite_differences(background, genus2, rng):
    step = 1e-6
    for _ in range(3):
        metric = random_admissible_metric(genus2, rng, background, (0.5, 2.0), (0.0, 1.5))
        jac = curvature_jacobian(genus2, metric)
        u = radii_to_u_array(metric.radii, background)
        fd = np.empty_like(jac)
        for q in range(genus2.vertex_count):
            up, um = u.copy(), u.copy()
            up[q] += step
            um[q] -= step
            k_plus = extended_curvature(
                genus2, metric.with_radii(u_to_radii_array(up, background))
            ).values
            k_minus = extended_curvature(
                genus2, metric.with_radii(u_to_radii_array(um, background))
            ).values
            fd[:, q] = (k_plus - k_minus) / (2 * step)
        assert np.max(np.abs(jac - fd)) / np.max(np.abs(fd)) <= 1e-6


def test_jacobian_refused_on_degenerate(tetra):
    inversive = np.zeros(6)
    inversive[tetra.edge_id(2, 3)] = 3.0
    metric = PackingMetric(HYP, inversive, np.array([1e-8, 1.0, 1.0, 1.0]))
    with pytest.raises(BoundaryError):
        curvature_jacobian(tetra, metric)


def test_symmetry_of_mixed_partials(octa, rng):
    # dK_i/du_j = dK_j/du_i, checked off-diagonal by finite differences
    metric = random_admissible_metric(octa, rng, HYP, (0.5, 2.0), (0.0, 1.0))
    u = radii_to_u_array(metric.radii, HYP)
    step = 1e-6

    def curvature_at(u_values):
        return extended_curvature(
            octa, metric.with_radii(u_to_radii_array(u_values, HYP))
        ).values

    for i, j in [(0, 1), (2, 5), (1, 4)]:
        up, um = u.copy(), u.copy()
        up[j] += step
        um[j] -= step
        dki_duj = (curvature_at(up)[i] - curvature_at(um)[i]) / (2 * step)
        up, um = u.copy(), u.copy()
        up[i] += step
        um[i] -= step
        dkj_dui = (curvature_at(up)[j] - curvature_at(um)[j]) / (2 * step)
        assert dki_duj == pytest.approx(dkj_dui, abs=1e-6)


def _certificate(complex, metric):
    return stability_certificate(complex, metric.inversive, to_u(metric))


@pytest.mark.parametrize("n_radii, n_inversive", [(5, 6), (3, 6), (4, 5), (4, 7)])
@pytest.mark.parametrize(
    "entry",
    [extended_curvature, curvature, gauss_bonnet_defect, is_admissible,
     all_edge_lengths, curvature_jacobian, _certificate],
)
def test_metric_of_the_wrong_size_is_refused(tetra, entry, n_radii, n_inversive):
    # the tetrahedron has 4 vertices and 6 edges
    metric = PackingMetric(HYP, np.ones(n_inversive), np.ones(n_radii))
    with pytest.raises(ConfigError, match="does not fit a complex with 4 vertices and 6 edges"):
        entry(tetra, metric)
