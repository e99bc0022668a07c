from __future__ import annotations

import numpy as np
import pytest

from cpflow import (
    Background,
    BoundaryError,
    DomainError,
    RangeError,
    angle_jacobian_u,
    clamped_arccos,
    degenerate_threshold_radius,
    edge_length,
    extended_angles,
    triangle_area,
)
from cpflow.packing import radii_to_u_array, u_to_radii_array

HYP = Background.HYPERBOLIC
EUC = Background.EUCLIDEAN


def _lengths_from_radii(background, radii, inversive):
    """Side opposite vertex m joins the other two vertices."""
    out = np.empty(3)
    for m in range(3):
        j, k = (m + 1) % 3, (m + 2) % 3
        out[m] = edge_length(background, radii[j], radii[k], inversive[m])
    return out


def _classical_angles(background, lengths):
    """Plain cosine-law oracle, valid strictly inside the triangle region."""
    out = np.empty(3)
    for m in range(3):
        j, k = (m + 1) % 3, (m + 2) % 3
        if background is EUC:
            ratio = (lengths[j] ** 2 + lengths[k] ** 2 - lengths[m] ** 2) / (
                2 * lengths[j] * lengths[k]
            )
        else:
            ratio = (
                np.cosh(lengths[j]) * np.cosh(lengths[k]) - np.cosh(lengths[m])
            ) / (np.sinh(lengths[j]) * np.sinh(lengths[k]))
        out[m] = np.arccos(ratio)
    return out


# ---------------------------------------------------------------------------
# clamped arccos
# ---------------------------------------------------------------------------

def test_clamped_arccos_branches():
    assert clamped_arccos(-2.0) == np.pi
    assert clamped_arccos(0.0) == pytest.approx(np.pi / 2, rel=1e-15)
    assert clamped_arccos(1.0) == 0.0
    assert abs(clamped_arccos(1.0 - 1e-12) - 0.0) < 1e-5


def test_clamped_arccos_properties():
    xs = np.linspace(-3.0, 3.0, 1001)
    values = clamped_arccos(xs)
    assert np.all(np.diff(values) <= 0)  # nonincreasing
    assert np.allclose(clamped_arccos(-xs), np.pi - values, atol=1e-14)


# ---------------------------------------------------------------------------
# extended angles
# ---------------------------------------------------------------------------

def test_degenerate_rule_both_backgrounds():
    for background in (EUC, HYP):
        angles = extended_angles(background, (5.0, 1.0, 1.0))
        assert angles.degenerate
        assert angles.values.tolist() == [np.pi, 0.0, 0.0]
        # boundary case is degenerate too
        angles = extended_angles(background, (2.0, 1.0, 1.0))
        assert angles.degenerate
        assert angles.values.tolist() == [np.pi, 0.0, 0.0]


def test_equilateral_examples():
    angles = extended_angles(EUC, (1.0, 1.0, 1.0))
    assert not angles.degenerate
    assert angles.values == pytest.approx(np.full(3, np.pi / 3), rel=1e-14)

    x = np.arccosh(2.0)
    angles = extended_angles(HYP, (x, x, x))
    assert angles.values == pytest.approx(np.full(3, np.arccos(2.0 / 3.0)), rel=1e-13)


def test_matches_classical_inside(rng):
    for background in (EUC, HYP):
        found = 0
        while found < 300:
            lengths = np.exp(rng.uniform(np.log(0.2), np.log(3.0), 3))
            sides = np.sort(lengths)
            if sides[0] + sides[1] <= sides[2] * 1.001:
                continue
            found += 1
            got = extended_angles(background, lengths)
            assert not got.degenerate
            assert got.values == pytest.approx(
                _classical_angles(background, lengths), abs=1e-12
            )


def test_angle_sums():
    rng = np.random.default_rng(1)
    for _ in range(200):
        lengths = np.exp(rng.uniform(np.log(0.3), np.log(2.0), 3))
        sides = np.sort(lengths)
        if sides[0] + sides[1] <= sides[2]:
            continue
        tot_e = extended_angles(EUC, lengths).total
        tot_h = extended_angles(HYP, lengths).total
        assert tot_e == pytest.approx(np.pi, abs=1e-12)
        assert tot_h < np.pi


def test_continuity_across_boundary(rng):
    # one-sided limits along rays crossing the degenerate boundary; the
    # inside branch approaches its limit like sqrt(eps), so extrapolate it
    for background in (EUC, HYP):
        for _ in range(100):
            xj, xk = np.exp(rng.uniform(np.log(0.2), np.log(3.0), 2))
            bound = xj + xk
            eps = 1e-10 * bound
            inside = (
                2.0 * extended_angles(background, (bound - eps / 4, xj, xk)).values
                - extended_angles(background, (bound - eps, xj, xk)).values
            )
            outside = extended_angles(background, (bound + eps, xj, xk)).values
            assert np.max(np.abs(inside - outside)) <= 1e-6


def test_triangle_area():
    assert triangle_area(HYP, extended_angles(HYP, (5.0, 1.0, 1.0))) == 0.0
    x = np.arccosh(2.0)
    area = triangle_area(HYP, extended_angles(HYP, (x, x, x)))
    assert area == pytest.approx(np.pi - 3 * np.arccos(2.0 / 3.0), rel=1e-13)
    assert abs(triangle_area(EUC, extended_angles(EUC, (1.0, 1.2, 0.7)))) < 1e-12


def test_angles_reject_bad_lengths():
    with pytest.raises(DomainError):
        extended_angles(HYP, (1.0, -1.0, 1.0))
    with pytest.raises(RangeError):
        extended_angles(HYP, (400.0, 1.0, 400.0))


# ---------------------------------------------------------------------------
# angle Jacobian in u-coordinates
# ---------------------------------------------------------------------------

def test_jacobian_symmetric_under_permutation():
    jac = angle_jacobian_u(HYP, np.ones(3), np.full(3, 0.5))
    assert jac[0, 0] == pytest.approx(jac[1, 1], rel=1e-12)
    assert jac[0, 1] == pytest.approx(jac[1, 2], rel=1e-12)
    perm = np.array([1, 2, 0])
    assert np.allclose(jac[np.ix_(perm, perm)], jac, atol=1e-12)


def _jacobian_samples(rng, background, count):
    out = []
    while len(out) < count:
        radii = np.exp(rng.uniform(np.log(0.3), np.log(2.5), 3))
        inversive = rng.uniform(0.0, 2.0, 3)
        lengths = _lengths_from_radii(background, radii, inversive)
        sides = np.sort(lengths)
        if sides[0] + sides[1] <= sides[2] * 1.01:
            continue
        out.append((radii, inversive))
    return out


@pytest.mark.parametrize("background", [HYP, EUC])
def test_jacobian_contracts(background, rng):
    for radii, inversive in _jacobian_samples(rng, background, 25):
        jac = angle_jacobian_u(background, radii, inversive)
        assert np.max(np.abs(jac - jac.T)) <= 1e-9
        eigenvalues = np.linalg.eigvalsh(jac)
        if background is HYP:
            assert eigenvalues.max() < 0
        else:
            # euclidean scaling invariance: all-ones kernel, rest negative
            assert abs(jac.sum()) < 1e-9
            assert eigenvalues.max() < 1e-10
            assert np.sum(eigenvalues < -1e-12) == 2


@pytest.mark.parametrize("background", [HYP, EUC])
def test_jacobian_matches_finite_differences(background, rng):
    step = 1e-5
    for radii, inversive in _jacobian_samples(rng, background, 10):
        jac = angle_jacobian_u(background, radii, inversive)
        u = radii_to_u_array(radii, background)

        def theta(u_values):
            r = u_to_radii_array(u_values, background)
            return extended_angles(
                background, _lengths_from_radii(background, r, inversive)
            ).values

        fd = np.empty((3, 3))
        for q in range(3):
            up, um = u.copy(), u.copy()
            up[q] += step
            um[q] -= step
            fd[:, q] = (theta(up) - theta(um)) / (2 * step)
        assert np.max(np.abs(jac - fd)) / np.max(np.abs(fd)) <= 1e-6


def test_jacobian_refused_at_boundary():
    # radii making one face degenerate: inversive 5 on the edge opposite a
    # small-radius vertex
    with pytest.raises(BoundaryError):
        angle_jacobian_u(HYP, np.array([1e-3, 1.0, 1.0]), np.array([5.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "background, radii, inversive",
    [
        (HYP, (0.75, 5.3, 2.9), (0.0, 2.5, -1.1)),
        (EUC, (0.12, 3.7, 0.75), (-1.02, 1.27, 0.085)),
    ],
)
def test_jacobian_refuses_inversive_at_most_minus_one(background, radii, inversive):
    with pytest.raises(DomainError, match="> -1"):
        angle_jacobian_u(background, np.array(radii), np.array(inversive))


def test_jacobian_range_guard():
    with pytest.raises(RangeError):
        angle_jacobian_u(HYP, np.array([360.0, 1.0, 1.0]), np.zeros(3))


# ---------------------------------------------------------------------------
# threshold radius and limits
# ---------------------------------------------------------------------------

def test_threshold_radius_zero_cases():
    assert degenerate_threshold_radius(1.0, 1.0, 0.0, 0.0, 1.0) == 0.0
    assert degenerate_threshold_radius(2.0, 0.5, 0.3, 0.7, 0.5) == 0.0


def test_threshold_radius_above_one():
    # the root lies above the first bracket [0, 1], so the bracket doubles
    root = degenerate_threshold_radius(2.0, 2.0, 0.0, 0.0, 50.0)
    assert root == pytest.approx(2.2667, abs=1e-4)
    gap = 2 * edge_length(HYP, root, 2.0, 0.0) - edge_length(HYP, 2.0, 2.0, 50.0)
    assert abs(gap) <= 1e-12


@pytest.mark.parametrize(
    "args",
    [(0.0, 1.0, 0.2, 0.3, 2.0), (1.0, np.nan, 0.2, 0.3, 2.0),
     (1.0, 1.0, -0.2, 0.3, 2.0), (1e-200, 1.0, np.nan, 0.2, 400.0)],
)
def test_threshold_radius_refuses_bad_input(args):
    with pytest.raises(DomainError):
        degenerate_threshold_radius(*args)


@pytest.mark.parametrize("radius", [0.1, 1.0, 5.0])
def test_threshold_radius_of_an_inversive_distance_just_above_one(radius):
    # The exact root is of order sqrt(2.3e-16) r or less, below what the
    # kernel resolves; the bisection on the kernel's own rule returns a
    # radius where it sees the face degenerate (0 if it sees no such
    # radius), with no failed bracket check.
    root = degenerate_threshold_radius(radius, radius, 0.0, 0.0, 1.0 + 2.3e-16)
    assert 0.0 <= root < 1e-6 * radius


def test_threshold_radius_root(rng):
    for _ in range(20):
        r_j, r_k = np.exp(rng.uniform(np.log(0.3), np.log(2.0), 2))
        inv_ij, inv_ik = rng.uniform(0.0, 2.0, 2)
        inv_jk = rng.uniform(1.05, 5.0)
        root = degenerate_threshold_radius(r_j, r_k, inv_ij, inv_ik, inv_jk)
        assert root > 0

        def gap(r_i):
            return (
                edge_length(HYP, r_i, r_j, inv_ij)
                + edge_length(HYP, r_i, r_k, inv_ik)
                - edge_length(HYP, r_j, r_k, inv_jk)
            )

        assert abs(gap(root)) <= 1e-12
        assert gap(root * (1 - 1e-6)) < 0 < gap(root * (1 + 1e-6))


def _threshold_cases():
    """The two worked examples, then 200 draws with r_j, r_k log-uniform in
    [e^-3, e^2] and I uniform in [0, 3].  In both examples corner k is
    degenerate (l_ik + l_jk < l_ij) at every r_i >= 0.5, and 14 of the
    draws also keep a second corner degenerate as r_i grows, where a
    bisection on the whole face's mask ran past the size limit."""
    rng = np.random.default_rng(7)
    cases = [((3.93, 0.05, 2.5, 2.4, 1.4), 0.003986369223748811),
             ((2.0, 0.1, 3.0, 1.0, 1.5), 0.011162727712182432)]
    for _ in range(200):
        r_j, r_k = np.exp(rng.uniform(-3.0, 2.0, 2))
        cases.append(((r_j, r_k, *rng.uniform(0.0, 3.0, 3)), None))
    return cases


def test_threshold_radius_solves_corner_i_whatever_the_other_corners_do():
    # The threshold is the root of l_ij + l_ik = l_jk alone; a degenerate
    # corner j or k must neither hide it nor push the bracket past the size limit.
    for (r_j, r_k, inv_ij, inv_ik, inv_jk), expected in _threshold_cases():
        root = degenerate_threshold_radius(r_j, r_k, inv_ij, inv_ik, inv_jk)
        assert np.isfinite(root) and root >= 0.0
        if expected is not None:
            assert root == pytest.approx(expected, rel=1e-12)
        if inv_jk > 1.0:
            gap = (edge_length(HYP, root, r_j, inv_ij) + edge_length(HYP, root, r_k, inv_ik)
                   - edge_length(HYP, r_j, r_k, inv_jk))
            assert abs(gap) <= 1e-12
        else:
            assert root == 0.0


def test_small_radius_limit(rng):
    # as r_i -> 0 the angle at i tends to pi minus the clamped arccos of
    # the opposite inversive distance
    for inv_jk in (0.0, 0.5, 2.0, 4.0):
        r_j, r_k = 0.8, 1.3
        inversive = np.array([inv_jk, 0.4, 0.9])
        radii = np.array([1e-6, r_j, r_k])
        lengths = _lengths_from_radii(HYP, radii, inversive)
        theta = extended_angles(HYP, lengths).values
        assert abs(theta[0] - (np.pi - clamped_arccos(inv_jk))) <= 1e-4


def test_small_radius_limit_at_tangency():
    # at the tangency value the limit is approached like sqrt(r), so the
    # gap is larger at fixed r but still shrinks along the sequence
    inversive = np.array([1.0, 0.4, 0.9])
    gaps = []
    for r_small in (1e-4, 1e-6, 1e-8):
        lengths = _lengths_from_radii(HYP, np.array([r_small, 0.8, 1.3]), inversive)
        theta = extended_angles(HYP, lengths).values
        gaps.append(abs(theta[0] - np.pi))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-3


def test_two_small_radii_limit():
    inversive = np.array([0.6, 1.2, 0.8])
    radii = np.array([1e-6, 1e-6, 1.0])
    lengths = _lengths_from_radii(HYP, radii, inversive)
    theta = extended_angles(HYP, lengths).values
    assert abs(theta[2]) <= 1e-4


def test_large_radius_limit():
    inversive = np.array([0.5, 0.5, 0.5])
    radii = np.array([50.0, 1.0, 1.0])
    lengths = _lengths_from_radii(HYP, radii, inversive)
    theta = extended_angles(HYP, lengths).values
    assert theta[0] < 1e-3


def test_angle_decreasing_in_own_radius(rng):
    for _ in range(20):
        inversive = rng.uniform(0.0, 2.0, 3)
        r_j, r_k = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 2))
        thetas = []
        for r_i in np.linspace(0.2, 3.0, 15):
            radii = np.array([r_i, r_j, r_k])
            lengths = _lengths_from_radii(HYP, radii, inversive)
            sides = np.sort(lengths)
            if sides[0] + sides[1] <= sides[2]:
                thetas.append(None)
                continue
            theta = extended_angles(HYP, lengths).values[0]
            # range bound for classical angles inside the admissible region
            assert 0 < theta < np.pi - clamped_arccos(inversive[0])
            thetas.append(theta)
        seq = [t for t in thetas if t is not None]
        assert all(b < a for a, b in zip(seq, seq[1:]))
