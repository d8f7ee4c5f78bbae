import math

import numpy as np
import pytest

from qivr.embedding import (VARIANCE_FLOOR, DescriptorSet, DiagonalGmm,
                            NORM_POWER_L2, NORM_RAW, apply_pca, compute_fv,
                            fit_gmm, fit_pca, point_index, point_index_batch,
                            posteriors, posteriors_batch, reconstruct_hard_fv)
from qivr.errors import (DimensionMismatch, EmptyInputError, FormatError,
                         InsufficientData)


def _dset(vectors, name="t"):
    return DescriptorSet(name, np.asarray(vectors, dtype=float))


def _random_gmm(rng, k, d):
    w = rng.uniform(0.5, 1.5, k)
    return DiagonalGmm(weights=w / w.sum(),
                       means=rng.standard_normal((k, d)) * 2,
                       variances=rng.uniform(0.3, 1.8, (k, d)))


# ----------------------------------------------------------------- types

def test_descriptor_set_validation():
    with pytest.raises(DimensionMismatch):
        DescriptorSet("x", np.zeros(3))
    with pytest.raises(FormatError):
        DescriptorSet("x", np.array([[np.nan, 0.0]]))
    ds = _dset([[1, 2]])
    assert ds.n == 1 and ds.dim == 2
    assert ds.vectors.dtype == np.float64


def test_empty_descriptor_set_is_allowed():
    ds = DescriptorSet("empty", np.zeros((0, 4)))
    assert ds.n == 0 and ds.dim == 4


# ------------------------------------------------------------------- PCA

def test_pca_line_recovers_direction():
    rng = np.random.default_rng(0)
    t = rng.standard_normal(200)
    pts = np.outer(t, [1.0, 2.0])
    model = fit_pca([_dset(pts)], 1)
    direction = np.array([1.0, 2.0]) / math.sqrt(5.0)
    assert abs(model.basis[0] @ direction) == pytest.approx(1.0, abs=1e-9)
    # sign convention: the largest-magnitude entry is positive
    assert model.basis[0, np.argmax(np.abs(model.basis[0]))] > 0


def test_pca_full_rank_is_lossless():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50, 4))
    model = fit_pca([_dset(pts)], 4)
    proj = apply_pca(model, _dset(pts))
    back = proj.vectors @ model.basis + model.mean
    np.testing.assert_allclose(back, pts, atol=1e-9)
    np.testing.assert_allclose(model.basis @ model.basis.T, np.eye(4), atol=1e-6)


def test_pca_matches_svd_oracle():
    # construct data whose sample covariance eigenstructure is known exactly
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    n = 41
    z = rng.standard_normal((n, 5))
    z -= z.mean(axis=0)
    u, _, vt = np.linalg.svd(z, full_matrices=False)
    spectrum = np.array([4.0, 2.0, 1.0, 0.5, 0.25])
    pts = (u * spectrum) @ q.T * math.sqrt(n - 1)
    model = fit_pca([_dset(pts)], 3)
    for i in range(3):
        assert abs(model.basis[i] @ q[:, i]) == pytest.approx(1.0, abs=1e-9)


def test_pca_errors():
    with pytest.raises(InsufficientData):
        fit_pca([_dset(np.zeros((2, 4)))], 3)
    with pytest.raises(DimensionMismatch):
        fit_pca([_dset(np.zeros((9, 2)))], 3)
    model = fit_pca([_dset(np.random.default_rng(3).standard_normal((10, 3)))], 2)
    with pytest.raises(DimensionMismatch):
        apply_pca(model, _dset(np.zeros((1, 4))))


def test_pca_deterministic():
    pts = np.random.default_rng(4).standard_normal((30, 4))
    a = fit_pca([_dset(pts)], 2)
    b = fit_pca([_dset(pts)], 2)
    np.testing.assert_array_equal(a.basis, b.basis)
    np.testing.assert_array_equal(a.mean, b.mean)


# ------------------------------------------------------------ posteriors

def test_posteriors_single_component_is_one():
    gmm = DiagonalGmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    np.testing.assert_allclose(posteriors(gmm, [3.0, -1.0]), [1.0])


def test_posteriors_symmetric_midpoint():
    gmm = DiagonalGmm(np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]),
                      np.ones((2, 1)))
    np.testing.assert_allclose(posteriors(gmm, [0.0]), [0.5, 0.5], atol=1e-12)


def test_posteriors_match_direct_density_oracle():
    rng = np.random.default_rng(5)
    gmm = _random_gmm(rng, 4, 3)
    x = rng.standard_normal((25, 3))
    dens = np.empty((25, 4))
    for k in range(4):
        norm = np.prod(2 * np.pi * gmm.variances[k]) ** -0.5
        quad = np.sum((x - gmm.means[k]) ** 2 / gmm.variances[k], axis=1)
        dens[:, k] = gmm.weights[k] * norm * np.exp(-0.5 * quad)
    want = dens / dens.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(posteriors_batch(gmm, x), want, rtol=1e-9)


def test_posteriors_rows_normalized():
    rng = np.random.default_rng(6)
    gmm = _random_gmm(rng, 6, 4)
    x = rng.standard_normal((100, 4)) * 5
    np.testing.assert_allclose(posteriors_batch(gmm, x).sum(axis=1), 1.0, atol=1e-9)


# -------------------------------------------------------------------- EM

def test_gmm_single_component_closed_form():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((80, 3)) * 2 + 5
    gmm = fit_gmm([_dset(pts)], 1, seed=0)
    np.testing.assert_allclose(gmm.weights, [1.0])
    np.testing.assert_allclose(gmm.means[0], pts.mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(gmm.variances[0],
                               np.maximum(pts.var(axis=0), VARIANCE_FLOOR), atol=1e-9)


def test_gmm_two_separated_blobs():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((120, 1)) * 0.1
    b = rng.standard_normal((60, 1)) * 0.1 + 100.0
    gmm = fit_gmm([_dset(np.vstack([a, b]))], 2, seed=1)
    means = np.sort(gmm.means[:, 0])
    assert abs(means[0] - 0.0) < 0.5 and abs(means[1] - 100.0) < 0.5
    weights = gmm.weights[np.argsort(gmm.means[:, 0])]
    np.testing.assert_allclose(weights, [120 / 180, 60 / 180], atol=0.05)


def test_gmm_monotone_log_likelihood():
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.standard_normal((70, 2)),
                     rng.standard_normal((70, 2)) + 4])
    gmm = fit_gmm([_dset(pts)], 3, seed=2)
    diffs = np.diff(gmm.ll_trace)
    assert np.all(diffs >= -1e-9)


def test_gmm_reports_convergence():
    rng = np.random.default_rng(9)
    pts = np.vstack([rng.standard_normal((70, 2)),
                     rng.standard_normal((70, 2)) + 4])
    capped = fit_gmm([_dset(pts)], 3, seed=2, max_iters=2)
    assert capped.converged is False
    assert len(capped.ll_trace) == 2
    done = fit_gmm([_dset(pts)], 3, seed=2)
    assert done.converged is True
    assert len(done.ll_trace) < 100
    # a fitting record, not part of the model's value
    assert capped == DiagonalGmm(capped.weights, capped.means, capped.variances)


def test_gmm_bit_identical_for_same_seed():
    pts = np.random.default_rng(10).standard_normal((90, 3))
    a = fit_gmm([_dset(pts)], 4, seed=11)
    b = fit_gmm([_dset(pts)], 4, seed=11)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)


def test_gmm_needs_enough_points():
    with pytest.raises(InsufficientData):
        fit_gmm([_dset(np.zeros((3, 2)))], 5, seed=0)


def test_gmm_variances_floored():
    pts = np.tile([[1.0, 2.0]], (30, 1))  # zero-variance corpus
    gmm = fit_gmm([_dset(pts)], 1, seed=0)
    assert np.all(gmm.variances >= VARIANCE_FLOOR)


# ----------------------------------------------------------- Fisher vec

def _fv_oracle(gmm, x):
    gamma = posteriors_batch(gmm, x)
    k, d = gmm.n_components, gmm.dim
    fv = np.zeros(k * d)
    for i in range(x.shape[0]):
        for j in range(k):
            res = (x[i] - gmm.means[j]) / np.sqrt(gmm.variances[j])
            fv[j * d:(j + 1) * d] += gamma[i, j] * res / np.sqrt(gmm.weights[j])
    return fv / x.shape[0]


def test_fv_matches_double_loop_oracle():
    rng = np.random.default_rng(12)
    gmm = _random_gmm(rng, 5, 3)
    x = rng.standard_normal((40, 3))
    fv = compute_fv(gmm, _dset(x), normalize=False)
    assert fv.normalization_tag == NORM_RAW
    np.testing.assert_allclose(fv.values, _fv_oracle(gmm, x), rtol=1e-9, atol=1e-12)


def _fv_per_component(gmm, x):
    """The per-component loop compute_fv replaced, in its arithmetic order."""
    gamma = posteriors_batch(gmm, x)
    inv_sigma = 1.0 / np.sqrt(gmm.variances)
    k, d = gmm.n_components, gmm.dim
    fv = np.empty(k * d)
    for j in range(k):
        block = (gamma[:, j:j + 1] * (x - gmm.means[j])).sum(axis=0)
        fv[j * d:(j + 1) * d] = block * inv_sigma[j] / (x.shape[0] * np.sqrt(gmm.weights[j]))
    return fv


def test_fv_equals_per_component_loop_bit_for_bit():
    # d = 1 with N >= 8 is where an (N, K, d) sum over axis 0 rounds differently
    rng = np.random.default_rng(14)
    for k, d, n in [(1, 1, 8), (3, 1, 9), (4, 1, 40), (16, 1, 200), (5, 3, 1),
                    (2, 8, 7), (16, 8, 8), (7, 17, 150)]:
        for scale in (0.1, 1.0, 100.0):
            gmm = _random_gmm(rng, k, d)
            gmm = DiagonalGmm(gmm.weights, gmm.means * scale, gmm.variances * scale ** 2)
            x = rng.standard_normal((n, d)) * scale
            got = compute_fv(gmm, _dset(x), normalize=False).values
            assert np.array_equal(got, _fv_per_component(gmm, x)), (k, d, n, scale)


def test_fv_normalization_is_signed_sqrt_then_l2():
    rng = np.random.default_rng(13)
    gmm = _random_gmm(rng, 3, 2)
    x = rng.standard_normal((20, 2))
    raw = compute_fv(gmm, _dset(x), normalize=False).values
    want = np.sign(raw) * np.sqrt(np.abs(raw))
    want /= np.linalg.norm(want)
    got = compute_fv(gmm, _dset(x))
    assert got.normalization_tag == NORM_POWER_L2
    np.testing.assert_allclose(got.values, want, rtol=1e-12)
    assert np.linalg.norm(got.values) == pytest.approx(1.0, abs=1e-12)


def test_fv_zero_vector_stays_zero():
    gmm = DiagonalGmm(np.array([1.0]), np.array([[2.0, -1.0]]), np.ones((1, 2)))
    x = np.tile([[2.0, -1.0]], (5, 1))  # descriptors exactly at the mean
    fv = compute_fv(gmm, _dset(x))
    np.testing.assert_array_equal(fv.values, np.zeros(2))


def test_fv_rejects_empty_and_mismatched_input():
    gmm = DiagonalGmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(EmptyInputError):
        compute_fv(gmm, DescriptorSet("e", np.zeros((0, 2))))
    with pytest.raises(DimensionMismatch):
        compute_fv(gmm, _dset(np.zeros((3, 4))))


# --------------------------------------------------------- point index

def test_point_index_identity_parameters():
    gmm = DiagonalGmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    t = point_index(gmm, [1.0, 2.0])
    assert t.component == 0
    assert t.coefficient == pytest.approx(1.0)
    np.testing.assert_allclose(t.residual, [1.0, 2.0])


def test_point_index_picks_dominant_component():
    gmm = DiagonalGmm(np.array([0.5, 0.5]),
                      np.array([[0.0, 0.0], [50.0, 50.0]]),
                      np.ones((2, 2)))
    assert point_index(gmm, [50.0, 50.0]).component == 1
    assert point_index(gmm, [0.0, 0.0]).component == 0


def test_point_index_component_matches_posterior_argmax():
    rng = np.random.default_rng(14)
    gmm = _random_gmm(rng, 8, 4)
    x = rng.standard_normal((100, 4)) * 2
    comp, coeff, residuals = point_index_batch(gmm, x)
    gamma = posteriors_batch(gmm, x)
    np.testing.assert_array_equal(comp, np.argmax(gamma, axis=1))
    np.testing.assert_allclose(
        coeff, gamma[np.arange(100), comp] / np.sqrt(gmm.weights[comp]), rtol=1e-12)
    np.testing.assert_allclose(
        residuals, (x - gmm.means[comp]) / np.sqrt(gmm.variances[comp]), rtol=1e-12)


def test_point_index_rejects_non_finite():
    gmm = DiagonalGmm(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
    with pytest.raises(ValueError):
        point_index(gmm, [np.inf])


# -------------------------------------------------------- reconstruction

def _masked_fv_oracle(gmm, x):
    """compute_fv with each posterior row masked to its argmax component."""
    gamma = posteriors_batch(gmm, x)
    comp = np.argmax(gamma, axis=1)
    k, d = gmm.n_components, gmm.dim
    fv = np.zeros(k * d)
    for i in range(x.shape[0]):
        j = comp[i]
        res = (x[i] - gmm.means[j]) / np.sqrt(gmm.variances[j])
        fv[j * d:(j + 1) * d] += gamma[i, j] * res / np.sqrt(gmm.weights[j])
    return fv / x.shape[0]


def test_reconstruct_empty_is_zero():
    fv = reconstruct_hard_fv([], 3, 2, 4)
    np.testing.assert_array_equal(fv.values, np.zeros(6))


def test_reconstruct_single_triplet():
    gmm = DiagonalGmm(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
    t = point_index(gmm, [1.0, -2.0, 0.5])
    fv = reconstruct_hard_fv([t], 1, 3, 1)
    np.testing.assert_allclose(fv.values, [1.0, -2.0, 0.5])


def test_reconstruct_matches_masked_posterior_fv():
    rng = np.random.default_rng(15)
    gmm = _random_gmm(rng, 5, 3)
    x = rng.standard_normal((30, 3)) * 1.5
    trips = [point_index(gmm, row) for row in x]
    fv = reconstruct_hard_fv(trips, 5, 3, len(x))
    np.testing.assert_allclose(fv.values, _masked_fv_oracle(gmm, x),
                               rtol=1e-9, atol=1e-12)


def test_reconstruct_range_check():
    gmm = DiagonalGmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    t = point_index(gmm, [1.0, 1.0])
    with pytest.raises(IndexError):
        reconstruct_hard_fv([t], 0, 2, 1)
