"""Descriptor embedding models: PCA, diagonal-covariance GMM, Fisher vectors.

The Fisher vector here is the mean-gradient form

    G_k = (1/N) sum_x gamma_x(k) * sigma_k^-1 (x - mu_k) / sqrt(w_k)

which decomposes per descriptor into the point-indexed triplet
{r; gamma_x(r)/sqrt(w_r); sigma_r^-1 (x - mu_r)} with r the strongest
soft-assignment component. ``compute_fv`` and ``point_index`` share these
factors exactly so hard-assignment reconstruction is possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .clustering import kmeans_pp_init
from .errors import DimensionMismatch, EmptyInputError, FormatError, InsufficientData

VARIANCE_FLOOR = 1e-6

NORM_RAW = "raw"
NORM_POWER_L2 = "power_l2"


@dataclass(frozen=True)
class DescriptorSet:
    """A bag of d-dimensional local descriptors from one image or frame."""

    source_id: str
    vectors: np.ndarray  # (N, d) float64

    def __post_init__(self):
        v = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionMismatch(f"descriptors must be 2-D, got shape {v.shape}")
        if v.size and not np.isfinite(v).all():
            raise FormatError(f"non-finite descriptor values in {self.source_id!r}")
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray   # (d_in,)
    basis: np.ndarray  # (d_out, d_in), orthonormal rows

    @property
    def d_in(self) -> int:
        return self.basis.shape[1]

    @property
    def d_out(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class DiagonalGmm:
    weights: np.ndarray    # (K,) positive, sums to 1
    means: np.ndarray      # (K, d)
    variances: np.ndarray  # (K, d) floored at VARIANCE_FLOOR
    # per-iteration mean log-likelihood from fitting; not serialized
    ll_trace: np.ndarray | None = field(default=None, compare=False)
    # whether fitting met its tolerance before the iteration cap; not serialized
    converged: bool | None = field(default=None, compare=False)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class FisherVector:
    values: np.ndarray  # (K * d,)
    normalization_tag: str  # NORM_RAW or NORM_POWER_L2


@dataclass(frozen=True)
class PointIndexedTriplet:
    component: int          # index of the strongest Gaussian
    coefficient: float      # gamma / sqrt(w_r)
    residual: np.ndarray    # sigma_r^-1 (x - mu_r)


def _stack_corpus(corpus) -> np.ndarray:
    dims = {ds.dim for ds in corpus}
    if len(dims) > 1:
        raise DimensionMismatch(f"descriptor sets disagree on dimension: {sorted(dims)}")
    parts = [ds.vectors for ds in corpus if ds.n > 0]
    if not parts:
        raise InsufficientData("corpus holds no descriptors")
    return np.vstack(parts)


def fit_pca(corpus, d_out: int) -> PcaModel:
    """Fit a PCA projection to the pooled corpus descriptors.

    The basis rows are the top-d_out eigenvectors of the sample covariance,
    sign-fixed (largest-magnitude entry positive) so the fit is deterministic.
    """
    x = _stack_corpus(corpus)
    if x.shape[0] < d_out:
        raise InsufficientData(f"need >= {d_out} descriptors for PCA, got {x.shape[0]}")
    if d_out > x.shape[1] or d_out < 1:
        raise DimensionMismatch(f"d_out={d_out} invalid for input dimension {x.shape[1]}")
    mean = x.mean(axis=0)
    cov = np.cov(x - mean, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:d_out]
    basis = eigvecs[:, order].T.copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, basis=basis)


def apply_pca(model: PcaModel, dset: DescriptorSet) -> DescriptorSet:
    if dset.dim != model.d_in:
        raise DimensionMismatch(
            f"descriptor dim {dset.dim} != PCA input dim {model.d_in}")
    projected = (dset.vectors - model.mean) @ model.basis.T
    return DescriptorSet(dset.source_id, projected)


def _log_joint(gmm: DiagonalGmm, x: np.ndarray) -> np.ndarray:
    """log w_k + log N(x; mu_k, var_k) for each row of x."""
    return kernels.gauss_logprob(x, gmm.means, gmm.variances) + np.log(gmm.weights)


def posteriors_batch(gmm: DiagonalGmm, x: np.ndarray) -> np.ndarray:
    """Soft-assignment probabilities gamma_x(k), one row per descriptor."""
    lj = _log_joint(gmm, np.ascontiguousarray(x, dtype=np.float64))
    lj -= lj.max(axis=1, keepdims=True)
    p = np.exp(lj)
    p /= p.sum(axis=1, keepdims=True)
    return p


def posteriors(gmm: DiagonalGmm, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite query point")
    return posteriors_batch(gmm, x[None, :])[0]


def fit_gmm(corpus, n_components: int, seed: int, max_iters: int = 100,
            tol: float = 1e-6) -> DiagonalGmm:
    """EM fit of a diagonal-covariance mixture, k-means++ initialized.

    Deterministic for a fixed (corpus, n_components, seed). Components that
    collapse to zero responsibility are re-seeded at the currently
    worst-explained point. Variances are floored at VARIANCE_FLOOR. The
    result's ``converged`` is False when EM ran all ``max_iters`` iterations
    without the log-likelihood gain falling below ``tol``.
    """
    x = _stack_corpus(corpus)
    n, dim = x.shape
    if n < n_components:
        raise InsufficientData(
            f"need >= {n_components} descriptors to fit {n_components} components")
    rng = np.random.default_rng(seed)
    means = kmeans_pp_init(x, n_components, rng)
    global_var = np.maximum(np.var(x, axis=0), VARIANCE_FLOOR)
    variances = np.tile(global_var, (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)

    trace = []
    prev_ll = -np.inf
    converged = False
    for _ in range(max_iters):
        model = DiagonalGmm(weights, means, variances)
        lj = _log_joint(model, x)
        row_max = lj.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(np.exp(lj - row_max).sum(axis=1))
        ll = log_norm.mean()
        trace.append(ll)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            converged = True
            break
        resp = np.exp(lj - log_norm[:, None])
        nk = resp.sum(axis=0)
        empty = nk < n * 1e-12
        if empty.any():
            # re-seed dead components at the least-explained point and
            # restart the convergence window
            worst = int(np.argmin(log_norm))
            means = means.copy()
            variances = variances.copy()
            for k in np.flatnonzero(empty):
                means[k] = x[worst]
                variances[k] = global_var
            weights = np.maximum(nk / n, 1.0 / n)
            weights = weights / weights.sum()
            prev_ll = -np.inf
            continue
        prev_ll = ll
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        second = (resp.T @ (x * x)) / nk[:, None]
        variances = np.maximum(second - means ** 2, VARIANCE_FLOOR)
    return DiagonalGmm(weights, means, variances, ll_trace=np.asarray(trace),
                       converged=converged)


def compute_fv(gmm: DiagonalGmm, dset: DescriptorSet, normalize: bool = True) -> FisherVector:
    """Mean-gradient Fisher vector of a descriptor set.

    With ``normalize`` the signed square root is applied componentwise and
    the result scaled to unit Euclidean norm (all-zero vectors stay zero).
    """
    if dset.n == 0:
        raise EmptyInputError(f"cannot embed empty descriptor set {dset.source_id!r}")
    if dset.dim != gmm.dim:
        raise DimensionMismatch(f"descriptor dim {dset.dim} != GMM dim {gmm.dim}")
    x = dset.vectors
    gamma = posteriors_batch(gmm, x)
    # component-major (K, N, d): each component's (N, d) block is contiguous
    # and summed over its rows exactly as a per-component sum(axis=0) would be
    blocks = (gamma.T[:, :, None] * (x - gmm.means[:, None, :])).sum(axis=1)
    fv = (blocks * (1.0 / np.sqrt(gmm.variances))
          / (dset.n * np.sqrt(gmm.weights))[:, None]).ravel()
    if not normalize:
        return FisherVector(fv, NORM_RAW)
    fv = np.sign(fv) * np.sqrt(np.abs(fv))
    norm = np.linalg.norm(fv)
    if norm > 0.0:
        fv = fv / norm
    return FisherVector(fv, NORM_POWER_L2)


def point_index_batch(gmm: DiagonalGmm, x: np.ndarray):
    """Vectorized point-indexed encoding of descriptor rows.

    Returns (components, coefficients, residuals) where residuals[i] is the
    per-dimension standardized offset from descriptor i's strongest Gaussian.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    gamma = posteriors_batch(gmm, x)
    comp = np.argmax(gamma, axis=1)  # first max wins ties
    coeff = gamma[np.arange(x.shape[0]), comp] / np.sqrt(gmm.weights[comp])
    residuals = (x - gmm.means[comp]) / np.sqrt(gmm.variances[comp])
    return comp, coeff, residuals


def point_index(gmm: DiagonalGmm, x: np.ndarray) -> PointIndexedTriplet:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite descriptor")
    comp, coeff, residuals = point_index_batch(gmm, x[None, :])
    return PointIndexedTriplet(int(comp[0]), float(coeff[0]), residuals[0])


def reconstruct_hard_fv(triplets, n_components: int, dim: int, n: int) -> FisherVector:
    """Rebuild the hard-assignment Fisher vector from point-indexed triplets.

    Equals ``compute_fv`` with every posterior row masked to its argmax
    component (left unrenormalized).
    """
    fv = np.zeros(n_components * dim)
    for t in triplets:
        if not 0 <= t.component < n_components:
            raise IndexError(f"component {t.component} out of range [0, {n_components})")
        if t.residual.shape[0] != dim:
            raise DimensionMismatch(
                f"residual dim {t.residual.shape[0]} != {dim}")
        block = slice(t.component * dim, (t.component + 1) * dim)
        fv[block] += t.coefficient * t.residual / n
    return FisherVector(fv, NORM_RAW)
