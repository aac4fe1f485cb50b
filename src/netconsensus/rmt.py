"""Random-matrix predictor for normalized-Laplacian spectra of block models.

The bulk density comes from the K-dimensional resolvent fixed point

    t_r(z) = 1 / (z - 1 - sum_s M_rs t_s(z)),   M_rs = n_s V_rs,

where V is the blockwise entry variance and the constant 1 reflects the unit
diagonal of the normalized Laplacian. All grid points are solved at once:
damped updates, which converge to the physical branch (Helton, Far and
Speicher, IMRN 2007), then Newton steps, one batched K x K solve over the
grid each. The bulk is symmetric about 1, and its edges 1 -/+ c are where the
stability operator I - diag(t^2) M degenerates (Ajanki, Erdos and Kruger,
arXiv:1506.05095):

    c = max over the simplex of 2 sum_s sqrt(v_s (M^T v)_s)
      = min over t > 0 of max_r (1/t_r + (M t)_r),

one small convex problem instead of a scan. The isolated eigenvalues are the
roots of det(I + T(z) E N) on the noise-free resolvent T = 1/(z - 1), with E
the positive expectation kernel of block_matrices (the Laplacian's
off-diagonal expectation is negative, hence the sign). Those roots are
exactly 1 - eig(E N), the low-rank eigenvalues of the expected Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sbm import SbmModel, block_matrices

__all__ = [
    "SpectralPrediction",
    "SupportNotFoundError",
    "Support",
    "bulk_density",
    "support_boundaries",
    "isolated_eigenvalues",
    "predict",
]

DEFAULT_MAX_ITERS = 200_000
DEFAULT_TOL = 1e-12
# near-limit imaginary offset for reported densities; larger values broaden
# the support edges beyond the tolerances the predictions are held to
DEFAULT_ETA = 1e-9
# resolvent residual below which damped updates give way to Newton steps
_NEWTON_START = 1e-3
_SINGULAR_FLOOR = 1e-14
# isolated values 1 - eig(E N) closer than this to the support count as bulk
EDGE_MARGIN = 2e-3
# relative gap between the edge solve's two bounds on c; the slowest of 300
# random K <= 5 models needed 2671 updates
_EDGE_TOL = 1e-12
_EDGE_MAX_ITERS = 50_000
_EDGE_RHO_TOL = 1e-6


class SupportNotFoundError(RuntimeError):
    """The bulk edge solve failed, or the support leaves (0, 2)."""


@dataclass(eq=False)
class SpectralPrediction:
    """Bulk density samples, support edges, and isolated eigenvalues."""

    grid: np.ndarray
    density: np.ndarray
    support: tuple
    isolated: tuple
    predicted_lambda2: float
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "grid": np.asarray(self.grid, dtype=float).tolist(),
            "density": np.asarray(self.density, dtype=float).tolist(),
            "lambdaL": float(self.support[0]),
            "lambdaR": float(self.support[1]),
            "isolated": [float(v) for v in self.isolated],
            "predicted_lambda2": float(self.predicted_lambda2),
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True, eq=False)
class _Kernel:
    """Precomputed block arrays: sizes n_s, mixing M_rs = n_s V_rs, and the
    size-weighted expectation (E N)_rs = E_rs n_s."""

    sizes: np.ndarray
    mix: np.ndarray
    en: np.ndarray

    @property
    def k(self) -> int:
        return self.sizes.size

    @property
    def n(self) -> float:
        return float(self.sizes.sum())


def _kernel(model: SbmModel) -> _Kernel:
    blocks = block_matrices(model)
    sizes = np.asarray(model.community_sizes, dtype=float)
    mix = blocks.variance * sizes[None, :]
    en = blocks.expectation * sizes[None, :]
    return _Kernel(sizes=sizes, mix=mix, en=en)


def _solve(kern, z, t0, max_iters, tol):
    """Resolvent fixed points at a stack of points: z has shape (G,), t0 (G, K).

    Each open row evaluates f = 1/(z - 1 - M t). While its residual |f - t|
    is at least _NEWTON_START it takes the damped update t += (f - t) / 2,
    below that a Newton step on t - f with Jacobian I - diag(f^2) M (one
    batched solve for all such rows). A row closes when the residual drops
    below tol, converged if Im t <= 0 on every component (the physical
    branch), or when a denominator falls below _SINGULAR_FLOOR.

    Returns (t, residual, iterations, converged) per row; a singular row is
    not converged, and its t of 1 gives it zero density.
    """
    shift, mix, eye = z - 1.0, kern.mix, np.eye(kern.k)
    t = np.array(t0)
    res = np.full(z.shape, np.inf)
    iters = np.full(z.shape, max_iters)
    singular = np.zeros(z.shape, dtype=bool)
    rows, work = np.arange(z.size), t
    for it in range(1, max_iters + 1):
        den = shift[rows, None] - work @ mix.T
        small = np.abs(den).min(axis=1) < _SINGULAR_FLOOR
        den[small] = 1.0
        f = 1.0 / den
        r = np.abs(f - work).max(axis=1)
        close = small | (r < tol)
        if close.any():
            out = rows[close]
            t[out] = f[close]
            res[out], iters[out], singular[out] = r[close], it, small[close]
            rows, work, f, r = rows[~close], work[~close], f[~close], r[~close]
            if not rows.size:
                break
        diff = f - work
        step = 0.5 * diff
        near = r < _NEWTON_START
        if near.any():
            jac = eye - (f[near] ** 2)[:, :, None] * mix
            step[near] = np.linalg.solve(jac, diff[near, :, None])[:, :, 0]
        work = work + step
    t[rows], res[rows] = work, r
    converged = ~singular & (res < tol) & (t.imag <= 0.0).all(axis=1)
    return t, res, iters, converged


def _default_t0(kern, z):
    """Start 1/(z - 1) on every component, with |z - 1| raised to 1e-8."""
    shift = np.where(np.abs(z - 1.0) < 1e-8, 1e-8, z - 1.0)
    return np.repeat((1.0 / shift)[:, None], kern.k, axis=1)


def _spectral_radius(mat) -> float:
    return float(np.abs(np.linalg.eigvals(mat)).max())


def _check_eta(eta: float) -> None:
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta!r}")


def bulk_density(model: SbmModel, grid, eta: float = DEFAULT_ETA):
    """Bulk spectral density on a real grid, evaluated at z = lambda + i*eta.

    Returns (density, diagnostics); a point that does not converge is
    flagged in diagnostics["failed_points"] with a best-effort density.
    """
    _check_eta(eta)
    kern = _kernel(model)
    z = np.asarray(grid, dtype=float) + 1j * eta
    t, _res, _iters, ok = _solve(kern, z, _default_t0(kern, z), DEFAULT_MAX_ITERS, DEFAULT_TOL)
    density = np.maximum(0.0, -(t.imag @ kern.sizes) / (np.pi * kern.n))
    return density, {"eta": eta, "failed_points": np.flatnonzero(~ok).tolist()}


class Support(tuple):
    """Bulk support edges ``(left, right)``; ``iterations`` counts the updates
    of the edge solve (0 for a model without bulk)."""

    def __new__(cls, left, right, iterations=0):
        self = super().__new__(cls, (float(left), float(right)))
        self.iterations = int(iterations)
        return self


def _edge_radius(kern):
    """Half-width c of the bulk and the number of updates that found it.

    The right edge 1 + c is the smallest z with a positive real fixed point,
    c = min over t > 0 of max_r (1/t_r + (M t)_r). Its convex dual is
    c = max over the simplex of 2 sum_s sqrt(v_s (M^T v)_s), where the inner
    minimum over t is t = sqrt(v / M^T v). The multiplicative update
    v <- v * (1/t + M t) climbs the dual; the dual value v @ (1/t + M t) and
    the primal max_r (1/t + M t)_r bracket c, so their gap is the stopping
    rule. At the optimum v / t^2 is a nonnegative left eigenvector of
    diag(t^2) M with eigenvalue 1, which is checked. Blocks without variance
    carry no bulk and are dropped.
    """
    live = kern.mix.any(axis=1)
    mix = kern.mix[np.ix_(live, live)]
    v = np.full(mix.shape[0], 1.0 / mix.shape[0])
    for it in range(1, _EDGE_MAX_ITERS + 1):
        t = np.sqrt(v / (mix.T @ v))
        g = 1.0 / t + mix @ t
        high, low = float(g.max()), float(v @ g)
        if not np.isfinite(high):
            break
        if high - low <= _EDGE_TOL * high:
            rho = _spectral_radius(mix * (t**2)[:, None])
            if abs(rho - 1.0) > _EDGE_RHO_TOL:
                raise SupportNotFoundError(f"edge check failed: rho(diag(t^2) M) = {rho!r}, not 1")
            return high, it
        v = v * g
        v /= v.sum()
    raise SupportNotFoundError(f"edge solve did not converge in {it} updates (gap {high - low!r})")


def support_boundaries(model: SbmModel) -> Support:
    """Left and right bulk support edges, symmetric about 1.

    The edges are 1 -/+ c with c from one convex solve (see _edge_radius).
    Raises SupportNotFoundError when the solve fails or an edge leaves
    (0, 2). A model with zero variance has no bulk; the degenerate support
    (1, 1) is returned for it.
    """
    kern = _kernel(model)
    if kern.mix.max() <= 0.0:
        return Support(1.0, 1.0)
    c, iterations = _edge_radius(kern)
    if not c < 1.0:
        raise SupportNotFoundError(f"bulk support [{1.0 - c!r}, {1.0 + c!r}] leaves (0, 2)")
    return Support(1.0 - c, 1.0 + c, iterations)


def isolated_eigenvalues(model: SbmModel, support):
    """Predicted isolated eigenvalues, ascending and with multiplicity.

    The roots of det(I + T(z) E N) on the noise-free resolvent
    T = 1/(z - 1) are 1 - eig(E N): the low-rank eigenvalues of the expected
    Laplacian, which the degree-normalized samples track. E N is similar to
    the symmetric N^1/2 E N^1/2. Values within EDGE_MARGIN of the support
    (left, right) of support_boundaries count as bulk.
    """
    kern = _kernel(model)
    root_n = np.sqrt(kern.sizes)
    values = 1.0 - np.linalg.eigvalsh(root_n[:, None] * kern.en / root_n[None, :])
    outside = (values < support[0] - EDGE_MARGIN) | (values > support[1] + EDGE_MARGIN)
    return sorted(float(v) for v in values[outside])


def predict(
    model: SbmModel,
    grid_spec: int = 401,
    eta: float = DEFAULT_ETA,
    with_density: bool = True,
) -> SpectralPrediction:
    """Full spectral prediction: support, density, isolated values, lambda2.

    predicted_lambda2 is the smallest isolated value strictly above the
    trivial near-zero root when one exists below the left support edge;
    otherwise the left edge itself (the merged regime).

    The density is sampled at grid_spec points spanning the support with a
    margin; bulk_density takes any other grid.
    """
    if grid_spec < 1:
        raise ValueError(f"grid_spec (the number of grid points) must be >= 1, got {grid_spec}")
    # checked here too: a model without a bulk never reaches bulk_density
    _check_eta(eta)
    support = support_boundaries(model)
    lam_l, lam_r = support
    isolated = isolated_eigenvalues(model, support=support)

    span = max(lam_r - lam_l, 0.05)
    grid = np.linspace(lam_l - 0.1 * span, lam_r + 0.1 * span, int(grid_spec))

    diagnostics = {"eta": eta, "edge_iterations": support.iterations}
    if with_density and lam_r > lam_l:
        density, ddiag = bulk_density(model, grid, eta=eta)
        diagnostics.update(ddiag)
    else:
        density = np.zeros_like(grid)
        diagnostics["failed_points"] = []

    if len(isolated) >= 2 and isolated[1] < lam_l:
        lam2 = float(isolated[1])
        diagnostics["lambda2_source"] = "isolated"
    else:
        lam2 = float(lam_l)
        diagnostics["lambda2_source"] = "bulk_edge"

    return SpectralPrediction(
        grid=grid,
        density=density,
        support=(float(lam_l), float(lam_r)),
        isolated=tuple(isolated),
        predicted_lambda2=lam2,
        diagnostics=diagnostics,
    )
