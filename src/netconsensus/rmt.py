"""Random-matrix predictor for normalized-Laplacian spectra of block models.

The bulk density comes from the K-dimensional resolvent fixed point

    t_r(z) = 1 / (z - 1 - sum_s n_s V_rs t_s(z)),

where V is the blockwise entry variance and the constant 1 reflects the unit
diagonal of the normalized Laplacian. The bulk is symmetric about 1, and its
edges 1 -/+ c are where the fixed point's stability operator degenerates
(Ajanki, Erdos and Kruger, arXiv:1506.05095). With M_rs = n_s V_rs,

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
    "StieltjesState",
    "SpectralPrediction",
    "SingularPointError",
    "SupportNotFoundError",
    "Support",
    "fixed_point",
    "bulk_density",
    "support_boundaries",
    "isolated_eigenvalues",
    "predict",
]

DEFAULT_DAMPING = 0.5
DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-10
# near-limit imaginary offset for reported densities; larger values broaden
# the support edges beyond the tolerances the predictions are held to
DEFAULT_ETA = 1e-9
_DENSITY_MAX_ITERS = 200_000
_SINGULAR_FLOOR = 1e-14
# isolated values 1 - eig(E N) closer than this to the support count as bulk
EDGE_MARGIN = 2e-3
# relative gap between the edge solve's two bounds on c; the slowest of 300
# random K <= 5 models needed 2671 updates
_EDGE_TOL = 1e-12
_EDGE_MAX_ITERS = 50_000
_EDGE_RHO_TOL = 1e-6


class SingularPointError(ArithmeticError):
    """Fixed-point denominator collapsed below the singularity floor."""


class SupportNotFoundError(RuntimeError):
    """The bulk edge solve failed, or the support leaves (0, 2)."""


@dataclass(frozen=True, eq=False)
class StieltjesState:
    """Converged (or stalled) resolvent fixed point at one evaluation point."""

    z: complex
    t: np.ndarray
    residual: float
    converged: bool
    iterations: int


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


def _iterate(kern, z, t0, max_iters, tol, damping):
    """Damped fixed-point iteration; returns (t, residual, iterations, ok).

    Raises SingularPointError when a denominator collapses; a stalled
    iteration is reported via ok=False rather than raised.
    """
    shift = z - 1.0
    want_complex = isinstance(z, complex) or np.iscomplexobj(t0)
    t = np.asarray(t0, dtype=complex if want_complex else float).copy()
    res = np.inf
    for it in range(1, max_iters + 1):
        den = shift - kern.mix @ t
        if np.abs(den).min() < _SINGULAR_FLOOR:
            raise SingularPointError(f"denominator below {_SINGULAR_FLOOR} at z={z}")
        f = 1.0 / den
        res = float(np.abs(f - t).max())
        if res < tol:
            return f, res, it, True
        t = (1.0 - damping) * t + damping * f
    return t, res, max_iters, False


def _default_t0(kern, z):
    shift = z - 1.0
    if abs(shift) < 1e-8:
        shift = 1e-8 if not isinstance(z, complex) else 1e-8 + 0j
    return np.full(kern.k, 1.0 / shift, dtype=complex if isinstance(z, complex) else float)


def _spectral_radius(mat) -> float:
    return float(np.abs(np.linalg.eigvals(mat)).max())


def fixed_point(
    model: SbmModel,
    z,
    t0=None,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    damping: float = DEFAULT_DAMPING,
) -> StieltjesState:
    """Solve the resolvent system at one point z.

    For Im(z) > 0 this converges to the unique physical solution with
    Im(t_r) <= 0; for real z outside the bulk it converges to the stable
    real branch. Non-convergence is reported in the returned state.
    """
    kern = _kernel(model)
    z = complex(z) if (isinstance(z, complex) or np.iscomplexobj(z)) else float(z)
    if t0 is None:
        t0 = _default_t0(kern, z)
    else:
        t0 = np.asarray(t0, dtype=complex if isinstance(z, complex) else float)
        if t0.shape != (kern.k,):
            raise ValueError(f"t0 must have shape ({kern.k},)")
    t, res, iters, ok = _iterate(kern, z, t0, max_iters, tol, damping)
    return StieltjesState(z=z, t=t, residual=res, converged=ok, iterations=iters)


def bulk_density(model: SbmModel, grid, eta: float = DEFAULT_ETA, max_iters: int = _DENSITY_MAX_ITERS,
                 tol: float = 1e-12, damping: float = DEFAULT_DAMPING):
    """Bulk spectral density on a real grid, evaluated at z = lambda + i*eta.

    Returns (density, diagnostics); per-point fixed-point failures are
    flagged in diagnostics["failed_points"] instead of aborting. Points are
    warm-started left to right.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    kern = _kernel(model)
    grid = np.asarray(grid, dtype=float)
    density = np.zeros_like(grid)
    failed = []
    t_prev = None
    for i, lam in enumerate(grid):
        z = complex(lam, eta)
        t0 = t_prev if t_prev is not None else _default_t0(kern, z)
        try:
            t, _res, _it, ok = _iterate(kern, z, t0, max_iters, tol, damping)
        except SingularPointError:
            ok, t = False, None
        if t is not None:
            # best-effort value even for a stalled (flagged) point
            density[i] = max(0.0, float(-(kern.sizes @ t.imag) / (np.pi * kern.n)))
        if not ok:
            failed.append(int(i))
        t_prev = t if ok else None
    return density, {"eta": eta, "failed_points": failed}


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


def isolated_eigenvalues(model: SbmModel, support=None):
    """Predicted isolated eigenvalues, ascending and with multiplicity.

    The roots of det(I + T(z) E N) on the noise-free resolvent
    T = 1/(z - 1) are 1 - eig(E N): the low-rank eigenvalues of the expected
    Laplacian, which the degree-normalized samples track. E N is similar to
    the symmetric N^1/2 E N^1/2. Values within EDGE_MARGIN of the support
    count as bulk.
    """
    kern = _kernel(model)
    if support is None:
        support = support_boundaries(model)
    root_n = np.sqrt(kern.sizes)
    values = 1.0 - np.linalg.eigvalsh(root_n[:, None] * kern.en / root_n[None, :])
    outside = (values < support[0] - EDGE_MARGIN) | (values > support[1] + EDGE_MARGIN)
    return sorted(float(v) for v in values[outside])


def predict(
    model: SbmModel,
    grid_spec=None,
    eta: float = DEFAULT_ETA,
    with_density: bool = True,
) -> SpectralPrediction:
    """Full spectral prediction: support, density, isolated values, lambda2.

    predicted_lambda2 is the smallest isolated value strictly above the
    trivial near-zero root when one exists below the left support edge;
    otherwise the left edge itself (the merged regime).

    grid_spec may be None (auto grid of 401 points spanning the support with
    a margin), an int (the auto grid with that many points), a
    (lo, hi, num) tuple, or an explicit array of sample points.
    """
    support = support_boundaries(model)
    lam_l, lam_r = support
    isolated = isolated_eigenvalues(model, support=support)

    if grid_spec is None or isinstance(grid_spec, (int, np.integer)):
        span = max(lam_r - lam_l, 0.05)
        num = 401 if grid_spec is None else int(grid_spec)
        grid = np.linspace(lam_l - 0.1 * span, lam_r + 0.1 * span, num)
    elif isinstance(grid_spec, tuple) and len(grid_spec) == 3:
        grid = np.linspace(float(grid_spec[0]), float(grid_spec[1]), int(grid_spec[2]))
    else:
        grid = np.asarray(grid_spec, dtype=float)

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
