"""Random-matrix predictor for normalized-Laplacian spectra of block models.

The bulk density comes from the K-dimensional resolvent fixed point

    t_r(z) = 1 / (z - 1 - sum_s M_rs t_s(z)),   M_rs = n_s V_rs,

where V is the blockwise entry variance and the constant 1 reflects the unit
diagonal of the normalized Laplacian. All grid points are solved at once, on
a descending ladder of imaginary parts ending at eta: Newton steps, one
batched K x K solve each, kept on the physical branch Im t <= 0 and taken
where they lower the residual, else damped updates, which converge to that
branch (Helton, Far and Speicher, IMRN 2007). The bulk is symmetric about 1,
and its edges 1 -/+ c are where the stability operator I - diag(t^2) M
degenerates (Ajanki, Erdos and Kruger, arXiv:1506.05095):

    c = max over the simplex of 2 sum_s sqrt(v_s (M^T v)_s)
      = min over t > 0 of max_r (1/t_r + (M t)_r),

one small convex problem instead of a scan, solved by guarded Newton steps
on the dual. The isolated eigenvalues are the roots of det(I + T(z) E N) on
the noise-free resolvent T = 1/(z - 1), with E the positive expectation
kernel of block_matrices (the Laplacian's off-diagonal expectation is
negative, hence the sign). Those roots are exactly 1 - eig(E N), the low-rank
eigenvalues of the expected Laplacian.
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
# imaginary parts above eta that bulk_density solves first, as warm starts
# held to a loose tolerance and iteration cap
_LADDER, _LADDER_TOL, _LADDER_MAX_ITERS = (1e-2, 1e-5), 1e-8, 100
_SINGULAR_FLOOR = 1e-14
# isolated values 1 - eig(E N) closer than this to the support count as bulk
EDGE_MARGIN = 2e-3
# relative gap between the edge solve's two bounds on c; the slowest of 4500
# random K <= 8 models, couplings down to 1e-12, needed 30 updates
_EDGE_TOL = 1e-12
_EDGE_MAX_ITERS = 1_000
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
    """Resolvent fixed points at a stack of points: z has shape (G,), t0 (G, K)
    (overwritten when complex).

    Each open row holds f = 1/(z - 1 - M t) and its residual |f - t|. It takes
    the Newton step on t - f, Jacobian I - diag(f^2) M (one batched solve),
    with Im t clipped to <= 0 (the physical branch), where that lowers the
    residual, else the damped update t += (f - t) / 2. Near an edge the
    Newton step overshoots a nearly real root, and a point left to damped
    updates there takes thousands of them. A row closes when the residual
    drops below tol, converged if Im t <= 0 on every component, or when a
    denominator falls below _SINGULAR_FLOOR.

    Returns (t, residual, iterations, converged) per row; a singular row is
    not converged, and its t of 1 gives it zero density.
    """
    # a complex M: casting ufuncs buffer more than the arrays they cast
    shift, mix = z - 1.0, kern.mix.astype(complex)

    def image(at, trial):
        den = shift[at, None] - trial @ mix.T
        small = np.abs(den).min(axis=1) < _SINGULAR_FLOOR
        den[small] = 1.0
        f = 1.0 / den
        return f, np.abs(f - trial).max(axis=1), small

    t = np.asarray(t0, dtype=complex)
    res = np.full(z.shape, np.inf)
    iters = np.full(z.shape, max_iters)
    singular = np.zeros(z.shape, dtype=bool)
    rows, work = np.arange(z.size), t
    f, r, small = image(rows, work)
    for it in range(1, max_iters + 1):
        close = small | (r < tol)
        if close.any():
            out = rows[close]
            t[out] = f[close]
            res[out], iters[out], singular[out] = r[close], it, small[close]
            rows, work, f, r, small = (a[~close] for a in (rows, work, f, r, small))
        if not rows.size:
            break
        diff = f - work
        # the Jacobians set the memory peak of predict: built in place (a
        # broadcast ufunc buffers a multiple of them) and freed before image
        jac = np.einsum("gr,rs->grs", f**2, -mix)
        for s in range(kern.k):
            jac[:, s, s] += 1.0
        trial = work + np.linalg.solve(jac, diff[:, :, None])[:, :, 0]
        del jac
        np.minimum(trial.imag, 0.0, out=trial.imag)
        f, r_trial, small = image(rows, trial)
        damp = small | ~(r_trial < r)
        if damp.any():
            trial[damp] = work[damp] + 0.5 * diff[damp]
            f[damp], r_trial[damp], small[damp] = image(rows[damp], trial[damp])
        work, r = trial, r_trial
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

    The grid is solved at the _LADDER values above eta, then at eta, each
    level warm-started from the last: from a cold start, the degenerate
    points beside the edges need hundreds of damped updates. Only the last
    level is held to DEFAULT_TOL and DEFAULT_MAX_ITERS, and flags a point that
    does not converge in diagnostics["failed_points"] with a best-effort
    density. diagnostics also holds each level's iterations and the largest
    residual.
    """
    _check_eta(eta)
    kern = _kernel(model)
    lam = np.asarray(grid, dtype=float)
    levels = [e for e in _LADDER if e > eta] + [eta]
    t, iterations = _default_t0(kern, lam + 1j * levels[0]), []
    for level in levels:
        cap, tol = (DEFAULT_MAX_ITERS, DEFAULT_TOL) if level == eta else (_LADDER_MAX_ITERS, _LADDER_TOL)
        t, res, iters, ok = _solve(kern, lam + 1j * level, t, cap, tol)
        iterations.append(int(iters.max(initial=0)))
    density = np.maximum(0.0, -(t.imag @ kern.sizes) / (np.pi * kern.n))
    return density, {"eta": eta, "failed_points": np.flatnonzero(~ok).tolist(),
                     "ladder_iterations": iterations, "max_residual": float(res.max(initial=0.0))}


class Support(tuple):
    """Bulk support edges ``(left, right)``; ``iterations`` counts the updates
    of the edge solve and ``gap`` is the relative width of its final bracket
    on c (both 0 for a model without bulk)."""

    def __new__(cls, left, right, iterations=0, gap=0.0):
        self = super().__new__(cls, (float(left), float(right)))
        self.iterations, self.gap = int(iterations), float(gap)
        return self


def _edge_terms(mix, v):
    """w = M^T v, the inner minimizer t = sqrt(v / w), and the gradient g = 1/t + M t."""
    w = mix.T @ v
    t = np.sqrt(v / w)
    return w, t, 1.0 / t + mix @ t


def _edge_radius(kern):
    """Half-width c of the bulk, the relative width of its final bracket, and
    the number of updates that found it.

    The right edge 1 + c is the smallest z with a positive real fixed point,
    c = min over t > 0 of max_r (1/t_r + (M t)_r). Its concave dual is
    c = max over the simplex of phi(v) = v @ g, with g = 1/t + M t at the
    inner minimizer t = sqrt(v / w), w = M^T v; phi(v) and max_r g_r bracket
    c. The dual separates over the groups of blocks that M joins, each with an
    interior optimum (Perron-Frobenius), so each group is solved alone and c
    is the largest value. Blocks without variance carry no bulk and are dropped.
    """
    reach = (kern.mix > 0.0) | np.eye(kern.k, dtype=bool)
    for _ in range(kern.k.bit_length()):
        reach = reach @ reach
    # one row per group of blocks with variance: the row of its first block
    firsts = (reach.argmax(axis=1) == np.arange(kern.k)) & kern.mix.any(axis=1)
    highs, lows, updates = zip(*(_group_radius(kern.mix[np.ix_(b, b)]) for b in reach[firsts]))
    return max(highs), max(1.0 - max(lows) / max(highs), 0.0), sum(updates)


def _group_radius(mix):
    """(primal bound, dual bound, updates) on c for one group of joined blocks.

    From the uniform v, each update is a Newton step on phi, whose Hessian
    -P diag(t / 2w) P^T, P = M - diag(1/t^2), vanishes on v: adding the
    constant phi(v) to it keeps the step on the simplex. The step, first the
    longest of 1, 1/2, ... that keeps v positive, is halved until it raises
    phi or narrows the bracket (near c, phi is flat to rounding while max_r g_r
    still moves); where the rise the Newton model predicts falls below
    rounding first, no step is taken. A step shorter than 1, or none, is
    completed by the multiplicative update v <- v * g / phi(v), which keeps v
    positive: far from c, where M nearly splits into groups, positivity cuts
    the Newton step to a sliver. At the optimum v / t^2 is a nonnegative left
    eigenvector of diag(t^2) M with eigenvalue 1, which is checked.
    """
    v = np.full(len(mix), 1.0 / len(mix))
    w, t, g = _edge_terms(mix, v)
    for it in range(1, _EDGE_MAX_ITERS + 1):
        high, low = float(g.max()), float(v @ g)
        if not np.isfinite(high):
            break
        if high - low <= _EDGE_TOL * high:
            rho = _spectral_radius(mix * (t**2)[:, None])
            if abs(rho - 1.0) > _EDGE_RHO_TOL:
                raise SupportNotFoundError(f"edge check failed: rho(diag(t^2) M) = {rho!r}, not 1")
            return high, low, it
        p = mix - np.diag(w / v)
        try:
            d = np.linalg.solve((p * (t / (2.0 * w))) @ p.T + low, g - low)
        except np.linalg.LinAlgError:  # numerically reducible: no step, so the update falls back
            d = np.zeros_like(v)
        rate, slope = d / v, float((g - low) @ d)
        # step * (steepest fall rate) is in [1/2, 1), so 1 + step * rate > 0 exactly
        step = np.ldexp(1.0, -max(np.frexp(-rate.min())[1], 0))
        while True:
            trial = v * (1.0 + step * rate)
            trial /= trial.sum()
            terms = _edge_terms(mix, trial)
            rise = float(trial @ terms[2])
            if rise > low or float(terms[2].max()) - rise < high - low:
                break
            step /= 2.0
            if not step * slope > np.finfo(float).eps * low:  # also ends a NaN slope
                trial, terms, rise = v, (w, t, g), low
                break
        if step < 1.0:
            trial = trial * terms[2] / rise
            terms = _edge_terms(mix, trial)
        v, (w, t, g) = trial, terms
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
    c, gap, iterations = _edge_radius(kern)
    if not c < 1.0:
        raise SupportNotFoundError(f"bulk support [{1.0 - c!r}, {1.0 + c!r}] leaves (0, 2)")
    return Support(1.0 - c, 1.0 + c, iterations, gap)


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

    diagnostics = {"eta": eta, "edge_iterations": support.iterations, "edge_gap": support.gap}
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
