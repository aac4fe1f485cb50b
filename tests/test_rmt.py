import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from netconsensus import rmt, sbm, spectra


def two_level(sizes, p_in, p_out, seed=0):
    return sbm.make_two_level_model(sizes, sbm.TwoLevelProbs(p_in, p_out), seed)


def block_model(sizes, p_diag, p_off):
    """p_off off the diagonal, p_diag (a scalar or one value per block) on it."""
    pi = np.full((len(sizes), len(sizes)), p_off)
    np.fill_diagonal(pi, p_diag)
    return sbm.SbmModel(sizes, pi, 0)


def er_model(n, p, seed=0):
    return two_level([n], p, p, seed=seed)


def semicircle_sigma2(n, p):
    return (1.0 - p) / (n * p)


def solve_at(model, z, max_iters=rmt.DEFAULT_MAX_ITERS, tol=rmt.DEFAULT_TOL):
    """rmt._solve at the one point z from its default start: (t, residual, iterations, converged)."""
    kern = rmt._kernel(model)
    z = np.array([z])
    t, res, iters, ok = rmt._solve(kern, z, rmt._default_t0(kern, z), max_iters, tol)
    return t[0], res[0], iters[0], ok[0]


class TestFixedPoint:
    def test_k1_matches_quadratic_closed_form(self):
        # scalar case: t = 1/(z - 1 - s2 t) solves s2 t^2 - (z-1) t + 1 = 0
        n, p = 1000, 0.1
        s2 = semicircle_sigma2(n, p)
        z = 1 + 0.01j
        t, _res, _iters, ok = solve_at(er_model(n, p), z)
        assert ok
        disc = np.sqrt((z - 1) ** 2 - 4 * s2 + 0j)
        candidates = [((z - 1) + disc) / (2 * s2), ((z - 1) - disc) / (2 * s2)]
        physical = [c for c in candidates if c.imag <= 0]
        assert len(physical) == 1
        assert abs(t[0] - physical[0]) < 1e-10
        assert t[0].imag <= 0

    def test_zero_variance_exact(self):
        model = two_level([5, 5], 1.0, 1.0)
        z = 0.3 + 0.05j
        t, _res, _iters, ok = solve_at(model, z)
        assert ok
        assert np.allclose(t, 1.0 / (z - 1.0), atol=1e-14)

    def test_k2_matches_newton_oracle(self):
        # independent multi-start Newton solve of the 2-equation system
        sizes = np.array([700.0, 300.0])
        pi = np.array([[0.1, 0.02], [0.02, 0.1]])
        dhat = pi @ sizes
        var = pi * (1 - pi) / np.outer(dhat, dhat)
        mix = var * sizes[None, :]
        z = 0.8 + 1e-3j

        def residual(v):
            t = v[:2] + 1j * v[2:]
            f = 1.0 / (z - 1.0 - mix @ t)
            out = t - f
            return np.concatenate([out.real, out.imag])

        rng = np.random.default_rng(0)
        solutions = []
        for _ in range(40):
            start = rng.normal(scale=3.0, size=4)
            sol = optimize.root(residual, start, tol=1e-13)
            if sol.success and np.max(np.abs(residual(sol.x))) < 1e-11:
                t = sol.x[:2] + 1j * sol.x[2:]
                if np.all(t.imag <= 1e-12):
                    solutions.append(t)
        assert solutions, "oracle found no physical root"
        t_fp, _res, _iters, ok = solve_at(two_level([700, 300], 0.1, 0.02), z, tol=1e-13)
        assert ok
        matches = [t for t in solutions if np.max(np.abs(t - t_fp)) < 1e-8]
        assert matches, "fixed point disagrees with every Newton root"

    def test_resolvent_sign_on_grid(self):
        model = two_level([700, 300], 0.1, 0.02)
        for lam in np.linspace(0.7, 1.3, 13):
            t, _res, _iters, ok = solve_at(model, complex(lam, 1e-3))
            assert ok
            assert np.all(t.imag <= 1e-12)

    def test_singular_point_not_converged(self):
        # zero variance at z = 1: the denominator z - 1 - M t is exactly 0
        t, _res, _iters, ok = solve_at(two_level([5, 5], 1.0, 1.0), 1.0)
        assert not ok
        assert np.all(t == 1.0)


class TestBulkDensity:
    def test_k1_semicircle_sup_norm(self):
        n, p = 1000, 0.1
        s2 = semicircle_sigma2(n, p)
        radius = 2 * np.sqrt(s2)
        grid = np.linspace(1 - radius - 0.02, 1 + radius + 0.02, 241)
        density, diag = rmt.bulk_density(er_model(n, p), grid)
        assert not diag["failed_points"]
        inside = np.abs(grid - 1.0) < radius
        semi = np.zeros_like(grid)
        semi[inside] = np.sqrt(4 * s2 - (grid[inside] - 1) ** 2) / (2 * np.pi * s2)
        assert np.abs(density - semi).max() <= 1e-3 * semi.max()
        assert abs(grid[np.argmax(density)] - 1.0) <= grid[1] - grid[0]

    def test_density_nonnegative(self):
        grid = np.linspace(0.5, 1.5, 101)
        density, _ = rmt.bulk_density(two_level([300, 700], 0.2, 0.05), grid)
        assert np.all(density >= 0.0)

    def test_four_community_histogram_matches_prediction(self):
        # the sampled bulk histogram should sit on the predicted curve
        model = two_level([143, 286, 571, 1000], 0.1, 0.02, seed=11)
        lam_l, lam_r = rmt.support_boundaries(model)
        net, _ = sbm.sample_connected(model)
        eigs = spectra.normalized_laplacian_spectrum(net).eigenvalues
        bulk = eigs[(eigs >= lam_l - 0.01) & (eigs <= lam_r + 0.01)]
        counts, edges = np.histogram(bulk, bins=30, range=(lam_l, lam_r))
        centers = 0.5 * (edges[:-1] + edges[1:])
        empirical = counts / (net.n * (edges[1] - edges[0]))
        predicted, _ = rmt.bulk_density(model, centers)
        assert np.abs(empirical - predicted).max() <= 0.15 * predicted.max()

    def test_nonconvergence_reported_with_residual(self):
        # a point inside the bulk with a real start cannot converge; the
        # solve must report that rather than raise
        _t, res, iters, ok = solve_at(two_level([700, 300], 0.1, 0.02), 1.0005, max_iters=50)
        assert not ok
        assert np.isfinite(res) and res > 0
        assert iters == 50

    def test_ladder_converges_at_a_zero_variance_spike(self):
        # The first block is complete, so its eigenvalues pile up at exactly 1:
        # |t(1)| is ~5e4 on the 1e-5 level and ~5e8 at eta, where an absolute
        # 1e-12 is finer than the float spacing of t. The ladder still
        # converges at every point, in 4 + 42 + 88 iterations; one solve at
        # eta from the default start takes 2081.
        model = sbm.SbmModel([5526, 2549], np.array([[1.0, 0.586], [0.586, 0.180]]), 0)
        grid = rmt.predict(model, with_density=False).grid.copy()
        grid[grid.size // 2] = 1.0
        density, diag = rmt.bulk_density(model, grid)
        assert diag["failed_points"] == []
        assert diag["max_residual"] < rmt.DEFAULT_TOL
        assert len(diag["ladder_iterations"]) == 3
        assert sum(diag["ladder_iterations"]) <= 300
        assert density[grid.size // 2] == density.max()

    def test_newton_step_kept_near_a_block_edge(self):
        # Five disconnected blocks, each with its own bulk: one grid point lies
        # 1.7e-7 outside a block's edge, where the Newton step crosses to
        # Im t > 0. Clipped to Im t <= 0 it converges in 8 iterations at eta
        # 1e-12; rejected, it left that point 2098 damped updates.
        model = sbm.SbmModel([4793, 5275, 1464, 2688, 4611], 0.05 * np.eye(5), 0)
        pred = rmt.predict(model, eta=1e-12)
        assert pred.diagnostics["failed_points"] == []
        assert pred.diagnostics["ladder_iterations"][-1] <= 20

    def test_empty_grid_takes_no_step(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a Newton step on an empty grid")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        density, diag = rmt.bulk_density(two_level([700, 300], 0.1, 0.02), [])
        assert density.shape == (0,)
        assert diag["failed_points"] == [] and diag["ladder_iterations"] == [0, 0, 0]

    def test_rejects_nonpositive_eta(self):
        for eta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^eta must be positive and finite"):
                rmt.bulk_density(er_model(100, 0.5), [1.0], eta=eta)
            # a complete graph has no bulk, so predict never reaches bulk_density
            with pytest.raises(ValueError, match="^eta must be positive and finite"):
                rmt.predict(er_model(10, 1.0), eta=eta)


class TestSupportBoundaries:
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [500, 2000])
    def test_k1_closed_form(self, p, n):
        # boundaries, density, and isolated values all reduce to the
        # semicircle picture in the single-community case
        model = er_model(n, p)
        s2 = semicircle_sigma2(n, p)
        radius = 2 * np.sqrt(s2)
        lo, hi = rmt.support_boundaries(model)
        assert lo == pytest.approx(1 - radius, abs=1e-4)
        assert hi == pytest.approx(1 + radius, abs=1e-4)

        grid = np.linspace(1 - 1.2 * radius, 1 + 1.2 * radius, 81)
        density, _ = rmt.bulk_density(model, grid)
        semi = np.zeros_like(grid)
        inside = np.abs(grid - 1) < radius
        semi[inside] = np.sqrt(4 * s2 - (grid[inside] - 1) ** 2) / (2 * np.pi * s2)
        assert np.abs(density - semi).max() <= 1e-3 * semi.max()

        roots = rmt.isolated_eigenvalues(model, support=(lo, hi))
        assert len(roots) == 1  # no nontrivial isolated value without communities
        assert abs(roots[0]) < 1e-4

    def test_zero_variance_degenerate(self):
        assert rmt.support_boundaries(two_level([5, 5], 1.0, 1.0)) == (1.0, 1.0)

    def test_zero_variance_block_carries_no_bulk(self):
        # block 0 has only probability-one edges; the bulk is block 1's alone
        model = sbm.SbmModel((10, 40), np.array([[1.0, 1.0], [1.0, 0.5]]), 0)
        m11 = rmt._kernel(model).mix[1, 1]
        lo, hi = rmt.support_boundaries(model)
        assert hi - 1.0 == pytest.approx(2 * np.sqrt(m11), abs=1e-10)
        assert 1.0 - lo == pytest.approx(2 * np.sqrt(m11), abs=1e-10)

    def test_small_delta_matches_weighted_er(self):
        # delta ~ 0: edges should sit within 1e-3 of the population-weighted ER
        lo, hi = rmt.support_boundaries(two_level([700, 300], 0.9, 0.899))
        radius = 2 * np.sqrt(semicircle_sigma2(1000, 0.8997))
        assert lo == pytest.approx(1 - radius, abs=1e-3)
        assert hi == pytest.approx(1 + radius, abs=1e-3)


# support_boundaries and isolated_eigenvalues of the earlier scan-and-bisect
# predictor (edges bisected to 1e-6, roots to 1e-8), kept as an oracle
SCAN_ORACLE = [
    # sizes, p_diag, p_off, (lambdaL, lambdaR), isolated
    ((500, 1000, 2000, 3500), 0.1, 0.02, (0.8887240600585937, 1.1112759399414065),
     (-3.8146968215357935e-09, 0.4136424140930184, 0.5975370903015147, 0.7564972648620618)),
    ((143, 286, 571, 1000), 0.1, 0.02, (0.7918081665039063, 1.2081918334960937),
     (-3.8146968215357935e-09, 0.4137597236633309, 0.5973310890197763, 0.7563142280578623)),
    ((700, 300), 0.1, 0.001, (0.6603921508789063, 1.3396078491210939),
     (-3.8146968215357935e-09, 0.027068729400635233)),
    ((700, 300), 0.1, 0.02, (0.7415731811523436, 1.2584268188476562),
     (-3.8146968215357935e-09, 0.3971291847229011)),
    ((700, 300), 0.1, 0.06, (0.7900588989257813, 1.2099411010742187),
     (-3.8146968215357935e-09, 0.787878787994386)),
    ((700, 300), 0.1, 0.1, (0.8102627563476563, 1.189737243652344), (-3.8146968215357935e-09,)),
    ((700, 300), 0.9, 0.002, (0.9614657592773437, 1.0385342407226563),
     (-3.8146968215357935e-09, 0.006109912872314902)),
    ((700, 300), 0.9, 0.899, (0.9788687133789062, 1.0211312866210935), (-3.8146968215357935e-09,)),
    ((700, 300), 0.1, 0.0, (0.6535891723632814, 1.346410827636719),
     (-1.4071679531030547e-09, -1.4071679531030547e-09)),
    ((500, 500), 0.1, 0.0, (0.7316714477539064, 1.268328552246094),
     (-1.4071679531030547e-09, -1.4071679531030547e-09)),
    ((30, 70), 0.9, 0.003, (0.8780740356445311, 1.1219259643554689),
     (-3.8146968215357935e-09, 0.009144283294678188)),
    ((1000,), 0.05, 0.05, (0.7243185424804688, 1.275681457519531), (-3.8146968215357935e-09,)),
    ((100, 200, 300, 400, 500), 0.3, 0.01, (0.7772280883789064, 1.2227719116210936),
     (-3.8146968215357935e-09, 0.1041565742492681, 0.13598572921752985, 0.192974887847901,
      0.32726333999633866)),
    ((50, 2000), 0.5, 0.001, (0.7378237915039063, 1.262176208496094),
     (-3.8146968215357935e-09, 0.07412407302856498)),
    ((3000, 3000, 50, 2000), (0.5, 0.7, 0.3, 0.1), 0.005, (0.8710726928710937, 1.1289273071289063),
     (-3.8146968215357935e-09, 0.02263348007202195, 0.13675835800170955, 0.7276954536438001)),
]


@pytest.mark.parametrize("sizes, p_diag, p_off, edges, isolated", SCAN_ORACLE)
def test_matches_scan_oracle(sizes, p_diag, p_off, edges, isolated):
    model = block_model(sizes, p_diag, p_off)
    support = rmt.support_boundaries(model)
    assert np.abs(np.subtract(support, edges)).max() <= 1e-6
    values = rmt.isolated_eigenvalues(model, support=support)
    assert len(values) == len(isolated)
    assert np.abs(np.subtract(values, isolated)).max() <= 1e-8


def test_support_outside_unit_window_raises():
    # expected degree 0.4: the bulk would reach below 0
    with pytest.raises(rmt.SupportNotFoundError):
        rmt.support_boundaries(two_level([20, 20], 0.01, 0.01))


def multiplicative_edge(mix):
    """The multiplicative edge solve that the Newton steps replaced, kept as an
    oracle: v <- v * (1/t + M t) on the dual until the bracket closes to
    rmt._EDGE_TOL. Returns (primal bound, dual bound, updates)."""
    live = mix.any(axis=1)
    mix = mix[np.ix_(live, live)]
    v = np.full(mix.shape[0], 1.0 / mix.shape[0])
    for it in range(1, 50_001):
        t = np.sqrt(v / (mix.T @ v))
        g = 1.0 / t + mix @ t
        high, low = float(g.max()), float(v @ g)
        if high - low <= rmt._EDGE_TOL * high:
            return high, low, it
        v = v * g
        v /= v.sum()
    raise AssertionError("oracle did not converge in 50000 updates")


@st.composite
def edge_models(draw):
    """K <= 6 blocks: probability-one blocks (no variance), absent couplings
    (a reducible M), and couplings down to 1e-4."""
    k = draw(st.integers(1, 6))
    sizes = tuple(draw(st.lists(st.integers(30, 3000), min_size=k, max_size=k)))
    pi = np.zeros((k, k))
    for r in range(k):
        pi[r, r] = draw(st.one_of(st.just(1.0), st.floats(0.05, 0.95)))
        for s in range(r):
            coupling = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-4.0, -0.5).map(lambda e: 10.0**e))
            pi[r, s] = pi[s, r] = draw(coupling)
    return sbm.SbmModel(sizes, pi, 0)


@settings(max_examples=80)
@given(edge_models())
@example(er_model(1000, 0.05))
def test_edge_radius_matches_multiplicative_oracle(model):
    kern = rmt._kernel(model)
    assume(kern.mix.max() > 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, gap, _ = rmt._edge_radius(kern)
    high, low, _ = multiplicative_edge(kern.mix)
    # both brackets are at most _EDGE_TOL wide and hold the same c
    assert 0.0 <= gap <= rmt._EDGE_TOL and high - low <= rmt._EDGE_TOL * high
    assert c == pytest.approx(high, rel=2e-12, abs=0.0)


@pytest.mark.parametrize(
    "sizes, p_in, p_out",
    [
        ((500, 1000, 2000, 3500), 0.1, 0.02),  # fig2 predict: 7 updates, the oracle 469
        ((700, 300), 0.1, 0.001),  # sweep-sparse: 9, the oracle 69
        ((700, 300), 0.9, 0.002),  # sweep-dense: 8, the oracle 67
        ((30, 70), 0.9, 0.003),  # gadget: 9, the oracle 67
        ((700, 300), 0.1, 0.0),  # reducible: 2, one per group; the oracle 64
    ],
)
def test_edge_updates_on_benchmark_models(sizes, p_in, p_out):
    assert rmt.support_boundaries(block_model(sizes, p_in, p_out)).iterations <= 20


def test_predict_reports_the_certified_edge_gap():
    diag = rmt.predict(block_model((500, 1000, 2000, 3500), 0.1, 0.02), with_density=False).diagnostics
    assert 0.0 <= diag["edge_gap"] <= rmt._EDGE_TOL
    assert diag["edge_iterations"] >= 1


def _expected_laplacian_spectrum(sizes, pi):
    n = int(sum(sizes))
    onehot = np.zeros((n, len(sizes)))
    start = 0
    for k, size in enumerate(sizes):
        onehot[start : start + size, k] = 1.0
        start += size
    expected_adj = onehot @ pi @ onehot.T
    np.fill_diagonal(expected_adj, 0.0)
    deg = expected_adj.sum(axis=1)
    return np.linalg.eigvalsh(np.eye(n) - expected_adj / np.sqrt(np.outer(deg, deg)))


@st.composite
def small_models(draw, max_k=4):
    k = draw(st.integers(1, max_k))
    sizes = tuple(draw(st.lists(st.integers(30, 100), min_size=k, max_size=k)))
    pi = np.zeros((k, k))
    for r in range(k):
        pi[r, r] = draw(st.floats(0.3, 0.9))
        for s in range(r):
            pi[r, s] = pi[s, r] = draw(st.one_of(st.just(0.0), st.floats(0.001, 0.3)))
    return sbm.SbmModel(sizes, pi, 0)


# Over 30 random models of this shape: isolated values deviated from the dense
# spectrum by at most 0.41 / (min expected degree); the density 1% outside an
# edge stayed below 2.2e-7 and 1% inside above 0.12.
@settings(max_examples=25)
@given(small_models())
def test_random_models_against_independent_oracles(model):
    lam_l, lam_r = rmt.support_boundaries(model)
    kern = rmt._kernel(model)
    # the constant t and the left Perron vector bound the edge solve's value
    c = 1.0 - lam_l
    assert lam_r - 1.0 == pytest.approx(c, abs=1e-12)
    assert 2 * np.sqrt(rmt._spectral_radius(kern.mix)) <= c + 1e-9
    assert c <= 2 * np.sqrt(kern.mix.sum(axis=1).max()) + 1e-9

    # the density iteration is independent of the edge solve
    step = 0.01 * (lam_r - lam_l)
    density, diag = rmt.bulk_density(model, [lam_l - step, lam_l + step, lam_r - step, lam_r + step])
    assert not diag["failed_points"]
    assert density[0] <= 1e-6 and density[3] <= 1e-6
    assert density[1] > 1e-3 and density[2] > 1e-3

    dhat = model.edge_probs @ np.asarray(model.community_sizes, dtype=float)
    dense = _expected_laplacian_spectrum(model.community_sizes, model.edge_probs)
    for value in rmt.isolated_eigenvalues(model, support=(lam_l, lam_r)):
        assert np.abs(dense - value).min() <= 1.0 / dhat.min()


def warm_started_density(model, grid, eta=rmt.DEFAULT_ETA, max_iters=200_000, tol=1e-12):
    """The per-point density loop that the batched solver replaced, kept as
    an oracle: damped updates (damping 0.5) at each grid point in turn,
    warm-started from the previous converged point."""
    kern = rmt._kernel(model)
    density, failed, t_prev = np.zeros(len(grid)), [], None
    for i, lam in enumerate(grid):
        z = complex(lam, eta)
        t = t_prev if t_prev is not None else np.full(kern.k, 1.0 / (z - 1.0))
        ok = False
        for _ in range(max_iters):
            den = z - 1.0 - kern.mix @ t
            if np.abs(den).min() < 1e-14:
                break
            f = 1.0 / den
            if np.abs(f - t).max() < tol:
                t, ok = f, True
                break
            t = 0.5 * (t + f)
        density[i] = max(0.0, float(-(kern.sizes @ t.imag) / (np.pi * kern.n)))
        if not ok:
            failed.append(i)
        t_prev = t if ok else None
    return density, failed


@settings(max_examples=15)
@given(small_models())
def test_batched_density_matches_warm_started_loop(model):
    pred = rmt.predict(model, grid_spec=81)
    density, failed = warm_started_density(model, pred.grid)
    assert pred.diagnostics["failed_points"] == failed == []
    assert np.abs(pred.density - density).max() <= 1e-9 * density.max()


# 121 points put grid[10] and grid[110] on the support edges. The density is
# ill-conditioned there: at eta 1e-12 the loop flags both as failed, and the
# batched solve and the loop disagree there by up to ~1e-6 relative. The
# batched solve must converge on every point; the two are compared off the edges.
@settings(max_examples=20)
@given(small_models(max_k=6), st.sampled_from([1e-12, 1e-4, 0.2]))
def test_batched_density_matches_warm_started_loop_wider(model, eta):
    pred = rmt.predict(model, grid_spec=121, eta=eta)
    assert pred.diagnostics["failed_points"] == []
    off_edge = np.abs(pred.grid[:, None] - np.array(pred.support)).min(axis=1) > 1e-12
    density, failed = warm_started_density(model, pred.grid[off_edge], eta=eta)
    assert failed == []
    assert np.abs(pred.density[off_edge] - density).max() <= 1e-9 * density.max()


def test_fixed_point_equals_batched_row():
    model = two_level([700, 300], 0.1, 0.02)
    kern = rmt._kernel(model)
    lam_l, lam_r = rmt.support_boundaries(model)
    z = np.linspace(lam_l - 0.02, lam_r + 0.02, 9) + 1e-3j
    t, _res, _iters, ok = rmt._solve(kern, z, rmt._default_t0(kern, z), rmt.DEFAULT_MAX_ITERS, rmt.DEFAULT_TOL)
    assert ok.all()
    for zi, row in zip(z, t):
        t_one, _res, _iters, ok_one = solve_at(model, zi)
        assert ok_one
        assert np.abs(t_one - row).max() <= 1e-12 * np.abs(row).max()


def test_unconverged_density_point_flagged_not_raised(monkeypatch):
    # capped at one iteration, no point inside the bulk reaches the
    # tolerance; every point is flagged with a finite best-effort density
    monkeypatch.setattr(rmt, "DEFAULT_MAX_ITERS", 1)
    model = two_level([700, 300], 0.1, 0.02)
    lam_l, lam_r = rmt.support_boundaries(model)
    grid = np.linspace(lam_l + 0.05, lam_r - 0.05, 5)
    density, diag = rmt.bulk_density(model, grid)
    assert diag["failed_points"] == [0, 1, 2, 3, 4]
    assert np.all(np.isfinite(density)) and np.all(density >= 0.0)


class TestIsolatedEigenvalues:
    def test_delta_zero_single_trivial_root(self):
        # rank-1 expectation: only the trivial root near 0 survives
        model = two_level([400, 600], 0.1, 0.1)
        roots = rmt.isolated_eigenvalues(model, rmt.support_boundaries(model))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-6)

    def test_disconnected_equal_blocks_double_root(self):
        model = two_level([500, 500], 0.1, 0.0)
        roots = rmt.isolated_eigenvalues(model, rmt.support_boundaries(model))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(roots[1], abs=1e-6)
        pred = rmt.predict(model, with_density=False)
        assert pred.predicted_lambda2 == pytest.approx(0.0, abs=0.05)

    def test_k2_equal_sizes_matches_expected_laplacian(self):
        # nontrivial root ~ 2 p_out/(p_in + p_out), the lambda2 of E[Lhat]
        n = 1000
        model = two_level([500, 500], 0.1, 0.02)
        roots = rmt.isolated_eigenvalues(model, rmt.support_boundaries(model))
        assert len(roots) == 2
        oracle = _expected_laplacian_spectrum([500, 500], model.edge_probs)[1]
        assert abs(roots[1] - oracle) < 0.05
        assert abs(roots[1] - 2 * 0.02 / 0.12) < 0.05

    def test_predicted_lambda2_tracks_sampled_networks(self):
        model = two_level([700, 300], 0.1, 0.002)
        pred = rmt.predict(model, with_density=False)
        lam2s = []
        for seed in range(10):
            net, _ = sbm.sample_connected(model.with_seed(seed))
            lam2s.append(spectra.lambda2_only(net))
        mean_emp = float(np.mean(lam2s))
        assert abs(pred.predicted_lambda2 - mean_emp) / mean_emp <= 0.10


class TestPredict:
    @pytest.mark.parametrize("points", [0, -3])
    def test_rejects_an_empty_grid(self, points):
        with pytest.raises(ValueError, match="^grid_spec .* must be >= 1"):
            rmt.predict(er_model(100, 0.5), grid_spec=points)

    def test_delta_zero_reports_bulk_edge(self):
        pred = rmt.predict(two_level([700, 300], 0.1, 0.1), with_density=False)
        assert pred.predicted_lambda2 == pred.support[0]
        assert pred.diagnostics["lambda2_source"] == "bulk_edge"

    def test_strong_communities_report_isolated(self):
        pred = rmt.predict(two_level([700, 300], 0.1, 0.02), with_density=False)
        assert pred.diagnostics["lambda2_source"] == "isolated"
        assert pred.predicted_lambda2 < pred.support[0]
        assert pred.predicted_lambda2 == pred.isolated[1]

    def test_lambda2_monotone_in_delta(self):
        deltas = [0.0, 0.02, 0.04, 0.06, 0.08, 0.09]
        lam2 = [
            rmt.predict(two_level([700, 300], 0.1, 0.1 - d), with_density=False).predicted_lambda2
            for d in deltas
        ]
        assert all(b <= a + 1e-6 for a, b in zip(lam2, lam2[1:]))

    def test_density_integral_and_outside_decay(self):
        pred = rmt.predict(two_level([700, 300], 0.1, 0.02))
        integral = float(np.trapezoid(pred.density, pred.grid))
        assert 0.9 <= integral <= 1.0
        lam_l, lam_r = pred.support
        step = pred.grid[1] - pred.grid[0]
        outside = (pred.grid < lam_l - step) | (pred.grid > lam_r + step)
        assert pred.density[outside].max() <= 1e-6

    def test_boundary_consistency_near_edges(self):
        eta = 1e-9
        model = two_level([700, 300], 0.1, 0.02)
        pred = rmt.predict(model, with_density=False)
        lam_l, lam_r = pred.support
        density, _ = rmt.bulk_density(model, [lam_l - 3 * eta, lam_r + 3 * eta], eta=eta)
        peak = 1.0 / (np.pi * np.sqrt(semicircle_sigma2(1000, 0.1)))
        assert np.all(density <= 1e-3 * peak)

    def test_isolated_values_outside_support(self):
        pred = rmt.predict(two_level([143, 286, 571, 1000], 0.1, 0.02), with_density=False)
        lam_l, lam_r = pred.support
        assert len(pred.isolated) == 4
        for value in pred.isolated:
            assert value < lam_l or value > lam_r

    def test_json_dict_roundtrips_through_json(self):
        import json

        pred = rmt.predict(two_level([50, 50], 0.5, 0.1), with_density=False)
        doc = json.loads(json.dumps(pred.to_json_dict()))
        assert doc["lambdaL"] == pytest.approx(pred.support[0])
        assert doc["predicted_lambda2"] == pytest.approx(pred.predicted_lambda2)
