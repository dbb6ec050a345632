import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from patchep import ep_poisson
from patchep.ep_gaussian import EPConfig, EPState, GaussianFactor, update_q_x0, update_q_x1
from patchep.ep_poisson import (
    PoissonFactors,
    rectified_poisson_tilted_batch,
    run_ep_poisson,
    update_q_u0,
    update_q_u1,
)
from patchep.gmm import Adaptation, PatchGMM, adapt, train_em
from patchep.operators import Conv2D, Identity, Mask, PoissonNoise, simulate
from patchep.partitions import build_shifted_partitions

from conftest import blocks_of, random_spd, stack_by_group
from reference import dense_reference_moments, sample_prior_image


def brute_force_tilted(y, mu1, c1, n_points=1_000_000):
    """Trapezoid integration of the rectified-Poisson tilted density over a
    wide bracket (both the positive piece and, for y=0, the negative one)."""
    sd = np.sqrt(c1)
    if y == 0:
        lo = min(mu1 - 12 * sd, -12 * sd)
        hi = max(mu1 + 12 * sd, 12 * sd, 10.0)
        u = np.linspace(lo, hi, n_points)
        log_lik = np.where(u > 0, -u, 0.0)
    else:
        mode_guess = max(y, mu1, 1.0)
        hi = mode_guess + 12 * np.sqrt(mode_guess + c1)
        u = np.linspace(1e-12, hi, n_points)
        log_lik = y * np.log(u) - u - gammaln(y + 1)
    log_prior = -0.5 * (u - mu1) ** 2 / c1 - 0.5 * np.log(2 * np.pi * c1)
    log_dens = log_lik + log_prior
    shift = log_dens.max()
    dens = np.exp(log_dens - shift)
    z0 = np.trapezoid(dens, u)
    mean = np.trapezoid(u * dens, u) / z0
    var = np.trapezoid(u ** 2 * dens, u) / z0 - mean ** 2
    return float(np.exp(np.log(z0) + shift)), float(mean), float(var)


def three_sum_tilted(y, mu1, c1, n_points):
    """Slow-path reference for the positive-count quadrature: a composite
    Simpson rule with n_points (odd) nodes on the kernel's mode-centered
    span, with the nodes u materialised pixel by pixel and the three sums
    z0, z1, z2 of f, f d, f d^2 (d = u - mode) taken separately.  Sums of
    f u^2 about the origin would lose up to seven digits of the variance to
    cancellation (a mean near 1000 with variance 0.1), which is more than
    the tolerance under test; d keeps them.
    Also returns which pixels had their lower end clipped at u = 1e-300."""
    y = np.asarray(y, dtype=float)
    half_b = 0.5 * (c1 - mu1)
    mode = -half_b + np.sqrt(half_b ** 2 + y * c1)
    for _ in range(2):
        grad = y / mode - 1.0 - (mode - mu1) / c1
        hess = -y / mode ** 2 - 1.0 / c1
        mode = np.maximum(mode - grad / hess, 1e-300)
    std_eff = 1.0 / np.sqrt(y / mode ** 2 + 1.0 / c1)
    clipped = mode - 10.0 * std_eff < 1e-300
    lo = np.maximum(mode - 10.0 * std_eff, 1e-300)
    hi = mode + 10.0 * std_eff
    g_max = y * np.log(mode) - mode - (mode - mu1) ** 2 / (2.0 * c1)
    w = np.ones(n_points)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    z0, z1, z2 = np.empty((3, y.size))
    for i in range(y.size):
        u = np.linspace(lo[i], hi[i], n_points)
        f = np.exp(y[i] * np.log(u) - u - (u - mu1[i]) ** 2 / (2.0 * c1) - g_max[i])
        d = u - mode[i]
        h = (hi[i] - lo[i]) / (n_points - 1)
        z0[i], z1[i], z2[i] = f @ w * h / 3.0, (f * d) @ w * h / 3.0, (f * d ** 2) @ w * h / 3.0
    mean = mode + z1 / z0
    var = z2 / z0 - (z1 / z0) ** 2
    log_z = np.log(z0) + g_max - gammaln(y + 1) - 0.5 * np.log(2 * np.pi * c1)
    return log_z, mean, var, clipped


def tilted_moments(y, mu1, c1):
    """Z, mean and variance arrays from the batched kernel."""
    log_z, mean, var, _ = rectified_poisson_tilted_batch(y, mu1, c1)
    return np.exp(log_z), mean, var


class TestRectifiedPoissonTilted:
    def test_deep_negative_zero_count(self):
        # all mass on u <= 0: the tilted density is the cavity itself there
        _, mean, var = tilted_moments(np.array([0]), [-20.0], 1.0)
        assert abs(mean[0] + 20.0) < 1e-6
        assert abs(var[0] - 1.0) < 1e-5

    def test_flat_cavity_gives_gamma_moments(self):
        # c1 -> inf: tilted ~ u^5 e^{-u} = Gamma(6, 1), mean 6, var 6
        _, mean, var = tilted_moments(np.array([5]), [5.0], 1e12)
        assert abs(mean[0] - 6.0) / 6.0 < 1e-2
        assert abs(var[0] - 6.0) / 6.0 < 1e-2

    @pytest.mark.parametrize("y", [1, 5, 50, 500])
    def test_against_brute_force_integral(self, y, rng):
        for _ in range(3):
            mu1 = float(rng.uniform(-2.0, 2.0) * np.sqrt(y) + y)
            c1 = float(rng.uniform(0.5, 3.0) * max(y, 1))
            z, mean, var = tilted_moments(np.array([y]), [mu1], c1)
            z_ref, mean_ref, var_ref = brute_force_tilted(y, mu1, c1)
            assert abs(mean[0] - mean_ref) / abs(mean_ref) < 1e-8
            assert abs(var[0] - var_ref) / var_ref < 1e-7
            assert abs(z[0] - z_ref) / z_ref < 1e-6

    def test_zero_count_closed_form_cross_validates_quadrature(self, rng):
        # the y=0 closed form against brute-force integration of the same
        # two-piece density
        for mu1, c1 in [(0.5, 1.0), (-1.0, 2.0), (3.0, 0.5), (0.0, 4.0)]:
            z, mean, var = tilted_moments(np.array([0]), [mu1], c1)
            z_ref, mean_ref, var_ref = brute_force_tilted(0, mu1, c1)
            assert abs(z[0] - z_ref) / z_ref < 1e-8
            assert abs(mean[0] - mean_ref) / max(abs(mean_ref), 1e-3) < 1e-8
            assert abs(var[0] - var_ref) / var_ref < 1e-8

    def test_gauss_legendre_nodes_match_numpy(self):
        # Newton on the Legendre recurrence against numpy's eigenvalue rule.
        # numpy's own weights are off by up to 1.3e-12 relative from 50-digit
        # values (the Newton weights by 2e-14), so the weights compare at
        # 2e-12; exactness on every monomial of degree < 96 checks them more
        # closely
        x, w = ep_poisson._gauss_legendre(48)
        x_ref, w_ref = np.polynomial.legendre.leggauss(48)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, w_ref, rtol=2e-12)
        for degree in range(96):
            exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
            assert abs(w @ x ** degree - exact) < 1e-15
        np.testing.assert_array_equal(ep_poisson._UNIT_NODES, 0.5 * (x + 1.0))
        np.testing.assert_array_equal(ep_poisson._GL_WEIGHTS, 0.5 * w)

    def test_zero_count_normaliser_matches_scipy(self, monkeypatch):
        # the two truncated pieces get fixed log masses near -700 and -inf
        # (never both -inf): log Z, mean and variance against the same
        # mixture normalised by scipy's logsumexp
        log_mass_a = np.array([0.0, -700.0, -np.inf, -3.0, -745.0, -699.0])
        log_mass_b = np.array([-700.0, -700.5, -3.0, -np.inf, -1.0, -0.5])
        mean_a, var_a = np.linspace(0.1, 2.0, 6), np.linspace(0.5, 1.5, 6)
        mean_b, var_b = -np.linspace(0.2, 1.0, 6), np.linspace(0.3, 0.9, 6)

        def fake_pieces(mu, sigma2, lower):
            return (mean_a, var_a, log_mass_a) if lower else (mean_b, var_b, log_mass_b)

        monkeypatch.setattr(ep_poisson, "_truncated_normal_moments", fake_pieces)
        mu1, c1 = np.linspace(-1.0, 1.0, 6), 0.8
        log_z, mean, var = ep_poisson._tilted_zero_counts(mu1, c1)
        log_wa = 0.5 * c1 - mu1 + log_mass_a
        ref_log_z = logsumexp(np.stack([log_wa, log_mass_b]), axis=0)
        wa, wb = np.exp(log_wa - ref_log_z), np.exp(log_mass_b - ref_log_z)
        ref_mean = wa * mean_a + wb * mean_b
        ref_var = wa * (var_a + mean_a ** 2) + wb * (var_b + mean_b ** 2) - ref_mean ** 2
        np.testing.assert_allclose(log_z, ref_log_z, rtol=1e-14)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-14)
        np.testing.assert_allclose(var, ref_var, rtol=1e-14)

    def test_mode_centered_rule_recovers_pure_gaussian(self):
        # quadrature-scheme invariant: the module's unit nodes and basis,
        # laid over +-10 std around the mode, integrate a pure Gaussian
        # exactly within tolerance
        mu, c = 3.7, 0.9
        lo, span = mu - 10 * np.sqrt(c), 20 * np.sqrt(c)
        u = lo + span * ep_poisson._UNIT_NODES
        f = np.exp(-0.5 * (u - mu) ** 2 / c)
        m0, m1, m2 = f @ ep_poisson._GL_BASIS
        mean = lo + span * m1 / m0
        var = span ** 2 * (m2 / m0 - (m1 / m0) ** 2)
        assert abs(mean - mu) < 1e-10
        assert abs(var - c) < 1e-10

    def test_unit_basis_contraction_matches_three_sums(self, rng, monkeypatch):
        # 750 positive counts over y in [1, 500], cavity means in [-20, 2y],
        # three cavity variances, clipped and unclipped lower ends; the
        # reference is a 16,385-node Simpson rule on the same span, whose
        # error is far below the tolerances.
        # Chunk invariance, on the counts repeated to 1,250 pixels (two
        # default chunks): chunks that split the pixels at multiples of 256
        # give the default's bits, as BLAS computes every row of the
        # (P, 48) @ (48, 3) product alike except those of a chunk's last,
        # partial row block; chunks of 1 and 7 move that block and agree to
        # rounding
        default_chunk = ep_poisson._CHUNK
        for c1 in (0.1, 6.0, 1e4):
            y = np.rint(np.exp(rng.uniform(0.0, np.log(500.0), 247)))
            y = np.concatenate([[1.0, 2.0, 500.0], y])
            mu1 = rng.uniform(-20.0, 2.0 * y)
            mu1[:20] = rng.uniform(-20.0, 0.0, 20)
            ref_lz, ref_mean, ref_var, clipped = three_sum_tilted(y, mu1, c1, 16_385)
            assert 0 < np.sum(clipped) < y.size
            many = (np.tile(y, 5), np.tile(mu1, 5), c1)
            monkeypatch.setattr(ep_poisson, "_CHUNK", default_chunk)
            default = rectified_poisson_tilted_batch(*many)
            for chunk in (1, 7, 256, default_chunk, 10_000):
                monkeypatch.setattr(ep_poisson, "_CHUNK", chunk)
                log_z, mean, var, n_bad = rectified_poisson_tilted_batch(y, mu1, c1)
                assert n_bad == 0
                np.testing.assert_allclose(log_z, ref_lz, rtol=1e-12)
                np.testing.assert_allclose(mean, ref_mean, rtol=1e-12)
                np.testing.assert_allclose(var, ref_var, rtol=1e-10)
                out = rectified_poisson_tilted_batch(*many)
                assert out[3] == default[3] == 0
                for got, expected in zip(out[:3], default[:3]):
                    if chunk in (256, default_chunk, 10_000):
                        np.testing.assert_array_equal(got, expected)
                    else:
                        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_positivity_invariants(self, rng):
        y = rng.integers(0, 100, size=200)
        mu1 = rng.normal(loc=y, scale=np.sqrt(y + 1.0))
        c1 = 2.5
        log_z, _, var, _ = rectified_poisson_tilted_batch(y, mu1, c1)
        assert np.all(np.isfinite(log_z))
        assert np.all(var >= 0)


class TestUpdateQu0:
    def _factors(self, n, c1=2.0, mu1=None):
        mu1 = np.zeros(n) if mu1 is None else mu1
        return PoissonFactors(
            prec_u0=np.ones(n), eta_u0=np.zeros(n),
            prec_u1=1.0 / c1, eta_u1=mu1 / c1,
        )

    def test_harmonic_arithmetic(self, monkeypatch):
        # tilted variance c1/2 -> factor variance exactly c1
        c1 = 2.0
        factors = self._factors(4, c1=c1)

        def fake_tilted(y, mu1, c1_arg):
            n = y.size
            return np.zeros(n), np.full(n, 0.3), np.full(n, c1_arg / 2), 0

        monkeypatch.setattr("patchep.ep_poisson.rectified_poisson_tilted_batch", fake_tilted)
        update_q_u0(factors, np.zeros(4))
        np.testing.assert_allclose(1.0 / factors.prec_u0, np.full(4, c1), rtol=1e-12)

    def test_large_variance_escape(self, monkeypatch):
        # tilted variance above c1 makes the precision nonpositive: escape to 1e8
        factors = self._factors(3, c1=2.0)

        def fake_tilted(y, mu1, c1_arg):
            n = y.size
            return np.zeros(n), np.zeros(n), np.full(n, 2.5), 0

        monkeypatch.setattr("patchep.ep_poisson.rectified_poisson_tilted_batch", fake_tilted)
        escapes = update_q_u0(factors, np.zeros(3))
        assert escapes == 3
        np.testing.assert_allclose(1.0 / factors.prec_u0, np.full(3, 1e8))

    def test_zero_counts_far_above_zero_do_not_escape(self):
        # the tilted variance is at most c1 (log-concave likelihood); far
        # above zero a zero count only shifts the cavity, so t_var equals c1
        # up to rounding and is no escape
        mu1 = np.linspace(30.0, 200.0, 2000)
        for c1 in (2.0, 10.0, 50.0):
            factors = self._factors(mu1.size, c1=c1, mu1=mu1)
            assert update_q_u0(factors, np.zeros(mu1.size)) == 0

    def test_symmetric_inputs_fix_the_mean(self, monkeypatch):
        # E = mu1 with Var = c1/2 leaves the factor mean at mu1
        c1, mu1 = 2.0, 1.7
        factors = self._factors(2, c1=c1, mu1=np.full(2, mu1))

        def fake_tilted(y, m, c1_arg):
            n = y.size
            return np.zeros(n), np.full(n, mu1), np.full(n, c1_arg / 2), 0

        monkeypatch.setattr("patchep.ep_poisson.rectified_poisson_tilted_batch", fake_tilted)
        update_q_u0(factors, np.zeros(2))
        mu0, _ = factors.u0_moments()
        np.testing.assert_allclose(mu0, np.full(2, mu1), rtol=1e-12)


class TestDampingRule:
    def test_per_pixel_factors_are_set_undamped(self, rng):
        # q_u0 takes no damping, and a diagonal q_x0 reaches its target whatever
        # the damping
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = adapt(PatchGMM(np.array([1.0]), np.full((1, 4), 3.0), np.eye(4)[None]),
                        Adaptation())
        y = rng.poisson(3.0, 16).astype(float)

        def updated(damping):
            cfg = EPConfig(damping=damping)
            factors = PoissonFactors(prec_u0=np.full(16, 0.5), eta_u0=np.full(16, 1.5),
                                     prec_u1=0.25, eta_u1=y / 4.0)
            update_q_u0(factors, y)
            state = EPState(
                q0=GaussianFactor.from_moments(part, y + 1.0, np.full(16, 2.0), diagonal=True),
                q1=GaussianFactor.from_moments(part, y, np.full(16, 0.5), diagonal=True),
                partition=part,
            )
            update_q_x0(state, adapted, cfg)
            return factors, state.q0

        (u_damped, x_damped), (u_full, x_full) = updated(0.3), updated(1.0)
        np.testing.assert_array_equal(u_damped.prec_u0, u_full.prec_u0)
        np.testing.assert_array_equal(u_damped.eta_u0, u_full.eta_u0)
        for p_damped, p_full in zip(x_damped.prec, x_full.prec):
            np.testing.assert_array_equal(p_damped, p_full)
        np.testing.assert_array_equal(x_damped.eta, x_full.eta)
        assert not np.allclose(u_full.prec_u0, 0.5)
        assert not np.allclose(x_full.eta, (y + 1.0) / 2.0)


class TestUpdateQx1Poisson:
    def test_reduces_to_gaussian_update(self, rng):
        # Sigma_u0 = sigma^2 I, m_u0 = y: identical to the Gaussian-model
        # likelihood update (same code path, same numbers)
        part = build_shifted_partitions(4, 4, 2)[0]
        y = rng.standard_normal(16) + 3.0
        sigma2 = 0.4
        op = Identity(4, 4)

        def fresh_state():
            s = EPState(
                q0=GaussianFactor.from_moments(part, y, np.ones(16), diagonal=True),
                q1=GaussianFactor.from_moments(part, y, np.ones(16), diagonal=True),
                partition=part,
            )
            s.sync()
            return s

        cfg = EPConfig(damping=1.0)
        state_a = fresh_state()
        update_q_x1(state_a, op, np.full(16, 1.0 / sigma2),
                    op.apply_adjoint(y) / sigma2, cfg)
        state_b = fresh_state()
        w = np.full(16, 1.0 / sigma2)  # Poisson path with q_u0 = N(y, sigma^2)
        update_q_x1(state_b, op, w, op.apply_adjoint(w * y), cfg)
        for prec_a, prec_b in zip(state_a.q1.prec, state_b.q1.prec):
            np.testing.assert_array_equal(prec_a, prec_b)
        np.testing.assert_allclose(state_a.q1.eta, state_b.q1.eta, rtol=1e-14)

    def test_blur_mean_matches_dense_solve(self, rng):
        # 12x12, 3x3 kernel, pixel-varying weights: CG mean vs dense solve
        part = build_shifted_partitions(12, 12, 4)[0]
        op = Conv2D(12, 12, np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0)
        n = 144
        w = rng.uniform(0.1, 2.0, n)
        m_u0 = rng.uniform(1.0, 5.0, n)
        blocks = [random_spd(rng, len(idx), 0.3) for idx, _ in blocks_of(part)]
        eta0 = rng.standard_normal(n)
        state = EPState(
            q0=GaussianFactor(part, stack_by_group(part, blocks), eta0),
            q1=GaussianFactor.from_moments(part, m_u0, np.ones(n), diagonal=False),
            partition=part,
        )
        state.sync()
        from patchep.ep_gaussian import tilted_p1_moments
        mean, _, _, _, _ = tilted_p1_moments(state.q0, op, w, op.apply_adjoint(w * m_u0),
                                             EPConfig(), np.zeros(n))
        omega0 = np.zeros((n, n))
        for j, (idx, _) in enumerate(blocks_of(part)):
            omega0[np.ix_(idx, idx)] = blocks[j]
        expected, _ = dense_reference_moments(op, w, omega0,
                                              eta0 + op.apply_adjoint(w * m_u0))
        np.testing.assert_allclose(mean, expected, atol=1e-6)


class TestUpdateQu1:
    def test_symmetric_isotropic_case(self):
        # equal tilted variances d and equal cavities c: fitted precision is
        # max(1/d - 1/c, 1e-8); with the LOO correction, d = 1/(1/c + p_x0)
        part = build_shifted_partitions(4, 4, 2)[0]
        n = 16
        c0 = 2.0
        p_x0 = 1.5
        mean_val = 0.8
        state = EPState(
            q0=GaussianFactor.from_moments(part, np.full(n, mean_val), np.full(n, 1.0 / p_x0),
                                           diagonal=True),
            q1=GaussianFactor.from_moments(part, np.full(n, mean_val), np.full(n, c0),
                                           diagonal=True),
            partition=part,
        )
        state.sync()
        factors = PoissonFactors(
            prec_u0=np.full(n, 1.0 / c0), eta_u0=np.full(n, mean_val / c0),
            prec_u1=1.0, eta_u1=np.zeros(n),
        )
        update_q_u1(factors, state, Identity(4, 4), 1.0)
        # leave-one-out removes q_u0 from the joint: tilted var d = 1/(p_x0 + p0)
        d = 1.0 / (p_x0 + 1.0 / c0)
        expected = max(1.0 / d - 1.0 / c0, 1e-8)
        assert factors.prec_u1 == pytest.approx(expected, rel=1e-9)

    def test_identity_full_loop_self_consistency(self, rng):
        # u = Hx = x: after convergence the u-side and x-side means agree
        part = build_shifted_partitions(8, 8, 2)[0]
        base = train_em(rng.uniform(2.0, 8.0, size=(300, 4))
                        + rng.standard_normal((300, 4)), 3, max_iters=30, seed=0)
        adapted = adapt(base, Adaptation())
        truth = np.clip(sample_prior_image(adapted, part, rng), 0.1, None)
        y = simulate(Identity(8, 8), truth, PoissonNoise(), seed=9)
        res = run_ep_poisson(y, Identity(8, 8), adapted, part,
                             EPConfig(damping=0.7, max_iterations=200, stop_tol=1e-14))
        assert res.converged
        np.testing.assert_allclose(res.u_mean, res.mean, atol=1e-6)


class TestRunEpPoisson:
    def test_high_count_regime_tracks_observation(self, rng):
        # rate 1e6: Poisson ~ Gaussian, posterior mean ~ y within 1% relative
        part = build_shifted_partitions(4, 4, 2)[0]
        rate = 1e6
        base = PatchGMM(np.array([1.0]), np.full((1, 4), rate),
                        (rate * 0.5 * np.eye(4))[None])
        adapted = adapt(base, Adaptation())
        y = simulate(Identity(4, 4), np.full(16, rate), PoissonNoise(), seed=0)
        res = run_ep_poisson(y, Identity(4, 4), adapted, part,
                             EPConfig(max_iterations=50))
        np.testing.assert_allclose(res.mean, y, rtol=1e-2)

    def test_all_zero_counts_pull_toward_prior(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 2.0), np.eye(4)[None] * 0.25)
        adapted = adapt(base, Adaptation())
        y = np.zeros(16)
        res = run_ep_poisson(y, Identity(4, 4), adapted, part,
                             EPConfig(max_iterations=60))
        # mean pulled below the prior mean by the zero counts, u-moments low
        assert np.all(res.mean < 2.0)
        assert np.mean(res.u_mean) < 2.0

    def test_u_mean_is_zero_at_unobserved_pixels(self):
        # where row n of H is zero, u_n = (Hx)_n = 0 exactly; the u factors
        # there never reach the x side and do not settle, so their product's
        # mean would depend on when the run stopped
        from patchep.phantoms import make_phantom

        kept = np.random.default_rng(11).random(256) < 0.7
        op = Mask(16, 16, kept)
        part = build_shifted_partitions(16, 16, 4)[0]
        base = PatchGMM(np.array([1.0]), np.full((1, 16), 5.0), (4.0 * np.eye(16))[None])
        y = simulate(op, 10.0 * make_phantom(16, 16, seed=1).ravel(), PoissonNoise(), seed=1)
        res = run_ep_poisson(y, op, adapt(base, Adaptation()), part)
        f = res.u_factors
        assert res.iterations > 1 and np.any(~kept)
        assert np.all(res.u_mean[~kept] == 0.0)
        np.testing.assert_array_equal(res.u_mean[kept], ((f.eta_u0 + f.eta_u1)
                                                        / (f.prec_u0 + f.prec_u1))[kept])

    def test_rejects_negative_and_fractional_counts(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = adapt(PatchGMM(np.array([1.0]), np.zeros((1, 4)), np.eye(4)[None]),
                        Adaptation())
        with pytest.raises(ValueError):
            run_ep_poisson(-np.ones(16), Identity(4, 4), adapted, part)
        with pytest.raises(ValueError):
            run_ep_poisson(np.full(16, 0.5), Identity(4, 4), adapted, part)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf_count", "nan_count"])
    def test_rejects_nonfinite_counts(self, bad):
        # an infinite count used to pass the integer check and divide by zero
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = adapt(PatchGMM(np.array([1.0]), np.zeros((1, 4)), np.eye(4)[None]),
                        Adaptation())
        y = np.ones(16)
        y[3] = bad
        with pytest.raises(ValueError):
            run_ep_poisson(y, Identity(4, 4), adapted, part)

    def test_rejects_negative_kernel_entry(self):
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = adapt(PatchGMM(np.array([1.0]), np.zeros((1, 4)), np.eye(4)[None]),
                        Adaptation())
        kernel = np.full((3, 3), 0.2)
        kernel[0, 1] = -0.1
        with pytest.raises(ValueError, match="nonnegative H"):
            run_ep_poisson(np.ones(16), Conv2D(4, 4, kernel), adapted, part)

    def test_trace_includes_poisson_extras(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 3.0), np.eye(4)[None])
        adapted = adapt(base, Adaptation())
        y = simulate(Identity(4, 4), np.full(16, 3.0), PoissonNoise(), seed=1)
        res = run_ep_poisson(y, Identity(4, 4), adapted, part, EPConfig(max_iterations=3))
        assert all(type(r["c1"]) is float and r["c1"] > 0 for r in res.history)
        assert "poisson_escapes" in res.history[0]["warnings"]

    def test_escapes_are_warnings(self, monkeypatch):
        # every tilted variance above c1: each pixel escapes on every
        # iteration, and the escapes reach the result as their own cause
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = adapt(PatchGMM(np.array([1.0]), np.full((1, 4), 3.0), np.eye(4)[None]),
                        Adaptation())

        def fake_tilted(y, mu1, c1):
            n = y.size
            return np.zeros(n), np.asarray(mu1, float), np.full(n, 2.0 * c1), 0

        monkeypatch.setattr("patchep.ep_poisson.rectified_poisson_tilted_batch", fake_tilted)
        res = run_ep_poisson(np.full(16, 3.0), Identity(4, 4), adapted, part,
                             EPConfig(max_iterations=3))
        assert [r["warnings"]["poisson_escapes"] for r in res.history] == [16] * res.iterations
        assert res.warnings_by_cause["poisson_escapes"] == res.warnings == 16 * res.iterations


class TestResumePoisson:
    """Poisson runs that start from an earlier result's four factors."""

    @staticmethod
    def problem():
        from patchep.phantoms import extract_patches, make_phantom

        base = train_em(extract_patches(make_phantom(64, 64, seed=0), 4), 3,
                        max_iters=30, seed=0)
        truth = 10.0 * make_phantom(16, 16, seed=3).ravel()
        y = simulate(Identity(16, 16), truth, PoissonNoise(), seed=9)
        theta = Adaptation(offset=float(np.mean(y)), mean_var=float(np.var(y)), scale=10.0)
        return base, y, theta, build_shifted_partitions(16, 16, 4)[0]

    def test_resumed_converged_run_stops_at_once(self):
        base, y, theta, part = self.problem()
        cfg = EPConfig(max_iterations=200, stop_tol=1e-12)
        first = run_ep_poisson(y, Identity(16, 16), adapt(base, theta), part, cfg)
        assert first.converged
        kept = first.u_factors.copy()
        again = run_ep_poisson(y, Identity(16, 16), adapt(base, theta), part, cfg, init=first)
        assert again.converged and again.iterations <= 2
        assert np.sum((again.mean - first.mean) ** 2) < cfg.stop_tol * 256
        assert np.sum((again.marginal_var - first.marginal_var) ** 2) < cfg.stop_tol * 256
        assert again.u_factors is not first.u_factors
        np.testing.assert_array_equal(first.u_factors.eta_u0, kept.eta_u0)
        assert first.u_factors.prec_u1 == kept.prec_u1

    def test_resume_at_new_theta_matches_cold_run(self):
        # the adaptation moved as by one M-step, intensities up to about 9:
        # each run stops once a step is below sqrt(stop_tol * N) in 2-norm,
        # within 9 such steps of the fixed point at a contraction rate of at
        # most 0.9, or earlier, once the contraction estimate of
        # fast-contracting steps puts it within sqrt(stop_tol * N) of the
        # fixed point; so the resumed and the cold run agree to
        # 20 sqrt(stop_tol * N)
        base, y, theta, part = self.problem()
        cfg = EPConfig(max_iterations=200, stop_tol=1e-12)
        moved = Adaptation(offset=1.05 * theta.offset, mean_var=0.8 * theta.mean_var,
                           scale=theta.scale)
        first = run_ep_poisson(y, Identity(16, 16), adapt(base, theta), part, cfg)
        cold = run_ep_poisson(y, Identity(16, 16), adapt(base, moved), part, cfg)
        warm = run_ep_poisson(y, Identity(16, 16), adapt(base, moved), part, cfg, init=first)
        assert cold.converged and warm.converged
        assert warm.iterations < cold.iterations
        bound = 20 * np.sqrt(cfg.stop_tol * 256)
        assert np.linalg.norm(warm.mean - cold.mean) < bound
        assert np.linalg.norm(warm.marginal_var - cold.marginal_var) < bound
        assert np.linalg.norm(warm.u_mean - cold.u_mean) < bound


class TestStopRule:
    """Default-tolerance runs against the same runs at stop_tol 1e-14."""

    def test_stops_near_the_tight_run_and_no_later_than_the_step_rule(self):
        # 16x16 denoising at peaks 5 and 10 under Identity and under a Mask
        # that keeps 70% of the pixels, shifts 0 and 5.  The contraction
        # estimate is not a bound: the Identity runs at shift 0 stop after 5
        # iterations 1.3 (peak 5) and 1.8 (peak 10) stop_tol * N from the
        # fixed point in mean, as the squared step after the stop shrinks by
        # 0.03 where the last one shrank by 0.008 (peak 10).  On 80 runs
        # at 16x16 and 24x24, peaks 2-40, the estimate ended 8 runs 1.3-2.6
        # stop_tol * N away and the step rule none farther than 0.12; hence
        # the factor 3.  u_mean is compared on every pixel: at a masked pixel
        # u = Hx is 0 and u_mean reports 0, though its u factors, which never
        # reach the x side, still move when the x side stops
        from patchep.phantoms import extract_patches, make_phantom
        from patchep.pipeline import default_theta

        base = train_em(extract_patches(make_phantom(64, 64, seed=0), 4), 3,
                        max_iters=30, seed=0)
        mask = Mask(16, 16, np.random.default_rng(11).random(256) < 0.7)
        cfg, tight_cfg = EPConfig(), EPConfig(stop_tol=1e-14, max_iterations=500)
        limit = cfg.stop_tol * 256
        earlier = 0
        for peak in (5.0, 10.0):
            for op in (Identity(16, 16), mask):
                y = simulate(op, peak * make_phantom(16, 16, seed=1).ravel(),
                             PoissonNoise(), seed=1)
                adapted = adapt(base, default_theta(y, op, PoissonNoise()))
                for shift in (0, 5):
                    part = build_shifted_partitions(16, 16, 4)[shift]
                    run = run_ep_poisson(y, op, adapted, part, cfg)
                    tight = run_ep_poisson(y, op, adapted, part, tight_cfg)
                    assert run.converged and tight.converged
                    assert run.history == tight.history[:run.iterations]
                    assert np.sum((run.mean - tight.mean) ** 2) < 3 * limit
                    assert np.sum((run.marginal_var - tight.marginal_var) ** 2) < 3 * limit
                    assert np.sum((run.u_mean - tight.u_mean) ** 2) < 3 * limit
                    by_step = next(k for k, r in enumerate(tight.history, 1)
                                   if r["dm2"] < limit and r["dvar2"] < limit)
                    assert run.iterations <= by_step
                    earlier += run.iterations < by_step
        assert earlier >= 1


class TestUpdateOrder:
    """One Poisson EP iteration runs q_u0, q_x1, q_x0, sync, q_u1."""

    def test_resumed_round_stops_near_the_fixed_point(self):
        # an EP-EM round resumed after one M-step, at the default EPConfig.
        # An order that runs q_u1 before q_x0 (a one-iteration lag) stops
        # this run after two iterations, 3.6% off in variance
        from patchep.phantoms import extract_patches, make_phantom
        from patchep.pipeline import default_theta, epem_m_step

        base = train_em(extract_patches(make_phantom(64, 64, seed=0), 4), 3,
                        max_iters=30, seed=0)
        op, part = Identity(32, 32), build_shifted_partitions(32, 32, 4)[0]
        y = simulate(op, 20.0 * make_phantom(32, 32, seed=1).ravel(), PoissonNoise(), seed=1)
        theta = default_theta(y, op, PoissonNoise())
        first = run_ep_poisson(y, op, adapt(base, theta), part)
        theta = epem_m_step(first.weights, first.mean, first.cov, base, part, theta,
                            estimate_scale=False)
        warm = run_ep_poisson(y, op, adapt(base, theta), part, init=first)
        exact = run_ep_poisson(y, op, adapt(base, theta), part,
                               EPConfig(stop_tol=1e-14, max_iterations=500))
        assert warm.converged and exact.converged
        np.testing.assert_allclose(warm.mean, exact.mean, rtol=1e-3)
        np.testing.assert_allclose(warm.marginal_var, exact.marginal_var, rtol=1e-3)


class TestCouplingDamping:
    """q_u1 goes to its target until the run's dm2 rises, then is damped."""

    @staticmethod
    def monotone_problem():
        # 16x16 denoising at peak 10: dm2 falls on every iteration
        from patchep.phantoms import extract_patches, make_phantom
        from patchep.pipeline import default_theta

        base = train_em(extract_patches(make_phantom(64, 64, seed=0), 4), 3,
                        max_iters=30, seed=0)
        op = Identity(16, 16)
        y = simulate(op, 10.0 * make_phantom(16, 16, seed=1).ravel(), PoissonNoise(), seed=1)
        adapted = adapt(base, default_theta(y, op, PoissonNoise()))
        return y, op, adapted, build_shifted_partitions(16, 16, 4)[0]

    def test_falling_dm2_sets_q_u1_to_its_target(self, monkeypatch):
        # the first q_u1 update of a default-config run (damping 0.7) equals
        # the weight-1 update on copies of its inputs
        import copy

        y, op, adapted, part = self.monotone_problem()
        calls = []

        def spy(factors, state, operator, weight):
            target = copy.deepcopy(factors)
            update_q_u1(target, copy.deepcopy(state), operator, 1.0)
            update_q_u1(factors, state, operator, weight)
            calls.append((target, factors.prec_u1, factors.eta_u1))

        monkeypatch.setattr(ep_poisson, "update_q_u1", spy)
        res = run_ep_poisson(y, op, adapted, part)
        dm2 = [r["dm2"] for r in res.history]
        assert res.converged and all(b < a for a, b in zip(dm2, dm2[1:]))
        assert [r["damping"] for r in res.history] == [1.0] * res.iterations
        target, prec_u1, eta_u1 = calls[0]
        assert prec_u1 == target.prec_u1
        np.testing.assert_array_equal(eta_u1, target.eta_u1)

    def test_default_tolerance_stops_near_the_fixed_point(self):
        y, op, adapted, part = self.monotone_problem()
        run = run_ep_poisson(y, op, adapted, part)
        exact = run_ep_poisson(y, op, adapted, part,
                               EPConfig(stop_tol=1e-14, max_iterations=500))
        assert run.converged and exact.converged
        np.testing.assert_allclose(run.mean, exact.mean, rtol=1e-3)
        np.testing.assert_allclose(run.marginal_var, exact.marginal_var, rtol=1e-3)

    def test_rising_dm2_damps_the_rest_of_the_round(self, monkeypatch):
        # 32x32 denoising at peak 0.5, patch 4, four experts, three EM rounds:
        # undamped, some resumed rounds overshoot.  Each record holds the
        # weight its iteration's q_u1 update got
        from patchep.phantoms import extract_patches, make_phantom
        from patchep.pipeline import PipelineConfig, run_pipeline

        weights = []

        def spy(factors, state, operator, weight):
            weights.append(weight)
            update_q_u1(factors, state, operator, weight)

        monkeypatch.setattr(ep_poisson, "update_q_u1", spy)

        base = train_em(extract_patches(make_phantom(64, 64, seed=0), 4), 5,
                        max_iters=50, seed=0)
        op = Identity(32, 32)
        y = simulate(op, 0.5 * make_phantom(32, 32, seed=101).ravel(), PoissonNoise(), seed=1)
        cfg = PipelineConfig(patch_size=4, n_experts=4, outer_rounds=3, seed=1)
        out = run_pipeline(y, op, PoissonNoise(), base, cfg)
        assert all(e.converged for e in out.experts)
        assert weights == [i["damping"] for e in out.experts for r in e.rounds
                           for i in r["history"]]
        switched = 0
        for e in out.experts:
            for r in e.rounds:
                dm2 = [i["dm2"] for i in r["history"]]
                damping = [i["damping"] for i in r["history"]]
                k = next((i for i, d in enumerate(damping) if d != 1.0), len(damping))
                assert all(b <= a for a, b in zip(dm2[:k], dm2[1:k]))
                assert damping[k:] == [cfg.ep.damping] * (len(damping) - k)
                if k < len(damping):
                    assert k > 0 and dm2[k] > dm2[k - 1]
                    switched += 1
        assert switched >= 1
