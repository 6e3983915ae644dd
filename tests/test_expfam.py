"""Exponential-family conversions, log-partitions, KL, and sampling.

Oracles used here are independent of the implementation: Monte Carlo moments
drawn with scipy.stats, central finite differences of the log-partition, and
closed-form textbook expressions rederived inline.
"""

import numpy as np
import pytest
from scipy import special, stats

from structvi import expfam
from structvi.errors import InvalidParameterError


def random_dirichlet(rng, k):
    return expfam.DirichletParam(alpha=rng.uniform(0.5, 5.0, size=k))


def random_normal_wishart(rng, d):
    a = rng.standard_normal((d, d))
    scale = a @ a.T + d * np.eye(d)
    return expfam.NormalWishartParam(
        mean=rng.standard_normal(d),
        kappa=rng.uniform(0.5, 4.0),
        scale=scale,
        dof=d + rng.uniform(1.0, 5.0),
    )


def all_random_params(seed):
    rng = np.random.default_rng(seed)
    return [
        random_dirichlet(rng, 3),
        random_dirichlet(rng, 5),
        random_normal_wishart(rng, 1),
        random_normal_wishart(rng, 2),
        random_normal_wishart(rng, 3),
    ]


class TestLogPartition:
    def test_dirichlet_uniform_is_zero(self):
        """log B(1,1) = 0 exactly."""
        nat = expfam.to_natural_vector(expfam.DirichletParam(alpha=np.ones(2)))
        assert expfam.log_partition(nat) == pytest.approx(0.0, abs=1e-14)

    def test_dirichlet_matches_log_beta(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            alpha = rng.uniform(0.3, 6.0, size=4)
            nat = expfam.to_natural_vector(expfam.DirichletParam(alpha=alpha))
            expect = np.sum(special.gammaln(alpha)) - special.gammaln(alpha.sum())
            assert expfam.log_partition(nat) == pytest.approx(expect, rel=1e-12)

    def test_normal_wishart_d1_matches_normal_gamma(self):
        """In one dimension the family is Normal-Gamma with shape nu/2, rate 1/(2 W).

        A_NG = lgamma(a) - a log b + 0.5 log(2 pi / kappa).
        """
        rng = np.random.default_rng(7)
        for _ in range(8):
            p = random_normal_wishart(rng, 1)
            a = p.dof / 2.0
            b = 1.0 / (2.0 * p.scale[0, 0])
            expect = special.gammaln(a) - a * np.log(b) + 0.5 * np.log(2 * np.pi / p.kappa)
            got = expfam.log_partition(expfam.to_natural_vector(p))
            assert got == pytest.approx(expect, rel=1e-12)

    def test_normal_wishart_normalizes_by_quadrature_d1(self):
        """exp(-A) integrates the unnormalized density to one (d = 1)."""
        p = expfam.NormalWishartParam(
            mean=np.array([0.4]), kappa=1.3, scale=np.array([[0.8]]), dof=3.5
        )
        nat = expfam.to_natural_vector(p)
        log_a = expfam.log_partition(nat)
        mus = np.linspace(-12, 12, 1201)
        lams = np.linspace(1e-6, 60, 3001)
        mm, ll = np.meshgrid(mus, lams, indexing="ij")
        # density in (mu, lam): exp(<eta, T>) with T = (lam mu, -lam mu^2/2, -lam/2, log(lam)/2)
        e1, e2, e3, e4 = nat.values[0], nat.values[1], nat.values[2], nat.values[3]
        logf = e1 * ll * mm - 0.5 * e2 * ll * mm**2 - 0.5 * e3 * ll + 0.5 * e4 * np.log(ll)
        total = np.trapezoid(np.trapezoid(np.exp(logf - log_a), lams, axis=1), mus)
        assert total == pytest.approx(1.0, abs=5e-4)


class TestMeanCoordinates:
    def test_dirichlet_uniform(self):
        """E[log pi] = (psi(1) - psi(2)) = -1 for alpha = (1, 1)."""
        nat = expfam.to_natural_vector(expfam.DirichletParam(alpha=np.ones(2)))
        mean = expfam.to_mean(nat)
        np.testing.assert_allclose(mean.values, [-1.0, -1.0], atol=1e-12)

    def test_gradient_of_log_partition(self):
        """Central differences of A recover the mean coordinates, every family."""
        for nat_src in all_random_params(5):
            nat = expfam.to_natural_vector(nat_src)
            mean = expfam.to_mean(nat)
            h = 1e-6
            for i in range(nat.values.size):
                up = nat.values.copy()
                dn = nat.values.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    expfam.log_partition(nat.replace_values(up))
                    - expfam.log_partition(nat.replace_values(dn))
                ) / (2 * h)
                assert fd == pytest.approx(mean.values[i], rel=2e-5, abs=2e-6), (
                    nat.family,
                    i,
                )

    def test_normal_wishart_moments_monte_carlo(self):
        """Mean coordinates match scipy-drawn Monte Carlo moments within 4 sigma."""
        rng = np.random.default_rng(21)
        p = expfam.NormalWishartParam(
            mean=np.array([0.5, -1.0]),
            kappa=2.0,
            scale=np.array([[1.0, 0.3], [0.3, 0.7]]),
            dof=5.0,
        )
        nat = expfam.to_natural_vector(p)
        mean = expfam.to_mean(nat)
        n = 200_000
        lam = stats.wishart.rvs(df=p.dof, scale=p.scale, size=n, random_state=rng)
        z = rng.standard_normal((n, 2))
        # mu | lam ~ N(m, inv(kappa lam)); draw via cholesky of the covariance
        cov = np.linalg.inv(p.kappa * lam)
        chol = np.linalg.cholesky(cov)
        mu = p.mean + np.einsum("nij,nj->ni", chol, z)
        t1 = np.einsum("nij,nj->ni", lam, mu)
        t2 = -0.5 * np.einsum("ni,nij,nj->n", mu, lam, mu)
        t3 = -0.5 * lam
        _, ld = np.linalg.slogdet(lam)
        t4 = 0.5 * ld
        d = 2
        got1, got2, got3, got4 = expfam.split_normal_wishart(mean.values, d)
        for est, got in [
            (t1.mean(0), got1),
            (np.array([t2.mean()]), got2),
            (t3.mean(0).ravel(), np.asarray(got3).ravel()),
            (np.array([t4.mean()]), got4),
        ]:
            se = 4.0 / np.sqrt(n)
            scalefree = np.maximum(1.0, np.abs(got))
            np.testing.assert_allclose(est, got, atol=float(np.max(scalefree)) * se * 4)


class TestRoundTrip:
    def test_standard_natural_standard(self):
        rng = np.random.default_rng(3)
        p = random_normal_wishart(rng, 2)
        q = expfam.to_standard(expfam.to_natural_vector(p))
        np.testing.assert_allclose(q.mean, p.mean, rtol=1e-12)
        np.testing.assert_allclose(q.kappa, p.kappa, rtol=1e-12)
        np.testing.assert_allclose(q.scale, p.scale, rtol=1e-10)
        np.testing.assert_allclose(q.dof, p.dof, rtol=1e-12)


class TestKl:
    def test_self_kl_zero(self):
        for src in all_random_params(13):
            nat = expfam.to_natural_vector(src)
            assert expfam.kl_divergence(nat, nat) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for d in (1, 2, 3):
            q = expfam.to_natural_vector(random_normal_wishart(rng, d))
            p = expfam.to_natural_vector(random_normal_wishart(rng, d))
            assert expfam.kl_divergence(q, p) > -1e-12

    def test_dirichlet_closed_form(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(0.5, 4.0, size=4)
        b = rng.uniform(0.5, 4.0, size=4)
        qn = expfam.to_natural_vector(expfam.DirichletParam(alpha=a))
        pn = expfam.to_natural_vector(expfam.DirichletParam(alpha=b))
        a0, b0 = a.sum(), b.sum()
        expect = (
            special.gammaln(a0)
            - np.sum(special.gammaln(a))
            - special.gammaln(b0)
            + np.sum(special.gammaln(b))
            + np.sum((a - b) * (special.digamma(a) - special.digamma(a0)))
        )
        assert expfam.kl_divergence(qn, pn) == pytest.approx(expect, rel=1e-10)


class TestSampling:
    def test_dirichlet_moments(self):
        rng = np.random.default_rng(43)
        alpha = np.array([2.0, 1.0, 4.0])
        nat = expfam.to_natural_vector(expfam.DirichletParam(alpha=alpha))
        draws = np.stack([expfam.sample(nat, rng) for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(0), alpha / alpha.sum(), atol=0.01)
        assert np.all(draws > 0)
        np.testing.assert_allclose(draws.sum(1), 1.0, atol=1e-12)

    def test_normal_wishart_moments(self):
        """Sampled E[lam] ~ nu W and E[mu] ~ m within Monte Carlo error, with
        lam = L^-T L^-1 for the drawn covariance factor L."""
        rng = np.random.default_rng(47)
        p = expfam.NormalWishartParam(
            mean=np.array([1.0, 2.0]),
            kappa=3.0,
            scale=np.array([[0.5, 0.1], [0.1, 0.4]]),
            dof=6.0,
        )
        nat = expfam.to_natural_vector(p)
        mus, lams = [], []
        for _ in range(20000):
            mu, chol = expfam.sample(nat, rng)
            chol_inv = np.linalg.inv(chol)
            mus.append(mu)
            lams.append(chol_inv.T @ chol_inv)
        np.testing.assert_allclose(np.mean(mus, axis=0), p.mean, atol=0.02)
        np.testing.assert_allclose(np.mean(lams, axis=0), p.dof * p.scale, rtol=0.03)

    def test_normal_wishart_mean_covariance(self):
        """At d = 3, E[Sigma] = inv(W) / (nu - d - 1) for Sigma = L L^T and
        Cov[mu] = E[Sigma] / kappa, each entry within five of its Monte Carlo
        standard errors, and every drawn L is lower-triangular with a
        positive diagonal.  The mean's shift is L z, so this checks the
        factor the sampler builds, which E[mu] and E[Lam] do not."""
        rng = np.random.default_rng(53)
        n, d = 40000, 3
        p = random_normal_wishart(rng, d)
        p = expfam.NormalWishartParam(p.mean, p.kappa, p.scale, dof=12.0)
        one = expfam.to_natural_vector(p)
        mus, chols = expfam.sample(one.replace_values(np.tile(one.values, (n, 1))), rng)
        np.testing.assert_array_equal(chols, np.tril(chols))
        assert np.all(np.diagonal(chols, axis1=1, axis2=2) > 0)
        want_sigma = np.linalg.inv(p.scale) / (p.dof - d - 1)
        u = mus - p.mean
        for draws, want in (
            (chols @ chols.swapaxes(1, 2), want_sigma),
            (u[:, :, None] * u[:, None, :], want_sigma / p.kappa),
        ):
            err = np.abs(draws.mean(axis=0) - want)
            assert np.all(err < 5.0 * draws.std(axis=0) / np.sqrt(n))


class TestConjugacy:
    def test_gaussian_obs_update_is_natural_addition(self):
        """Adding (sum x, n, sum xx^T, n) to the naturals gives the exact posterior."""
        rng = np.random.default_rng(53)
        d = 2
        prior = expfam.NormalWishartParam(
            mean=np.zeros(d), kappa=0.1, scale=np.eye(d), dof=d + 2.0
        )
        x = rng.standard_normal((40, d)) + np.array([1.0, -2.0])
        n = float(len(x))
        nat = expfam.to_natural_vector(prior)
        stats_vec = expfam.pack_normal_wishart(
            x.sum(0), np.array([n]), x.T @ x, np.array([n])
        )
        post = expfam.to_standard(nat.replace_values(nat.values + stats_vec))

        xbar = x.mean(0)
        kappa_n = prior.kappa + n
        m_n = (prior.kappa * prior.mean + n * xbar) / kappa_n
        nu_n = prior.dof + n
        s = (x - xbar).T @ (x - xbar)
        winv_n = (
            np.linalg.inv(prior.scale)
            + s
            + (prior.kappa * n / kappa_n) * np.outer(xbar - prior.mean, xbar - prior.mean)
        )
        np.testing.assert_allclose(post.kappa, kappa_n, rtol=1e-12)
        np.testing.assert_allclose(post.mean, m_n, rtol=1e-10)
        np.testing.assert_allclose(post.dof, nu_n, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.inv(post.scale), winv_n, rtol=1e-9)


class TestDomainChecks:
    def test_dirichlet_rejects_nonpositive_alpha(self):
        with pytest.raises(InvalidParameterError):
            expfam.to_natural_vector(expfam.DirichletParam(alpha=np.array([1.0, 0.0])))

    def test_natural_domain_validation(self):
        nat = expfam.to_natural_vector(expfam.DirichletParam(alpha=np.array([2.0, 3.0])))
        bad = nat.replace_values(np.array([-1.5, 1.0]))
        assert not expfam.in_natural_domain(bad)
        assert expfam.in_natural_domain(nat)


class TestStacks:
    """A (K, block) Normal-Wishart stack against K single-member calls."""

    @staticmethod
    def stack(members):
        return members[0].replace_values(np.stack([m.values for m in members]))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_matches_member_calls(self, k, d):
        rng = np.random.default_rng(60 + 10 * k + d)
        qs = [expfam.to_natural_vector(random_normal_wishart(rng, d)) for _ in range(k)]
        ps = [expfam.to_natural_vector(random_normal_wishart(rng, d)) for _ in range(k)]
        q, p = self.stack(qs), self.stack(ps)

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12)

        got = expfam.to_standard(q)
        for j, member in enumerate(qs):
            want = expfam.to_standard(member)
            for field in ("mean", "kappa", "scale", "dof"):
                close(getattr(got, field)[j], getattr(want, field))
        close(expfam.to_mean(q).values, np.stack([expfam.to_mean(m).values for m in qs]))
        close(expfam.log_partition(q), [expfam.log_partition(m) for m in qs])
        close(
            expfam.kl_divergence(q, p),
            [expfam.kl_divergence(a, b) for a, b in zip(qs, ps)],
        )
        assert expfam.in_natural_domain(q)
        assert all(expfam.in_natural_domain(m) for m in qs)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("defect", ["kappa", "scale", "dof"])
    def test_one_invalid_member_puts_the_stack_out_of_domain(self, d, defect):
        rng = np.random.default_rng(80 + d)
        members = [expfam.to_natural_vector(random_normal_wishart(rng, d)) for _ in range(3)]
        vals = self.stack(members).values.copy()
        if defect == "kappa":
            vals[1, d] = -1.0
        elif defect == "scale":
            vals[1, d + 1 : d + 1 + d * d] *= -1.0
        else:
            vals[1, -1] = -2.0
        bad = members[0].replace_values(vals)
        assert not expfam.in_natural_domain(bad)
        with pytest.raises(InvalidParameterError):
            expfam.to_standard(bad)

    def test_single_member_maps_factor_once(self, monkeypatch):
        nat = expfam.to_natural_vector(random_normal_wishart(np.random.default_rng(71), 2))
        calls = []
        chol = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda *a: calls.append(1) or chol(*a))
        expfam.to_mean(nat)
        assert len(calls) == 1
        expfam.log_partition(nat)
        assert len(calls) == 2


class TestSpecialFunctions:
    """The gamma-family special functions the module leans on."""

    def test_digamma_recurrence(self):
        x = np.geomspace(1e-3, 1e6, 400)
        lhs = special.digamma(x + 1.0)
        rhs = special.digamma(x) + 1.0 / x
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_gammaln_recurrence(self):
        x = np.geomspace(1e-3, 1e6, 400)
        np.testing.assert_allclose(
            special.gammaln(x + 1.0), special.gammaln(x) + np.log(x), rtol=1e-12, atol=1e-12
        )

    def test_digamma_reflection(self):
        x = np.linspace(0.05, 0.95, 19)
        lhs = special.digamma(1.0 - x) - special.digamma(x)
        rhs = np.pi / np.tan(np.pi * x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)
