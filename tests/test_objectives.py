"""Transform, weight, bound, and estimator tests with independent oracles."""

import itertools
import math

import numpy as np
import pytest

from passklab import (
    DomainError,
    SuccessProfile,
    fk,
    pass_at_k,
    pass_at_k_bounds,
    unbiased_pass_at_k,
    wk,
)
from passklab.objectives import fk_array, ordered_dot, weighted_row_sum, wk_array


def pow_oracle(base: float, n: int) -> float:
    """Repeated multiplication, the independent power oracle."""
    out = 1.0
    for _ in range(n):
        out *= base
    return out


def random_profile(rng, max_n=100):
    n = int(rng.integers(1, max_n + 1))
    probs = rng.random(n)
    raw = rng.random(n) + 1e-3
    return SuccessProfile(probs=probs, mass=raw / raw.sum(), ids=range(n))


class TestFk:
    def test_repeated_multiplication_oracle(self):
        expected = 1.0 - pow_oracle(0.9, 10)
        assert fk(0.10, 10) == pytest.approx(expected, rel=1e-12)
        assert fk(0.10, 10) == pytest.approx(0.6513215599, rel=1e-9)

    def test_k1_identity(self):
        assert fk(0.5, 1) == 0.5
        for p in np.linspace(0, 1, 17):
            assert fk(float(p), 1) == pytest.approx(p, abs=1e-15)

    def test_certain_success(self):
        assert fk(1.0, 7) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fk(-0.1, 3)
        with pytest.raises(DomainError):
            fk(1.1, 3)
        with pytest.raises(DomainError):
            fk(0.5, 0)
        with pytest.raises(DomainError):
            fk(float("nan"), 3)
        with pytest.raises(DomainError):
            fk(0.5, 10**6 + 1)

    def test_small_p_precision(self):
        # the expm1 route keeps tiny objective values fully accurate where
        # the cancelled form 1 - (1-p)**k would round at 1e-16 absolute
        assert fk(1e-12, 10) == pytest.approx(-math.expm1(10 * math.log1p(-1e-12)),
                                              rel=1e-14)
        assert fk(1e-12, 10) == pytest.approx(1e-11, rel=1e-9)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(0)
        p = rng.random(50)
        vec = fk_array(p, 6)
        for i in range(50):
            assert vec[i] == fk(float(p[i]), 6)


class TestWk:
    def test_paper_overlap_weights(self):
        # the hard prompt of the two-point example sits at p ~ 0.10
        assert wk(0.10, 10) == pytest.approx(3.874204890, rel=1e-9)
        # and the easy one at p ~ 0.86: oracle 10 * 0.14**9
        expected = 10.0 * pow_oracle(0.14, 9)
        assert wk(0.86, 10) == pytest.approx(expected, rel=1e-12)
        assert wk(0.86, 10) == pytest.approx(2.066e-7, rel=0.01)

    def test_endpoints(self):
        assert wk(0.0, 12) == 12.0
        assert wk(1.0, 12) == 0.0
        assert wk(0.3, 1) == 1.0

    def test_weight_range_and_iff_laws(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = float(rng.random())
            k = int(rng.integers(1, 40))
            w = wk(p, k)
            assert 0.0 <= w <= k
            if k >= 2:
                assert (w == 0.0) == (p == 1.0)
            assert (w == k) == (p == 0.0 or k == 1)

    def test_derivative_of_fk(self):
        # central differences at h=1e-6, relative 1e-6, p in [0.01, 0.99];
        # only where the weight exceeds the fd resolution floor (~1e-16/2h),
        # since fk saturates at 1.0 in float64 once (1-p)**k < 1e-16
        rng = np.random.default_rng(2)
        h = 1e-6
        checked = 0
        while checked < 200:
            p = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(1, 33))
            if wk(p, k) < 1e-4:
                continue
            fd = (fk(p + h, k) - fk(p - h, k)) / (2 * h)
            assert fd == pytest.approx(wk(p, k), rel=1e-6)
            checked += 1

    def test_representable_at_extreme_disparity(self):
        # weights around 1e-28 must survive, not flush to zero
        w = wk(0.875, 32)
        assert 0.0 < w < 1e-26
        assert w == pytest.approx(32 * pow_oracle(0.125, 31), rel=1e-12)


class TestSuccessProfile:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            SuccessProfile(probs=np.array([1.2]), mass=np.array([1.0]), ids=("a",))
        with pytest.raises(DomainError):
            SuccessProfile(
                probs=np.array([0.5, 0.5]), mass=np.array([0.6, 0.6]), ids=("a", "b")
            )
        with pytest.raises(DomainError):
            SuccessProfile(probs=np.array([]), mass=np.array([]), ids=())
        with pytest.raises(DomainError):
            SuccessProfile(probs=np.array([0.5]), mass=np.array([1.0]), ids=("a", "b"))
        with pytest.raises(DomainError):
            SuccessProfile(probs=np.full(3, 0.5), mass=[0.5, np.nan, 0.5], ids="abc")

    def test_uniform_constructor(self):
        prof = SuccessProfile.uniform([0.2, 0.4, 0.9])
        assert prof.mass == pytest.approx([1 / 3] * 3)
        assert prof.ids == ("0", "1", "2")

    def test_uniform_mass_sums_to_one_at_a_million_prompts(self):
        # sequential summation drifts past 1e-12 from n = 10**5 on
        prof = SuccessProfile.uniform(np.full(10**6, 0.5))
        assert len(prof) == 10**6


class TestReductionPrimitives:
    def test_ordered_dot_is_the_correctly_rounded_sum(self):
        # summed left to right, 1e16 + 1 rounds back to 1e16 and the 1 is lost
        a = np.array([1e16, 1.0, -1e16, 3.0])
        assert ordered_dot(a, np.ones(4)) == 4.0
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=1000), rng.normal(size=1000)
        perm = rng.permutation(1000)
        assert ordered_dot(x, y) == ordered_dot(x[perm], y[perm])
        assert ordered_dot(x, y) == math.fsum((x * y).tolist())

    def test_ordered_dot_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            ordered_dot([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("n,d", [(1, 2), (6000, 2), (10**5, 2), (17000, 256)])
    def test_weighted_row_sum_matches_ascending_loop_bit_for_bit(self, n, d):
        rng = np.random.default_rng(n + d)
        coef = rng.random(n) / n
        rows = rng.normal(size=(n, d))
        expected = np.zeros(d)
        for i in range(n):
            expected += coef[i] * rows[i]
        got = weighted_row_sum(coef, rows)
        assert got.shape == (d,)
        assert got.tobytes() == expected.tobytes()


class TestPassAtK:
    def test_two_point_paper_values(self):
        prof = SuccessProfile.uniform([0.86, 0.10])
        assert pass_at_k(prof, 1) == pytest.approx(0.48, abs=1e-12)
        assert pass_at_k(prof, 10) == pytest.approx(0.83, abs=0.01)

    def test_k1_is_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            prof = random_profile(rng)
            assert pass_at_k(prof, 1) == pytest.approx(
                float(prof.mass @ prof.probs), rel=1e-12
            )

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            prof = random_profile(rng, max_n=30)
            k = int(rng.integers(1, 20))
            m = k + int(rng.integers(0, 20))
            assert pass_at_k(prof, m) >= pass_at_k(prof, k) - 1e-12

    def test_jensen_sandwich(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            prof = random_profile(rng, max_n=30)
            k = int(rng.integers(1, 33))
            value = pass_at_k(prof, k)
            lo, hi = pass_at_k_bounds(pass_at_k(prof, 1), k)
            assert lo - 1e-12 <= value <= hi + 1e-12


class TestPassAtKBounds:
    def test_values(self):
        lo, hi = pass_at_k_bounds(0.48, 10)
        assert lo == 0.48
        assert hi == pytest.approx(1.0 - pow_oracle(0.52, 10), rel=1e-12)
        assert pass_at_k_bounds(0.0, 5) == (0.0, 0.0)
        assert pass_at_k_bounds(1.0, 3) == (1.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            pass_at_k_bounds(1.5, 3)


def enumeration_oracle(n: int, c: int, k: int) -> float:
    """Fraction of k-subsets of {c successes, n-c failures} hitting a success."""
    items = [1] * c + [0] * (n - c)
    subsets = list(itertools.combinations(range(n), k))
    hits = sum(1 for sub in subsets if any(items[i] for i in sub))
    return hits / len(subsets)


class TestUnbiasedPassAtK:
    def test_trivial_cases(self):
        assert unbiased_pass_at_k(4, 0, 2) == 0.0
        assert unbiased_pass_at_k(4, 4, 1) == 1.0

    def test_enumeration_oracle_spot(self):
        assert unbiased_pass_at_k(6, 2, 3) == pytest.approx(
            enumeration_oracle(6, 2, 3), rel=1e-12
        )

    def test_enumeration_oracle_exhaustive(self):
        for n in range(1, 11):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    assert unbiased_pass_at_k(n, c, k) == pytest.approx(
                        enumeration_oracle(n, c, k), abs=1e-12
                    ), (n, c, k)

    def test_returns_one_when_failures_below_k(self):
        assert unbiased_pass_at_k(10, 8, 3) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            unbiased_pass_at_k(4, 5, 2)
        with pytest.raises(DomainError):
            unbiased_pass_at_k(4, 2, 5)
        with pytest.raises(DomainError):
            unbiased_pass_at_k(4, 2, 0)

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 5, 32])
    def test_unbiased_against_binomial_draws(self, p, k):
        # 3 standard errors with the SE taken from the exact sampling
        # distribution (enumeration over c), plus a 1e-12 allowance for
        # float accumulation in the sample mean
        n = 64
        rng = np.random.default_rng(int(p * 1000) * 100 + k)
        cs = rng.binomial(n, p, size=10_000)
        estimates = np.array([unbiased_pass_at_k(n, int(c), k) for c in cs])
        pmf = np.array(
            [math.comb(n, c) * p**c * (1 - p) ** (n - c) for c in range(n + 1)]
        )
        values = np.array([unbiased_pass_at_k(n, c, k) for c in range(n + 1)])
        exact_mean = float(pmf @ values)
        exact_sd = math.sqrt(float(pmf @ (values - exact_mean) ** 2))
        se = exact_sd / math.sqrt(estimates.size)
        target = fk(p, k)
        assert exact_mean == pytest.approx(target, abs=1e-12)  # true unbiasedness
        assert abs(estimates.mean() - target) <= 3 * se + 1e-12


class TestArrayHelpers:
    def test_wk_array_matches_scalar(self):
        rng = np.random.default_rng(6)
        p = rng.random(64)
        w = wk_array(p, 9)
        for i in range(64):
            assert w[i] == wk(float(p[i]), 9)
