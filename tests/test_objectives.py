"""Transform, weight, bound, and estimator tests with independent oracles."""

import itertools
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

# numpy 2 keeps its C core in numpy._core, numpy 1.x in numpy.core
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from passklab import (
    DomainError,
    SuccessProfile,
    fk,
    pass_at_k,
    pass_at_k_bounds,
    unbiased_pass_at_k,
    wk,
)
from passklab import objectives
from passklab.objectives import (
    EXTRACT_PASSES,
    MAX_K,
    fk_array,
    ordered_dot,
    weighted_row_sum,
    wk_array,
)

from oracles import exact_form_mismatches


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
        for k in (2.5, 3.0, True, "3"):
            with pytest.raises(DomainError, match="k must be an integer"):
                fk_array(np.array([0.5]), k)

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

    def test_mass_sum_past_the_float_range(self):
        # used to escape as OverflowError from the exact sum
        with pytest.raises(DomainError, match="mass must sum to 1 within 1e-12"):
            SuccessProfile(probs=[0.5, 0.5], mass=[1e308, 1e308], ids=("a", "b"))

    def test_repeated_id_refused(self):
        # this built, and a report over it had rows that no id named.  Ids
        # are checked once per tuple object and a refused tuple is never
        # kept, so each refusal holds on every call, also right after a
        # valid tuple equal to it passed
        wild = (Wild(), Wild())
        assert wild == ("a", "b")
        for _ in range(2):
            SuccessProfile.uniform([0.5, 0.1], ids=("a", "b"))
            with pytest.raises(DomainError, match="prompt id 'a' appears more than once"):
                SuccessProfile.uniform([0.5, 0.1], ids=("a", "a"))
            with pytest.raises(DomainError, match="prompt id 3 appears more than once"):
                SuccessProfile(probs=[0.5] * 3, mass=[0.25, 0.5, 0.25], ids=(3, 1, 3))
            with pytest.raises(DomainError, match=r"prompt id Wild\(\) appears more than once"):
                SuccessProfile.uniform([0.5, 0.1], ids=wild)
            with pytest.raises(DomainError, match="prompt ids must be hashable"):
                SuccessProfile.uniform([0.5], ids=(["a"],))
        assert SuccessProfile.uniform([0.5, 0.1], ids=range(2)).ids == (0, 1)

    def test_uniform_constructor(self):
        prof = SuccessProfile.uniform([0.2, 0.4, 0.9])
        assert prof.mass == pytest.approx([1 / 3] * 3)
        assert prof.ids == ("0", "1", "2")

    def test_uniform_needs_a_prompt(self):
        with pytest.raises(DomainError, match="nonempty"):
            SuccessProfile.uniform([])

    def test_uniform_mass_sums_to_one_at_a_million_prompts(self):
        # sequential summation drifts past 1e-12 from n = 10**5 on
        prof = SuccessProfile.uniform(np.full(10**6, 0.5))
        assert len(prof) == 10**6


def fuzz_family(rng, family: int, n: int):
    """(a, b) of length n (2n for family 2) from one of five families of
    hard sums."""

    def mantissas(n):
        return rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)

    if family == 0:  # exponents anywhere in -1074..1000
        lo, hi = np.sort(rng.integers(-1074, 1001, size=2))
        a = np.ldexp(mantissas(n), rng.integers(lo, hi + 1, size=n))
    elif family == 1:  # a narrow range
        e = int(rng.integers(-1000, 900))
        a = np.ldexp(mantissas(n), rng.integers(e, e + 8, size=n))
    elif family == 2:  # x and -x + tiny: near-total cancellation
        x = np.ldexp(mantissas(n), rng.integers(-500, 500, size=n))
        tiny = math.ldexp(1.0, int(rng.integers(-1074, -500)))
        a = rng.permutation(np.concatenate([x, -x + tiny]))
    elif family == 3:  # subnormals only
        a = rng.integers(-(2**52), 2**52, size=n) * 5e-324
    else:  # mass * weight products, with signed zeros mixed in
        a = rng.random(n) / n
        a[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
    b = np.ones(a.size) if family < 4 else rng.normal(size=n) ** 9
    return a, b


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
        # 10^5 terms spanning ~600 binades, in two orders
        x = np.ldexp(rng.normal(size=10**5), rng.integers(-300, 300, size=10**5))
        y = rng.random(10**5)
        perm = rng.permutation(10**5)
        assert ordered_dot(x, y) == ordered_dot(x[perm], y[perm])
        assert ordered_dot(x, y) == math.fsum((x * y).tolist())

    def test_ordered_dot_matches_fsum_bit_for_bit_on_fuzzed_vectors(self):
        # float.hex tells -0.0 from 0.0, so the sign of a zero sum counts
        rng = np.random.default_rng(11)
        for trial in range(6000):
            n = 1 if trial % 10 == 0 else int(rng.integers(2, 400))
            a, b = fuzz_family(rng, trial % 5, n)
            got, want = ordered_dot(a, b), math.fsum((a * b).tolist())
            assert got.hex() == want.hex(), (trial, trial % 5)

    @pytest.mark.parametrize("n", [1000, 10**4, 10**5])
    def test_ordered_dot_matches_fsum_on_fuzz_families_at_scale(self, n):
        rng = np.random.default_rng(n)
        for trial in range(10):
            a, b = fuzz_family(rng, trial % 5, n)
            got, want = ordered_dot(a, b), math.fsum((a * b).tolist())
            assert got.hex() == want.hex(), (n, trial)

    @pytest.mark.parametrize("n", [2, 6, 6000])
    def test_ordered_dot_remainder_on_the_derived_bound(self, n):
        # With top = 1, pass 1 runs at sigma = 2**(M + 1) and h = ulp(sigma) / 2.
        # sigma + (2j + 1) h is a tie, so every odd multiple of h leaves a
        # remainder of exactly +-h, and h = sigma' / 2**M for the derived
        # sigma' = 2**(M - 53) sigma: pass 2 starts with max|x| on its bound.
        shift = (n + 1).bit_length()
        sigma = 2.0 ** (shift + 1)
        h = sigma * 2.0**-53
        rng = np.random.default_rng(n)
        x = np.concatenate([[1.0], (2 * rng.integers(0, 2**20, n - 1) + 1) * h])
        remainder = x - ((sigma + x) - sigma)
        assert np.abs(remainder).max() == math.ldexp(sigma, shift - 53) / 2**shift
        for a in (x, -x, rng.permutation(x), np.append(x[:-1], 3 * 2.0**-1070)):
            got, want = ordered_dot(a, np.ones(n)), math.fsum(a.tolist())
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("side", ["all-negative", "min-dominates", "max-dominates"])
    def test_ordered_dot_matches_fsum_on_one_sided_products(self, side):
        # max|x| is taken from whichever end of the products is larger
        rng = np.random.default_rng(len(side))
        for trial in range(400):
            n = int(rng.integers(1, 300))
            e = int(rng.integers(-900, 900))
            x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(e - 40, e + 1, size=n))
            if side == "all-negative":
                x = -x
            else:
                if side == "max-dominates":
                    x[rng.random(n) < 0.3] *= -1.0
                big = math.ldexp(float(rng.uniform(0.5, 1.0)), e + int(rng.integers(10, 60)))
                x[rng.integers(n)] = -big if side == "min-dominates" else big
            b = np.ldexp(1.0, rng.integers(-3, 4, size=n))
            got, want = ordered_dot(x, b), math.fsum((x * b).tolist())
            assert got.hex() == want.hex(), (side, trial)

    @pytest.mark.parametrize("n", [14, 254, 8190])
    def test_ordered_dot_second_pass_fills_its_bound(self, n):
        # n = 2**M - 2.  The pass-1 parts cancel, and each x = (2 - v) h
        # leaves -v h, with v in (1/2, 1) to the last bit, so the second pass
        # sums n - 4 remainders near sigma' / 2**M, most of the way to sigma'.
        # A sigma' half as large would round that sum, and fsum would differ.
        shift = (n + 1).bit_length()
        h = 2.0 ** (shift + 1 - 53)
        rng = np.random.default_rng(n)
        for trial in range(50):
            tail = h * (2.0 - rng.uniform(0.5, 1.0, n - 4))
            a = rng.permutation(np.concatenate([[1.0, -1.0, -h * (n - 4), -h * (n - 4)], tail]))
            got, want = ordered_dot(a, np.ones(n)), math.fsum(a.tolist())
            assert got.hex() == want.hex(), trial

    def test_ordered_dot_takes_every_pass_and_the_remainder(self, monkeypatch):
        # Each level lies below the previous pass's resolution, so pass j
        # extracts level j alone; the last pass extracts a pair that cancels,
        # and only the remainder after EXTRACT_PASSES (two equal tails, which
        # a further pass would add into one) breaks the tie of 1 + 2**-53
        # upward.
        levels = [1.0, 2.0**-53]
        for j in range(1, EXTRACT_PASSES - 1):
            levels += [2.0 ** (-53 - 57 * j), -(2.0 ** (-53 - 57 * j))]
        tails = [2.0 ** (-53 - 57 * (EXTRACT_PASSES - 1))] * 2
        assert math.fsum(levels) == 1.0 and math.fsum(levels + tails) > 1.0
        rounded = []  # what the final fsum sees: one sum per pass, then the remainder
        fsum = types.SimpleNamespace(
            **{**vars(math), "fsum": lambda v: rounded.append(list(v)) or math.fsum(v)}
        )
        with monkeypatch.context() as patch:
            patch.setattr(objectives, "math", fsum)
            ordered_dot(np.array(levels + tails), np.ones(len(levels) + 2))
        assert rounded == [[1.0, 2.0**-53, *[0.0] * (EXTRACT_PASSES - 2), *tails]]
        rng = np.random.default_rng(3)
        for trial in range(200):
            scale = math.ldexp(float(rng.choice([-1.0, 1.0])), int(rng.integers(-600, 600)))
            a = rng.permutation(np.array(levels + tails) * scale)
            got, want = ordered_dot(a, np.ones(a.size)), math.fsum(a.tolist())
            assert got.hex() == want.hex() and got != math.fsum(levels) * scale, trial

    @pytest.mark.parametrize(
        "case", ["integers", "bits-times-powers-of-two", "one-element", "signed-zeros"]
    )
    def test_ordered_dot_on_a_remainder_zero_after_one_pass(self, monkeypatch, case):
        # Every product is a multiple of pass 1's resolution, so pass 1 takes
        # all of it; the second pass then finds the remainder zero and adds 0.
        rng = np.random.default_rng(len(case))
        a, b = {
            "integers": (rng.integers(-1000, 1000, 50), rng.integers(-1000, 1000, 50)),
            "bits-times-powers-of-two": (
                rng.integers(0, 2, 64), np.ldexp(1.0, rng.integers(-20, 1, 64))
            ),
            "one-element": ([3.0], [-0.5]),
            "signed-zeros": ([0.0, -0.0, 2.5, -0.0, 0.0], [1.0, 1.0, -3.0, -1.0, 7.0]),
        }[case]
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        rounded = []
        fsum = types.SimpleNamespace(
            **{**vars(math), "fsum": lambda v: rounded.append(list(v)) or math.fsum(v)}
        )
        with monkeypatch.context() as patch:
            patch.setattr(objectives, "math", fsum)
            got = ordered_dot(a, b)
        want = math.fsum((a * b).tolist())
        assert got.hex() == want.hex() != 0.0.hex()
        assert rounded == [[want, 0.0]]

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [-0.0],
            [-0.0, -0.0],
            [0.0, -0.0],
            [5e-324, -5e-324],
            [1.0, 1e-16, 1e-16],
            [1.0, math.inf],
            [-math.inf, 2.0, -1.0],
            [1.0, math.nan],
            [math.inf, math.nan],
        ],
    )
    def test_ordered_dot_edge_cases_match_fsum(self, values):
        a = np.array(values, dtype=float)
        got, want = ordered_dot(a, np.ones(a.size)), math.fsum(values)
        assert got.hex() == want.hex()

    def test_ordered_dot_overflows_like_fsum(self):
        values = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError) as want:
            math.fsum(values)
        with pytest.raises(OverflowError) as got:
            ordered_dot(values, np.ones(3))
        assert str(got.value) == str(want.value)

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


ALL_KS = (*range(1, 65), MAX_K)
SPOT_KS = (1, 2, 3, 5, 7, 10, 33, 64, MAX_K)


class TestExactForms:
    """The branch-free transforms and in-place ordered_dot give the bits of
    the masked and allocating forms in tests/oracles.py.  With warnings as
    errors, this also shows that the branch np.where drops raises none."""

    def test_every_k_on_edge_and_random_probabilities(self):
        assert exact_form_mismatches(13, 2**14, ALL_KS, range(1, 5001, 3)) == []

    def test_a_million_probabilities(self):
        assert exact_form_mismatches(14, 10**6, SPOT_KS, ()) == []


# The child reruns the comparison with numpy's dispatched SIMD levels cut
# down; the variable is set on the child only.
SIMD_CHILD = """
import sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from oracles import exact_form_mismatches
from passklab.objectives import MAX_K
off = [name for name in sys.argv[1].split() if __cpu_features__[name]]
assert not off, f"still enabled: {off}"
bad = exact_form_mismatches(15, 2**14, (*range(1, 65), MAX_K), range(1, 5001, 13))
sys.exit("\\n".join(bad) or None)
"""
SIMD_LEVELS = (("X86_V4", "AVX512_ICL", "AVX512_SPR"),
               ("X86_V4", "AVX512_ICL", "AVX512_SPR", "X86_V3"))


class TestExactFormsAtEverySimdLevel:
    def test_masked_and_branch_free_forms_agree_at_each_level(self):
        import passklab

        # naming a baseline feature stops numpy from importing, so name
        # only dispatched features that this host has
        levels = {
            " ".join(f for f in level if f in __cpu_dispatch__ and __cpu_features__[f])
            for level in SIMD_LEVELS
        }
        roots = [Path(passklab.__file__).resolve().parent.parent, Path(__file__).parent]
        base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        for level in sorted(levels, key=len):
            proc = subprocess.run(
                [sys.executable, "-c", SIMD_CHILD, level],
                capture_output=True,
                text=True,
                env={**base, "PYTHONPATH": os.pathsep.join(map(str, roots)),
                     "NPY_DISABLE_CPU_FEATURES": level},
            )
            assert proc.returncode == 0, f"{level!r}: {proc.stderr}"


class Wild:
    """An id equal to every value: two of them are one id repeated, and a
    pair of them equals any pair of ids."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0

    def __repr__(self):
        return "Wild()"


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

    def test_memoised_value_is_the_formula(self):
        # numpy and Python integers give one value
        for c in range(65):
            expected = 1.0 if 64 - c < 5 else float(
                1.0 - np.prod(1.0 - 5 / np.arange(64 - c + 1, 65, dtype=float))
            )
            for args in ((64, c, 5), (np.int64(64), np.int64(c), np.int32(5))):
                got = unbiased_pass_at_k(*args)
                assert type(got) is float and got == expected

    @pytest.mark.parametrize(
        "args,message",
        [
            ((4, True, 2), "c must be an integer, got True"),
            ((4, 1.0, 2), "c must be an integer, got 1.0"),
            ((4.0, 1, 2), "n must be an integer, got 4.0"),
            ((4, 1, "2"), "k must be an integer, got '2'"),
            ((None, 1, 2), "n must be an integer, got None"),
            (([4], 1, 2), "n must be an integer, got [4]"),
            ((4, np.array(1), 2), "c must be an integer, got array(1)"),
            ((4, 1, np.True_), f"k must be an integer, got {np.True_!r}"),
            ((0, 0, 1), "require 0 <= c <= n and 1 <= k <= n, got n=0 c=0 k=1"),
            ((4, -1, 2), "require 0 <= c <= n and 1 <= k <= n, got n=4 c=-1 k=2"),
            ((4, 5, 2), "require 0 <= c <= n and 1 <= k <= n, got n=4 c=5 k=2"),
            ((4, 1, 0), "require 0 <= c <= n and 1 <= k <= n, got n=4 c=1 k=0"),
            ((np.int64(4), 1, 5),
             "require 0 <= c <= n and 1 <= k <= n, got n=4 c=1 k=5"),
        ],
    )
    def test_bad_arguments_raise_the_same_message_after_a_cached_call(
        self, args, message
    ):
        # the valid call puts (4, 1, 2) in the cache first: the bad calls
        # equal to it (True, 1.0) must not be answered from that entry
        assert unbiased_pass_at_k(4, 1, 2) == 0.5
        with pytest.raises(DomainError) as exc:
            unbiased_pass_at_k(*args)
        assert str(exc.value) == message

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
