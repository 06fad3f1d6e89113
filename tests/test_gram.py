import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from haar_riesz import (
    ConvergenceError,
    DyadicInterval,
    GramMatrix,
    InputError,
    StepSet,
    bessel_certificate,
    build_gram,
    certified_lower_bound,
    derive_seed,
    eig_bounds,
    enumerate_family,
    inner_product,
    perturbation_demo,
    psd_certificate,
    random_stepset,
    restricted_norm_sq,
    riesz_constant,
    verify_bessel,
    verify_riesz,
)
from haar_riesz.counterexample import TWO_THIRDS_SET, zigzag_coefficients
from haar_riesz.gram import _exact_psd, _extreme_eigenvalues, _jacobi

from conftest import (
    dense_exact_psd,
    dyadic_intervals,
    leibniz_det,
    psd_by_principal_minors,
    step_sets,
)

FULL = StepSet(((0, 1),))
PAIR = (DyadicInterval(0, 0), DyadicInterval(1, 1))


def pairwise_gram(family, region):
    """Reference Gram entries: one restricted_norm_sq or inner_product per pair."""
    return tuple(
        tuple(
            restricted_norm_sq(first, region) if i == j else inner_product(first, second, region)
            for j, second in enumerate(family)
        )
        for i, first in enumerate(family)
    )


def riesz_rows(gram, shift):
    """G − shift·D, D the diagonal of G."""
    rows = [list(row) for row in gram.entries]
    for i in range(gram.size):
        rows[i][i] -= shift * gram.entries[i][i]
    return rows


def bessel_rows(gram, bound):
    """bound·D − G, D the diagonal of G."""
    rows = [[-x for x in row] for row in gram.entries]
    for i in range(gram.size):
        rows[i][i] += bound * gram.entries[i][i]
    return rows


def near(value: float, offset: F) -> F:
    """A rational within 2⁻³⁰ of a float, moved by an exact offset."""
    return F(value).limit_denominator(1 << 30) + offset


def dyadic_pencils(gram, p):
    """Riesz and Bessel pencils of a dyadic Gram matrix on both sides of the
    spectral ends, at the theorem's constants, and at the shift 1 where the
    pencil's diagonal vanishes."""
    low, high = eig_bounds(GramMatrix(gram.entries, gram.labels, normalized=True))
    eps = F(1, 10**6)
    shifts = [riesz_constant(p) if p > F(2, 3) else F(1, 100), near(low, -eps), near(low, eps), F(1)]
    bounds = [1 / p, near(high, -eps), near(high, eps), F(1)]
    return [riesz_rows(gram, s) for s in shifts] + [bessel_rows(gram, b) for b in bounds]


def identity_gram(n):
    return GramMatrix(
        tuple(tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n))
    )


class TestBuildGram:
    def test_orthonormal_on_full_set(self):
        family = enumerate_family(2, FULL, F(1))
        gram = build_gram(family, FULL, normalized=True)
        assert np.array_equal(gram.as_float(), np.eye(7))

    def test_two_thirds_pair(self):
        gram = build_gram(PAIR, TWO_THIRDS_SET)
        assert gram.entries == (
            (F(2, 3), F(-1, 6)),
            (F(-1, 6), F(1, 6)),
        )

    def test_singleton(self):
        gram = build_gram([DyadicInterval(1, 0)], TWO_THIRDS_SET)
        assert gram.entries == ((F(1, 2),),)

    def test_normalized_rejects_zero_norm(self):
        dead = DyadicInterval(1, 1)
        region = StepSet(((0, F(1, 2)),))
        with pytest.raises(InputError) as err:
            build_gram([DyadicInterval(1, 0), dead], region, normalized=True)
        assert str(dead) in str(err.value)

    def test_symmetry_validation(self):
        with pytest.raises(InputError):
            GramMatrix(((F(1), F(2)), (F(3), F(1))))

    def test_json_and_csv(self):
        gram = build_gram(PAIR, TWO_THIRDS_SET)
        data = gram.to_json_dict()
        assert data["entries"][0] == ["2/3", "-1/6"]
        assert data["labels"][1] == {"level": 1, "index": 1}
        csv = gram.to_csv()
        assert len(csv.strip().split("\n")) == 2
        # 17 significant digits round-trip
        assert float(csv.split(",")[1].split("\n")[0]) == float(F(-1, 6))


    @given(
        step_sets(denominators=(3, 5, 7, 8, 12, 16, 64)),
        st.lists(dyadic_intervals(max_level=7), max_size=12),
    )
    @settings(max_examples=80)
    def test_matches_pairwise_inner_products(self, region, family):
        # arbitrary order, repeats and non-admissible members included
        assert build_gram(family, region).entries == pairwise_gram(family, region)

    def test_two_thirds_set_family(self):
        family = enumerate_family(6, TWO_THIRDS_SET, F(1, 2))
        assert len(family) == 85
        assert build_gram(family, TWO_THIRDS_SET).entries == pairwise_gram(
            family, TWO_THIRDS_SET
        )

    def test_zigzag_family(self):
        # 14 intervals down to level 26: entries come from ancestor chains,
        # never from a table over a whole dyadic level
        family = zigzag_coefficients(13).support()
        assert max(i.level for i in family) == 26
        assert build_gram(family, TWO_THIRDS_SET).entries == pairwise_gram(
            family, TWO_THIRDS_SET
        )


class TestEigBounds:
    def test_identity(self):
        assert eig_bounds(identity_gram(5)) == (1.0, 1.0)

    def test_two_by_two_closed_form(self):
        # oracle: (tr ± √(tr²−4·det))/2 with tr = 5/6, det = 1/12
        gram = build_gram(PAIR, TWO_THIRDS_SET)
        low, high = eig_bounds(gram)
        expected_low = (5 - math.sqrt(13)) / 12
        expected_high = (5 + math.sqrt(13)) / 12
        assert abs(low - expected_low) < 1e-10
        assert abs(high - expected_high) < 1e-10

    def test_diagonal(self):
        gram = GramMatrix(
            tuple(
                tuple(F(d) if i == j else F(0) for j, d in enumerate((3, -2, 7)))
                for i, d in enumerate((3, -2, 7))
            )
        )
        assert eig_bounds(gram) == (-2.0, 7.0)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            eig_bounds(GramMatrix(()))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 30])
    def test_against_lapack_oracle(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((n, n))
        matrix = (matrix + matrix.T) / 2
        spectrum = np.linalg.eigvalsh(matrix)
        low, high = _extreme_eigenvalues(matrix)
        assert abs(low - spectrum[0]) < 1e-9
        assert abs(high - spectrum[-1]) < 1e-9

    @pytest.mark.parametrize("n", [2, 9, 24])
    def test_vector_fallback_against_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        matrix = rng.standard_normal((n, n))
        matrix = (matrix + matrix.T) / 2
        spectrum = np.linalg.eigvalsh(matrix)
        work = matrix.copy()
        fro = float(np.sqrt((work * work).sum()))
        off, _ = _jacobi(work, 1e-14 * fro, 64)
        assert off <= 1e-14 * fro
        diag = np.sort(np.diag(work))
        assert abs(diag[0] - spectrum[0]) < 1e-9
        assert abs(diag[-1] - spectrum[-1]) < 1e-9

    def test_tiny_rotation_raises_no_warning(self):
        # a seeded depth-3 family whose sweeps meet an off-diagonal entry so
        # small that tau² overflows; the rotation is then the identity, and
        # the bounds are the ones the numpy-scalar rotation gave
        region = random_stepset(8, 0.7, derive_seed(0xC0FFEE, 4))
        family = enumerate_family(3, region, F(3, 4))
        assert len(family) == 8
        gram = build_gram(family, region, normalized=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high = eig_bounds(gram)
        assert (low.hex(), high.hex()) == ("0x1.b3d5ffcc6411bp-1", "0x1.2964620074c6bp+0")


class TestPsdCertificate:
    def test_identity_shift_one(self):
        gram = identity_gram(4)
        ones = [F(1)] * 4
        assert psd_certificate(gram, F(1), ones)
        assert not psd_certificate(gram, F(1) + F(1, 1000), ones)

    def test_pencil_with_norm_diagonal(self):
        # oracle: det(G − λD) = (1/9)(1−λ)² − 1/36 vanishes at λ = 1/2, 3/2
        gram = build_gram(PAIR, TWO_THIRDS_SET)
        diag = gram.diagonal
        assert psd_certificate(gram, F(1, 10), diag)
        assert psd_certificate(gram, F(1, 8), diag)
        assert psd_certificate(gram, F(1, 2), diag)  # boundary: exact zero pencil
        assert not psd_certificate(gram, F(1, 2) + F(1, 1000), diag)
        assert not psd_certificate(gram, F(3, 4), diag)

    def test_pencil_with_identity_diagonal(self):
        # raw λ_min = (5−√13)/12 ≈ 0.11620 sits between 1/10 and 1/8
        gram = build_gram(PAIR, TWO_THIRDS_SET)
        ones = [F(1), F(1)]
        assert psd_certificate(gram, F(1, 10), ones)
        assert not psd_certificate(gram, F(1, 8), ones)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            psd_certificate(identity_gram(2), F(1, 2), [F(1)])

    def test_zero_diagonal_block(self):
        # [[0, 1], [1, 0]] is indefinite: zero diagonal with surviving off-diagonal
        assert not _exact_psd([[F(0), F(1)], [F(1), F(0)]])
        assert _exact_psd([[F(0), F(0)], [F(0), F(0)]])

    def test_fraction_and_gmpy_paths_agree(self):
        """The exact PSD verdict does not depend on how the arithmetic is done.

        This once compared the Fraction and gmpy2 arithmetic of ``_exact_psd``;
        the gmpy2 route is gone, so the one remaining LDLᵀ route is now checked
        against an exact oracle that shares no code with it: every principal
        minor ≥ 0, each a Leibniz determinant over Fraction.  The corpus keeps
        the 20 seeded integer matrices and adds PSD-rich pencils BᵀB/4 − s·I,
        some with rank-deficient B, so the zero-pivot rule is exercised.
        """
        known = {
            ((0, 1), (1, 0)): False,
            ((0, 0), (0, 0)): True,
            ((1, 0), (0, 1)): True,
            ((1, 1), (1, 1)): True,
        }
        corpus = [[[F(x) for x in row] for row in m] for m in known]
        for m, expected in zip(corpus, known.values()):
            assert psd_by_principal_minors(m) is expected

        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            raw = rng.integers(-4, 5, size=(n, n))
            corpus.append(
                [[F(int(raw[i][j] + raw[j][i]), 8) for j in range(n)] for i in range(n)]
            )
        for _ in range(200):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 1))  # k < n: rank-deficient BᵀB
            b = rng.integers(-2, 3, size=(k, n))
            s = F(int(rng.integers(0, 3)), 8)
            btb = b.T @ b
            corpus.append(
                [[F(int(btb[i, j]), 4) - s * (i == j) for j in range(n)] for i in range(n)]
            )

        verdicts = []
        for m in corpus:
            verdict = psd_by_principal_minors(m)
            assert _exact_psd(m) is verdict, m
            verdicts.append(verdict)
        assert set(verdicts) == {True, False}
        assert any(v and leibniz_det(m) == 0 for m, v in zip(corpus, verdicts))

    @given(
        step_sets(),
        st.integers(1, 4),
        st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F(9, 10)]),
        st.data(),
    )
    @settings(max_examples=30)
    def test_matches_principal_minors_on_dyadic_pencils(self, region, depth, p, data):
        family = enumerate_family(depth, region, p)
        if not family:
            return
        chosen = data.draw(
            st.lists(st.sampled_from(range(len(family))), min_size=1, max_size=6, unique=True)
        )
        gram = build_gram([family[i] for i in sorted(chosen)], region)
        for rows in dyadic_pencils(gram, p):
            assert _exact_psd(rows) is psd_by_principal_minors(rows), rows

    def test_matches_dense_reference(self):
        """Pencils up to n ≈ 60 against the dense largest-pivot LDLᵀ."""
        grams = [
            (build_gram(enumerate_family(5, region, p), region), p)
            for region, p in [
                (StepSet(((0, 1),)), F(1)),  # orthogonal: pencils at 1 vanish
                (TWO_THIRDS_SET, F(1, 2)),
                (TWO_THIRDS_SET, F(2, 3)),
            ]
        ]
        # family sizes 58, 11, 37, 10 and 19; the dense reference is O(n³)
        for bias, seed, p in [
            (0.6, 1000, F(1, 2)),
            (0.6, 1003, F(43, 64)),
            (0.7, 1004, F(43, 64)),
            (0.6, 1006, F(3, 4)),
            (0.7, 1007, F(3, 4)),
        ]:
            region = random_stepset(8, bias, seed)
            grams.append((build_gram(enumerate_family(5, region, p), region), p))
        verdicts = []
        for gram, p in grams:
            for rows in dyadic_pencils(gram, p):
                verdict = dense_exact_psd(rows)
                assert _exact_psd(rows) is verdict
                verdicts.append((verdict, not any(any(row) for row in rows)))
        assert max(gram.size for gram, _ in grams) >= 50
        assert {v for v, _ in verdicts} == {True, False}
        assert (True, True) in verdicts  # singular PSD: Bessel at p = 1 on the full set

    def test_elimination_rules(self):
        # one small matrix per rule of the LDLᵀ, verdicts by hand
        assert not _exact_psd([[F(-1)]])  # negative pivot
        assert not _exact_psd([[F(1), F(0)], [F(0), F(-1)]])
        # zero pivot with a surviving entry: [[a, m], [m, 0]] has det −m²
        assert not _exact_psd([[F(1), F(1)], [F(1), F(0)]])
        # eigenvalues 3 and −1; only the pivot's diagonal update shows it
        assert not _exact_psd([[F(1), F(2)], [F(2), F(1)]])
        # eliminating the last row cancels the (1, 0) entry to zero and
        # leaves a zero pivot with an empty row: PSD (rank 2)
        assert _exact_psd([[F(2), F(1), F(1)], [F(1), F(1), F(1)], [F(1), F(1), F(1)]])
        # the same with the (1, 0) entry not cancelled: [[1, −1], [−1, 0]]
        # remains, indefinite
        assert not _exact_psd([[F(2), F(0), F(1)], [F(0), F(1), F(1)], [F(1), F(1), F(1)]])
        # the first row decides: eliminating it first would miss the update
        # that the later rows make to it
        assert not _exact_psd([[F(1), F(1), F(1)], [F(1), F(1), F(0)], [F(1), F(0), F(1)]])

    @given(
        st.one_of(
            step_sets().flatmap(
                lambda region: st.tuples(
                    st.just(region),
                    st.integers(1, 4).map(
                        lambda depth: enumerate_family(depth, region, F(2, 3))
                    ),
                )
            ),
            # arbitrary order, repeats and non-admissible members
            st.tuples(step_sets(), st.lists(dyadic_intervals(max_level=5), max_size=10)),
        ),
        st.sampled_from([F(0), F(1, 16), F(1, 4), F(1, 2), F(1)]),
        st.data(),
    )
    @settings(max_examples=60)
    def test_permutation_keeps_verdict_on_family_pencils(self, drawn, shift, data):
        region, family = drawn
        family = family[:14]
        gram = build_gram(family, region)
        n = gram.size
        perm = data.draw(st.permutations(range(n)))
        for rows in (riesz_rows(gram, shift), bessel_rows(gram, 1 + shift)):
            permuted = [[rows[a][b] for b in perm] for a in perm]
            verdict = dense_exact_psd(rows)
            assert _exact_psd(rows) is verdict
            assert _exact_psd(permuted) is verdict

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                    min_size=1,
                    max_size=n,
                ),
                st.sampled_from([F(0), F(1, 8), F(1, 2), F(-1, 8)]),
                st.permutations(range(n)),
            )
        )
    )
    @settings(max_examples=150)
    def test_permutation_keeps_verdict_on_small_matrices(self, drawn):
        # BᵀB − s·I with B of k ≤ n rows: singular PSD (k < n, s = 0),
        # positive definite and indefinite cases all occur
        b, s, perm = drawn
        n = len(perm)
        rows = [
            [F(sum(r[i] * r[j] for r in b)) - s * (i == j) for j in range(n)]
            for i in range(n)
        ]
        permuted = [[rows[a][c] for c in perm] for a in perm]
        verdict = dense_exact_psd(rows)
        assert _exact_psd(rows) is verdict
        assert _exact_psd(permuted) is verdict

    @given(
        step_sets(),
        st.integers(0, 4),
        st.sampled_from([F(1, 2), F(2, 3), F(43, 64), F(3, 4)]),
        st.lists(st.fractions(min_value=0, max_value=2, max_denominator=64), max_size=4),
    )
    @settings(max_examples=40)
    def test_monotone_in_shift(self, region, depth, p, drawn):
        family = enumerate_family(depth, region, p) if region.measure else []
        if not family:
            return
        gram = build_gram(family, region)
        diag = gram.diagonal
        shifts = sorted([F(0), F(1, 16), F(1, 4), F(1, 2), F(1)] + drawn)
        results = [psd_certificate(gram, c, diag) for c in shifts]
        # D ⪰ 0, so once false, false forever as the shift grows; a Gram
        # matrix is PSD at shift 0
        assert results[0]
        assert results == sorted(results, reverse=True)


class TestVerifyRiesz:
    def test_orthogonal_family(self):
        family = enumerate_family(3, FULL, F(1, 2))
        assert verify_riesz(family, FULL, F(1))

    def test_certified_constant_at_three_quarters(self):
        family = enumerate_family(6, TWO_THIRDS_SET, F(3, 4))
        assert verify_riesz(family, TWO_THIRDS_SET, F(1, 16))

    def test_zigzag_family_fails(self):
        # Rayleigh quotient of the zig-zag coefficients is exactly 4/(4+n);
        # with n = 13 the ratio 4/17 < 1/4, so the certificate at 1/4 must fail.
        family = zigzag_coefficients(13).support()
        assert not verify_riesz(family, TWO_THIRDS_SET, F(1, 4))
        assert verify_riesz(family, TWO_THIRDS_SET, F(1, 100))

    @given(step_sets(), st.integers(0, 4))
    @settings(max_examples=20)
    def test_float_exact_agreement(self, region, depth):
        p = F(3, 4)
        family = enumerate_family(depth, region, p)
        if not family:
            return
        gram = build_gram(family, region, normalized=True)
        low, _ = eig_bounds(gram)
        unnorm = build_gram(family, region)
        margin = F(1, 1 << 20)
        below = F(low).limit_denominator(1 << 40) - margin
        above = F(low).limit_denominator(1 << 40) + margin
        if below > 0:
            assert psd_certificate(unnorm, below, unnorm.diagonal)
        assert not psd_certificate(unnorm, above, unnorm.diagonal)


class TestVerifyBessel:
    def test_full_set_equality_slack(self):
        family = enumerate_family(2, FULL, F(1))
        assert verify_bessel(family, FULL, F(1))

    def test_two_thirds_threshold(self):
        family = enumerate_family(6, TWO_THIRDS_SET, F(2, 3))
        assert verify_bessel(family, TWO_THIRDS_SET, F(2, 3))

    def test_gram_level_certificate(self):
        family = enumerate_family(4, TWO_THIRDS_SET, F(1, 2))
        gram = build_gram(family, TWO_THIRDS_SET)
        assert bessel_certificate(gram, F(1, 2))
        # λ_max of the pencil lies above 1, so the bound 1 fails
        assert not bessel_certificate(gram, F(1))
        with pytest.raises(InputError):
            bessel_certificate(gram, F(0))

    @given(step_sets(), st.integers(0, 4))
    @settings(max_examples=25)
    def test_upper_bound_everywhere(self, region, depth):
        p = F(3, 4)
        family = enumerate_family(depth, region, p)
        if not family:
            return
        assert verify_bessel(family, region, p)
        gram = build_gram(family, region, normalized=True)
        _, high = eig_bounds(gram)
        assert high <= float(1 / p) + 1e-8


class TestReflection:
    """x ↦ 1−x maps the admissible family onto itself and only flips Haar
    signs, so sizes, verdicts and certified brackets cannot change."""

    @given(step_sets(), st.integers(0, 4), st.sampled_from([F(43, 64), F(3, 4), F(9, 10)]))
    @settings(max_examples=25)
    def test_verdicts_unchanged(self, region, depth, p):
        mirror = StepSet(tuple((1 - right, 1 - left) for left, right in region.intervals))
        family = enumerate_family(depth, region, p)
        mirrored = enumerate_family(depth, mirror, p)
        assert sorted(
            DyadicInterval(i.level, (1 << i.level) - 1 - i.index) for i in family
        ) == mirrored
        for c in (riesz_constant(p), F(1, 2), F(1)):
            assert verify_riesz(family, region, c) == verify_riesz(mirrored, mirror, c)
        assert verify_bessel(family, region, p) == verify_bessel(mirrored, mirror, p)
        assert certified_lower_bound(region, p, depth) == certified_lower_bound(
            mirror, p, depth
        )


class TestPerturbationDemo:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, (F(1), F(0), F(1, 2))), (3, (F(2), F(0), F(1, 3)))],
    )
    def test_exact_values(self, n, expected):
        demo = perturbation_demo(n)
        assert (
            demo.sum_norm_sq,
            demo.norm_of_sum_sq,
            demo.per_vector_perturbation,
        ) == expected

    @pytest.mark.parametrize("n", range(2, 11))
    def test_sum_collapses_for_all_n(self, n):
        demo = perturbation_demo(n)
        assert demo.norm_of_sum_sq == 0
        assert demo.sum_norm_sq == n - 1
        assert demo.per_vector_perturbation == F(1, n)

    def test_spectrum(self):
        demo = perturbation_demo(6)
        low, high = eig_bounds(demo.gram)
        assert abs(low - 0.0) <= 1e-10
        assert abs(high - 1.0) <= 1e-10

    def test_too_small(self):
        with pytest.raises(InputError):
            perturbation_demo(1)

