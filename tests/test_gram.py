import math
import tracemalloc
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
    build_gram,
    certified_lower_bound,
    derive_seed,
    eig_bounds,
    enumerate_family,
    perturbation_demo,
    psd_certificate,
    random_stepset,
    restricted_norm_sq,
    riesz_constant,
    verify_bessel,
    verify_riesz,
)
from haar_riesz.counterexample import TWO_THIRDS_SET, zigzag_coefficients
from haar_riesz import gram as gram_module
from haar_riesz.gram import (
    _JACOBI_MAX_SWEEPS,
    _JACOBI_REL_TOL,
    _components,
    _extreme_eigenvalues,
    _jacobi,
    float_view,
)

from conftest import (
    bessel_certificate,
    dense_exact_psd,
    dyadic_intervals,
    gram_from_entries,
    inner_product,
    ldlt_psd,
    leibniz_det,
    matrix_components,
    psd_by_principal_minors,
    reference_extreme_eigenvalues,
    reference_jacobi,
    solved_blocks,
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
    low, high = eig_bounds(gram_from_entries(gram.entries, gram.labels, normalized=True))
    eps = F(1, 10**6)
    shifts = [riesz_constant(p) if p > F(2, 3) else F(1, 100), near(low, -eps), near(low, eps), F(1)]
    bounds = [1 / p, near(high, -eps), near(high, eps), F(1)]
    return [riesz_rows(gram, s) for s in shifts] + [bessel_rows(gram, b) for b in bounds]


@st.composite
def symmetric_matrices(draw, max_size: int = 6):
    """Symmetric rational matrices, about half of their entries 0."""
    n = draw(st.integers(0, max_size))
    value = st.one_of(
        st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=64)
    )
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(value)
    return tuple(map(tuple, rows))


def identity_gram(n):
    return gram_from_entries(
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
            gram_from_entries(((F(1), F(2)), (F(3), F(1))))

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


def dense_float_view(gram):
    """The float view as n² float(Fraction) conversions (test-side reference)."""
    n = gram.size
    out = np.empty((n, n))
    scale = [float(d) ** -0.5 for d in gram.diagonal]
    for i in range(n):
        for j in range(n):
            value = float(gram.entries[i][j])
            if gram.normalized:
                if i == j:
                    value = 1.0
                else:
                    k, m = max(i, j), min(i, j)  # the row of the deeper index first
                    value = value * scale[k] * scale[m]
            out[i, j] = value
    return out


class TestGramStore:
    @given(
        step_sets(denominators=(3, 8, 12, 64)),
        st.integers(0, 5),
        st.sampled_from([F(1, 2), F(2, 3), F(3, 4)]),
    )
    @settings(max_examples=50)
    def test_float_view_matches_dense_conversion(self, region, depth, p):
        family = enumerate_family(depth, region, p)
        for normalized in (False, True):
            gram = build_gram(family, region, normalized=normalized)
            assert gram.as_float().tobytes() == dense_float_view(gram).tobytes()

    def test_float_view_of_dense_and_repeated_members(self):
        demo = perturbation_demo(6).gram
        assert demo.as_float().tobytes() == dense_float_view(demo).tobytes()
        family = [DyadicInterval(1, 0), DyadicInterval(0, 0), DyadicInterval(1, 0)]
        for normalized in (False, True):
            gram = build_gram(family, TWO_THIRDS_SET, normalized=normalized)
            assert gram.as_float().tobytes() == dense_float_view(gram).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_float_view_of_deep_families(self, seed):
        region = random_stepset(8, 0.6, derive_seed(0xF10A7, seed))
        gram = build_gram(enumerate_family(6, region, F(1, 2)), region, normalized=True)
        assert gram.as_float().tobytes() == dense_float_view(gram).tobytes()

    @given(
        step_sets(denominators=(3, 8, 12, 64)),
        st.integers(0, 4),
        st.sampled_from([F(1, 2), F(43, 64), F(3, 4), F(1)]),
        st.fractions(min_value=0, max_value=2, max_denominator=16),
    )
    @settings(max_examples=60)
    def test_store_is_built_once(self, region, depth, p, shift):
        # build_gram writes the store; the certificates copy it and never
        # build the dense entries
        gram = build_gram(enumerate_family(depth, region, p), region)
        store = gram.lower
        riesz = psd_certificate(gram, shift, gram.diagonal)
        bessel = bessel_certificate(gram, p)
        assert "entries" not in vars(gram)
        assert store == tuple(
            tuple((j, x) for j, x in enumerate(row[:i]) if x)
            for i, row in enumerate(gram.entries)
        )
        # the verdicts equal those on a store built from the dense rows
        assert riesz is ldlt_psd(riesz_rows(gram, shift))
        assert bessel is ldlt_psd(bessel_rows(gram, 1 / p))
        # and a second run on the same store gives the same answers
        assert psd_certificate(gram, shift, gram.diagonal) is riesz
        assert bessel_certificate(gram, p) is bessel

    @given(symmetric_matrices())
    @settings(max_examples=80)
    def test_from_entries_round_trip(self, rows):
        gram = gram_from_entries(rows)
        assert gram.entries == rows
        assert all(type(x) is F for row in gram.entries for x in row)
        assert gram.diagonal == tuple(row[i] for i, row in enumerate(rows))
        for i, row in enumerate(gram.lower):
            columns = [j for j, _ in row]
            assert columns == sorted(set(columns)) and all(j < i for j in columns)
            assert all(x and x == rows[i][j] for j, x in row)
        assert gram_from_entries(gram.entries) == gram

    def test_from_entries_errors(self):
        with pytest.raises(InputError, match=r"^Gram matrix must be square$"):
            gram_from_entries(((F(1), F(0)),))
        with pytest.raises(InputError, match=r"^Gram matrix not symmetric at \(2, 0\)$"):
            gram_from_entries(((1, 0, 5), (0, 1, 0), (4, 0, 1)))
        with pytest.raises(InputError, match="label count"):
            gram_from_entries(((1,),), labels=PAIR)

    @given(
        step_sets(denominators=(3, 7, 8, 12, 64)),
        st.lists(dyadic_intervals(max_level=6), max_size=12),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_build_gram_equals_from_entries(self, region, family, normalized):
        # arbitrary order, repeats and non-admissible members included
        normalized = normalized and all(restricted_norm_sq(i, region) for i in family)
        gram = build_gram(family, region, normalized=normalized)
        twin = gram_from_entries(gram.entries, gram.labels, normalized)
        assert twin == gram
        assert hash(twin) == hash(gram)

    def test_deep_family_stays_sparse(self):
        # depth 10: the store has O(n·depth) entries, where a dense matrix
        # of Fractions took about 110 MiB
        region = random_stepset(12, 0.7, derive_seed(0xD10, 0))
        family = enumerate_family(10, region, F(1, 2))
        assert len(family) >= 1500
        tracemalloc.start()
        try:
            gram = build_gram(family, region)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        riesz = [psd_certificate(gram, c, gram.diagonal) for c in (F(0), F(1, 64))]
        bessel = [bessel_certificate(gram, p) for p in (F(1, 2), F(9, 10))]
        assert (riesz, bessel) == ([True, False], [True, False])
        assert gram.as_float().shape == (len(family), len(family))
        assert "entries" not in vars(gram)

    def test_dense_views_are_capped(self):
        assert gram_module.MAX_DENSE >= 2047  # the full depth-10 family
        n = gram_module.MAX_DENSE + 1
        big = GramMatrix((F(1),) * n, ((),) * n)
        for view in (lambda: big.entries, big.as_float, big.to_json_dict, big.to_csv):
            with pytest.raises(InputError, match="dense"):
                view()
        at_cap = GramMatrix((F(1),) * (n - 1), ((),) * (n - 1))
        assert at_cap.as_float().shape == (n - 1, n - 1)


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
        gram = gram_from_entries(
            tuple(
                tuple(F(d) if i == j else F(0) for j, d in enumerate((3, -2, 7)))
                for i, d in enumerate((3, -2, 7))
            )
        )
        assert eig_bounds(gram) == (-2.0, 7.0)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            eig_bounds(gram_from_entries(()))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 30])
    def test_against_lapack_oracle(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((n, n))
        matrix = (matrix + matrix.T) / 2
        spectrum = np.linalg.eigvalsh(matrix)
        low, high = dense_extremes(matrix)
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


BLOCK_KINDS = ("single", "zero", "dense", "path", "star")


def draw_block(kind, rng):
    """One symmetric block: a 1×1, an all-zero block, a dense block, or a
    path or a star with nonzero edges."""
    if kind == "single":
        return rng.standard_normal((1, 1))
    size = int(rng.integers(2, 7))
    if kind == "zero":
        return np.zeros((size, size))
    if kind == "dense":
        a = rng.standard_normal((size, size))
        return (a + a.T) / 2
    block = np.diag(rng.standard_normal(size))
    edges = rng.uniform(0.25, 1.5, size - 1) * rng.choice((-1.0, 1.0), size - 1)
    for k, weight in enumerate(edges, start=1):
        i, j = (k - 1, k) if kind == "path" else (0, k)
        block[i, j] = block[j, i] = weight
    return block


@st.composite
def permuted_block_matrices(draw, kinds=BLOCK_KINDS, max_blocks=6):
    """A block-diagonal matrix under a random symmetric permutation, and the
    sorted positions each block lands on."""
    chosen = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=max_blocks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [draw_block(kind, rng) for kind in chosen]
    n = sum(block.shape[0] for block in blocks)
    matrix = np.zeros((n, n))
    owner = []
    start = 0
    for k, block in enumerate(blocks):
        size = block.shape[0]
        matrix[start : start + size, start : start + size] = block
        owner += [k] * size
        start += size
    perm = rng.permutation(n)  # original index perm[a] moves to position a
    positions = [[a for a in range(n) if owner[perm[a]] == k] for k in range(len(blocks))]
    return matrix[np.ix_(perm, perm)], positions


def per_block_reference(matrix, positions):
    """min and max over the blocks of the whole-matrix reference on each."""
    values = [reference_extreme_eigenvalues(matrix[np.ix_(p, p)]) for p in positions]
    return min(low for low, _ in values), max(high for _, high in values)


def hexes(pair):
    return tuple(x.hex() for x in pair)


def store_of(matrix):
    """(diagonal, lower) of a dense symmetric matrix: its diagonal and the
    nonzero entries of its lower triangle, as a Gram store (test-side)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    diagonal = matrix.diagonal().tolist()
    lower = [
        [(j, x) for j, x in enumerate(row[:i].tolist()) if x]
        for i, row in enumerate(matrix)
    ]
    return diagonal, lower


def dense_extremes(matrix, memo=None):
    """The eigen route's extremes of a dense matrix fed as its store, with a
    fresh memo unless one is given."""
    return _extreme_eigenvalues(*store_of(matrix), False, {} if memo is None else memo)


class TestBlockExtremes:
    """The block-by-block solve against the whole-matrix Jacobi solve."""

    @given(permuted_block_matrices())
    @settings(max_examples=150)
    def test_block_diagonal_matches_references(self, drawn):
        matrix, positions = drawn
        low, high = dense_extremes(matrix)
        # each block is solved on its own, to its own accuracy
        assert hexes((low, high)) == hexes(per_block_reference(matrix, positions))
        ref_low, ref_high = reference_extreme_eigenvalues(matrix)
        assert abs(low - ref_low) <= 1e-12 and abs(high - ref_high) <= 1e-12
        spectrum = np.linalg.eigvalsh(matrix)
        assert abs(low - spectrum[0]) <= 1e-9 and abs(high - spectrum[-1]) <= 1e-9

    @given(permuted_block_matrices(kinds=("dense", "path", "star"), max_blocks=1))
    @settings(max_examples=60)
    def test_connected_matrix_gets_the_whole_matrix_bits(self, drawn):
        matrix, _ = drawn
        assert len(matrix_components(matrix)) == 1
        assert hexes(dense_extremes(matrix)) == hexes(
            reference_extreme_eigenvalues(matrix)
        )

    def test_connected_dyadic_pencils_get_the_whole_matrix_bits(self):
        # root-dense families whose members all carry a nonzero slope or
        # lie above one that does
        connected = 0
        for k in range(60):
            region = random_stepset(8, 0.8, derive_seed(0xB10C, k))
            family = enumerate_family(2 + k % 2, region, F(43, 64))
            gram = build_gram(family, region, normalized=True)
            matrix = gram.as_float()
            if len(family) > 1 and len(matrix_components(matrix)) == 1:
                connected += 1
                assert hexes(dense_extremes(matrix)) == hexes(
                    reference_extreme_eigenvalues(matrix)
                )
                assert hexes(eig_bounds(gram)) == hexes(dense_extremes(matrix))
        assert connected >= 20
        for n in (3, 6, 9):
            matrix = perturbation_demo(n).gram.as_float()
            assert hexes(eig_bounds(perturbation_demo(n).gram)) == hexes(
                reference_extreme_eigenvalues(matrix)
            )

    def test_small_block_beside_a_huge_one_is_solved_to_its_own_accuracy(self):
        # the whole matrix's tolerance would accept the small block unrotated
        matrix = np.zeros((4, 4))
        matrix[:2, :2] = [[2e14, 1e14], [1e14, 2e14]]
        matrix[2:, 2:] = [[1.0, 0.5], [0.5, 1.0]]
        low, high = dense_extremes(matrix)
        assert abs(low - 0.5) <= 1e-15
        assert abs(high - 3e14) <= 1e-1

    def test_singletons_keep_their_values(self):
        assert dense_extremes(np.diag([3.0, -2.0, 7.0])) == (-2.0, 7.0)
        assert dense_extremes(np.array([[4.5]])) == (4.5, 4.5)
        assert dense_extremes(np.zeros((3, 3))) == (0.0, 0.0)

    def test_unconverged_block_raises(self, monkeypatch):
        rng = np.random.default_rng(7)
        matrix = np.zeros((6, 6))
        matrix[0, 0] = 2.0
        a = rng.standard_normal((5, 5))
        matrix[1:, 1:] = (a + a.T) / 2
        monkeypatch.setattr(gram_module, "_JACOBI_MAX_SWEEPS", 1)
        memo = {}
        with pytest.raises(ConvergenceError):
            dense_extremes(matrix, memo)
        assert memo == {}

    def test_memo_reuses_blocks_by_their_bytes(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0].shape[0])
            return _jacobi(*args)

        monkeypatch.setattr(gram_module, "_jacobi", counted)
        block = np.array([[1.0, 0.25, 0.0], [0.25, 1.0, -0.5], [0.0, -0.5, 1.0]])
        first = np.zeros((5, 5))
        first[:3, :3] = block
        first[3:, 3:] = [[1.0, 0.75], [0.75, 1.0]]
        second = np.zeros((5, 5))
        second[0, 0] = 1.0
        second[1:4, 1:4] = block  # the same block at other positions
        second[4, 4] = 1.0
        memo = {}
        values = dense_extremes(first, memo)
        assert calls == [3, 2] and len(memo) == 2
        assert dense_extremes(second, memo) == (
            memo[block.tobytes()][0],
            max(1.0, memo[block.tobytes()][1]),
        )
        assert calls == [3, 2]  # read from the memo, not solved
        assert dense_extremes(first, {}) == values  # a fresh memo: solved again
        assert calls == [3, 2, 3, 2]


def chain_store(gram):
    """The store of every (member, member ancestor) pair of a dyadic Gram
    matrix, zero entries included (test-side)."""
    family = gram.labels
    return [
        [
            (j, gram.entries[i][j])
            for j in range(i)
            if family[i].contains(family[j]) or family[j].contains(family[i])
        ]
        for i in range(gram.size)
    ]


class TestStoreBlocks:
    """The blocks found from the store and built from their own stores
    against the dense view cut along its nonzero pattern."""

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.3, 1.0),
        st.integers(0, 6),
        st.sampled_from([F(1, 2), F(43, 64), F(3, 4), F(9, 10)]),
    )
    @settings(max_examples=80)
    def test_partition_and_blocks_match_the_dense_view(self, seed, bias, depth, p):
        region = random_stepset(8, bias, seed)
        family = enumerate_family(depth, region, p)
        if not family:
            return
        raw = build_gram(family, region)
        expected = matrix_components(raw.as_float())
        assert _components(raw.lower) == expected
        # entries that are exactly zero join nothing
        assert _components(chain_store(raw)) == expected
        for normalized in (False, True):
            gram = build_gram(family, region, normalized=normalized)
            matrix = gram.as_float()
            values, blocks = solved_blocks(lambda: eig_bounds(gram))
            cut = [matrix[np.ix_(m, m)].tobytes() for m in expected if len(m) > 1]
            assert blocks == list(dict.fromkeys(cut))  # each distinct block once
            assert hexes(values) == hexes(dense_extremes(matrix))

    @pytest.mark.parametrize("n", [2, 3, 9, 40])
    def test_perturbation_demo_is_one_block(self, n):
        gram = perturbation_demo(n).gram
        matrix = gram.as_float()
        assert _components(gram.lower) == matrix_components(matrix) == [list(range(n))]
        _, blocks = solved_blocks(lambda: eig_bounds(gram))
        assert blocks == [matrix.tobytes()]

    def test_singletons_build_no_dense_matrix(self):
        # a normalized view's 1×1 blocks are 1, whatever their squared norm
        n = gram_module.MAX_DENSE
        gram = GramMatrix(
            tuple(F(k % 7 + 1, 3) for k in range(n)), ((),) * n, normalized=True
        )
        tracemalloc.start()
        try:
            values = eig_bounds(gram)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values == (1.0, 1.0)
        assert peak < 1 << 20
        raw = GramMatrix(gram.diagonal, gram.lower)
        assert eig_bounds(raw) == (1 / 3, 7 / 3)


FLOAT_PATTERNS = ("dense", "sparse", "zero rows", "blocks", "path")


@st.composite
def float_symmetric_matrices(draw, max_size: int = 40):
    """Bitwise symmetric float matrices: dense, sparse, with zero rows,
    block-diagonal or a path.  Entries have magnitudes from 1e−150 to 1e150;
    with ``tiny`` about half of the off-diagonal entries shrink by a further
    1e−160, so that τ² overflows when a sweep meets one of them."""
    n = draw(st.sampled_from(range(1, max_size + 1)))  # sizes spread evenly
    pattern = draw(st.sampled_from(FLOAT_PATTERNS))
    low = draw(st.integers(-150, 150))
    high = min(150, low + draw(st.sampled_from((0, 3, 300))))
    tiny = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(low, high + 1, (n, n))
    index = np.arange(n)
    if pattern == "sparse":
        values *= rng.random((n, n)) < 0.2
    elif pattern == "zero rows":
        zero = rng.random(n) < 0.3
        values[zero, :] = 0.0
        values[:, zero] = 0.0
    elif pattern == "blocks":
        owner = rng.integers(0, 4, n)
        values *= owner[:, None] == owner[None, :]
    elif pattern == "path":
        values *= abs(index[:, None] - index[None, :]) <= 1
    lower = np.tril(values, -1)
    if tiny:
        lower[rng.random((n, n)) < 0.5] *= 1e-160
    matrix = lower + lower.T
    matrix[index, index] = values[index, index]
    return matrix


def certify_blocks():
    """Every multi-member block of the normalized pencils of a certify-style
    corpus: depth 5, thresholds 43/64, 3/4 and 9/10, and resolution-8 sets
    of bias 0.6–0.8, each the first draw that covers within two cells of
    bias·256 (so the root is admissible at bias 0.8)."""
    blocks = []
    draws = (derive_seed(0x5EED5, k) for k in range(10**6))
    for bias in (0.6, 0.65, 0.7, 0.75, 0.8) * 2:
        region = next(
            region
            for region in (random_stepset(8, bias, seed) for seed in draws)
            if abs(region.measure * 256 - round(bias * 256)) <= 2
        )
        for p in (F(43, 64), F(3, 4), F(9, 10)):
            family = enumerate_family(5, region, p)
            if not family:
                continue
            gram = build_gram(family, region, normalized=True)
            matrix = gram.as_float()
            blocks += [
                matrix[np.ix_(members, members)]
                for members in _components(gram.lower)
                if len(members) > 1
            ]
    return blocks


def jacobi_both(matrix, target, max_sweeps):
    """(result, bytes) of the kernel and of the reference on copies."""
    ours, theirs = matrix.copy(), matrix.copy()
    mine = _jacobi(ours, target, max_sweeps)
    ref = reference_jacobi(theirs, target, max_sweeps)
    return (mine, ours.tobytes()), (ref, theirs.tobytes())


def relative_target(matrix):
    return _JACOBI_REL_TOL * float(np.sqrt((matrix * matrix).sum()))


def sweep_by_sweep(matrix, target):
    """Run the kernel and the reference one sweep at a time on copies of a
    bitwise symmetric matrix, asserting equal results and bytes after every
    sweep, until the kernel converges; the reference's rotation forms, one
    list per sweep."""
    assert matrix.tobytes() == matrix.T.copy().tobytes()
    ours, theirs = matrix.copy(), matrix.copy()
    forms = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(_JACOBI_MAX_SWEEPS + 1):
            off, sweeps = _jacobi(ours, target, 1)
            ref_off, ref_sweeps = reference_jacobi(theirs, target, 1, forms)
            assert (off.hex(), sweeps) == (ref_off.hex(), ref_sweeps)
            assert ours.tobytes() == theirs.tobytes()
            if sweeps == 0:
                return forms
    raise AssertionError("no convergence")


class TestJacobiKernel:
    """The kernel's rotation against the plain two-sided rotation."""

    @given(float_symmetric_matrices(), st.sampled_from((1, 2, 64)))
    @settings(max_examples=200)
    def test_matches_reference_bit_for_bit(self, matrix, max_sweeps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine, ref = jacobi_both(matrix, relative_target(matrix), max_sweeps)
        (off, sweeps), data = mine
        (ref_off, ref_sweeps), ref_data = ref
        assert (off.hex(), sweeps) == (ref_off.hex(), ref_sweeps)
        assert data == ref_data

    def test_certify_pencil_blocks_match_reference(self):
        blocks = certify_blocks()
        assert len(blocks) >= 30 and max(b.shape[0] for b in blocks) >= 40
        for block in blocks:
            mine, ref = jacobi_both(block, relative_target(block), _JACOBI_MAX_SWEEPS)
            assert mine[0][0].hex() == ref[0][0].hex() and mine[0][1] == ref[0][1]
            assert mine[1] == ref[1]

    def test_certify_blocks_reach_every_rotation_form(self):
        forms = []
        for block in certify_blocks():
            reference_jacobi(block.copy(), relative_target(block), _JACOBI_MAX_SWEEPS, forms)
        assert {form for sweep in forms for form in sweep} == {"skip", "c=1", "c<1"}

    def test_tau_overflow_rotates_with_c_one_and_s_zero(self):
        # (1e-170)² underflows to 0, so no sweep would run; 1e-160 keeps a
        # subnormal square while τ = 5e159 still overflows in τ²
        matrix = np.array([[1.0, 1e-160], [1e-160, 2.0]])
        assert sweep_by_sweep(matrix, 0.0) == [["c=1"]]

    def test_zero_row_and_signed_zeros(self):
        matrix = np.array([
            [2.0, -0.0, 1.0, -0.0],
            [-0.0, 0.0, 0.0, -0.0],
            [1.0, 0.0, -3.0, 0.5],
            [-0.0, -0.0, 0.5, -0.0],
        ])
        forms = sweep_by_sweep(matrix, relative_target(matrix))
        assert forms[0] == ["skip", "c<1", "c<1", "skip", "skip", "c<1"]  # row 1 skipped

    def test_last_sweep_rotates_with_c_one_only(self):
        # the first rotation takes c = 1 with s = 1e-8 beside entries 0.5
        # and 3, large enough that s·r_p taken from the rotated row p reads
        # differently in the last bit
        matrix = np.array([[1.0, 1e-8, 0.5], [1e-8, 2.0, 3.0], [0.5, 3.0, 4.0]])
        forms = sweep_by_sweep(matrix, relative_target(matrix))
        assert forms[0] == ["c=1", "c<1", "c<1"] and forms[-1] == ["c=1"] * 3

    @given(float_symmetric_matrices(max_size=24))
    @settings(max_examples=60)
    def test_every_sweep_keeps_the_matrix_bitwise_symmetric(self, matrix):
        assert np.array_equal(matrix, matrix.T)
        target = relative_target(matrix)
        for _ in range(_JACOBI_MAX_SWEEPS):
            off, sweeps = _jacobi(matrix, target, 1)  # one sweep at most
            assert np.array_equal(matrix, matrix.T)
            if sweeps == 0:
                break

    @given(
        step_sets(denominators=(3, 8, 12, 64)),
        st.integers(0, 5),
        st.sampled_from([F(1, 2), F(43, 64), F(3, 4), F(1)]),
    )
    @settings(max_examples=60)
    def test_float_view_is_bitwise_symmetric(self, region, depth, p):
        family = enumerate_family(depth, region, p)
        raw = build_gram(family, region)
        views = [raw.as_float()]
        if all(raw.diagonal):
            views.append(build_gram(family, region, normalized=True).as_float())
        for matrix in views:
            assert np.array_equal(matrix, matrix.T)
            for members in _components(raw.lower):
                block = matrix[np.ix_(members, members)]
                assert np.array_equal(block, block.T)

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60)
    def test_float_view_of_any_store_is_bitwise_symmetric(self, n, seed, normalized):
        rng = np.random.default_rng(seed)
        diagonal = rng.uniform(0.1, 10.0, n).tolist()
        lower = [
            tuple((j, F(int(rng.integers(-99, 100)), int(rng.integers(1, 64))))
                  for j in range(i) if rng.random() < 0.4)
            for i in range(n)
        ]
        matrix = float_view(diagonal, lower, normalized)
        assert np.array_equal(matrix, matrix.T)


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
        assert not ldlt_psd([[F(0), F(1)], [F(1), F(0)]])
        assert ldlt_psd([[F(0), F(0)], [F(0), F(0)]])

    def test_fraction_and_gmpy_paths_agree(self):
        """The exact PSD verdict does not depend on how the arithmetic is done.

        This once compared the Fraction and gmpy2 arithmetic of the exact LDLᵀ;
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
            assert ldlt_psd(m) is verdict, m
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
            assert ldlt_psd(rows) is psd_by_principal_minors(rows), rows

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
                assert ldlt_psd(rows) is verdict
                verdicts.append((verdict, not any(any(row) for row in rows)))
        assert max(gram.size for gram, _ in grams) >= 50
        assert {v for v, _ in verdicts} == {True, False}
        assert (True, True) in verdicts  # singular PSD: Bessel at p = 1 on the full set

    def test_elimination_rules(self):
        # one small matrix per rule of the LDLᵀ, verdicts by hand
        assert not ldlt_psd([[F(-1)]])  # negative pivot
        assert not ldlt_psd([[F(1), F(0)], [F(0), F(-1)]])
        # zero pivot with a surviving entry: [[a, m], [m, 0]] has det −m²
        assert not ldlt_psd([[F(1), F(1)], [F(1), F(0)]])
        # eigenvalues 3 and −1; only the pivot's diagonal update shows it
        assert not ldlt_psd([[F(1), F(2)], [F(2), F(1)]])
        # eliminating the last row cancels the (1, 0) entry to zero and
        # leaves a zero pivot with an empty row: PSD (rank 2)
        assert ldlt_psd([[F(2), F(1), F(1)], [F(1), F(1), F(1)], [F(1), F(1), F(1)]])
        # the same with the (1, 0) entry not cancelled: [[1, −1], [−1, 0]]
        # remains, indefinite
        assert not ldlt_psd([[F(2), F(0), F(1)], [F(0), F(1), F(1)], [F(1), F(1), F(1)]])
        # the first row decides: eliminating it first would miss the update
        # that the later rows make to it
        assert not ldlt_psd([[F(1), F(1), F(1)], [F(1), F(1), F(0)], [F(1), F(0), F(1)]])

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
            assert ldlt_psd(rows) is verdict
            assert ldlt_psd(permuted) is verdict

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
        assert ldlt_psd(rows) is verdict
        assert ldlt_psd(permuted) is verdict

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


def ldlt_riesz(family, region, c) -> bool:
    """The LDLᵀ's Riesz verdict on the family's Fraction Gram matrix."""
    gram = build_gram(family, region)
    return psd_certificate(gram, c, gram.diagonal)


def ldlt_bessel(family, region, p) -> bool:
    """The LDLᵀ's Bessel verdict on the family's Fraction Gram matrix."""
    return bessel_certificate(build_gram(family, region), p)


def last_true(holds, top: int) -> int:
    """The largest k in [0, top) with holds(k), for holds monotone
    decreasing in k and true at 0: bisection."""
    lo, hi = 0, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


@st.composite
def chain_families(draw):
    """(family, leaf): members around the ancestor chain of one leaf down to
    level 30, in any order — chain nodes, their siblings and a few shallow
    intervals — each listed one to five times."""
    level = draw(st.integers(0, 30))
    index = draw(st.integers(0, (1 << level) - 1))
    chain = [DyadicInterval(l, index >> (level - l)) for l in range(level + 1)]
    near = chain + [DyadicInterval(i.level, i.index ^ 1) for i in chain[1:]]
    distinct = draw(st.lists(st.sampled_from(near), max_size=10, unique=True))
    distinct += draw(st.lists(dyadic_intervals(max_level=4), max_size=3, unique=True))
    distinct = list(dict.fromkeys(distinct))
    copies = draw(
        st.lists(
            st.sampled_from([1, 1, 1, 2, 3, 4, 5]),
            min_size=len(distinct),
            max_size=len(distinct),
        )
    )
    family = [i for i, k in zip(distinct, copies) for _ in range(k)]
    return draw(st.permutations(family)), chain[-1]


@st.composite
def sets_around(draw, leaf):
    """A step set whose ends mix points near the leaf, on a grid finer than
    its halves' quarters, with arbitrary rationals over 97, 1000 and 2^20."""
    near = st.fractions(min_value=-1, max_value=2, max_denominator=16).map(
        lambda x: leaf.left + x * leaf.measure
    )
    anywhere = st.sampled_from([97, 1000, 1 << 20]).flatmap(
        lambda d: st.integers(0, d).map(lambda k: F(k, d))
    )
    points = draw(st.lists(st.one_of(near, anywhere), max_size=8))
    points = sorted({min(max(x, F(0)), F(1)) for x in points})
    return StepSet(list(zip(points[0::2], points[1::2])))


RIESZ_SHIFTS = [F(-1, 2), F(0), F(1, 100), F(1, 4), F(1, 2), F(1), F(3, 2)]
BESSEL_PS = [F(1, 3), F(1, 2), F(2, 3), F(43, 64), F(3, 4), F(1)]


class TestPivotVerdicts:
    """verify_riesz and verify_bessel decide by one pivot pass over the
    members; each verdict equals the LDLᵀ's on the family's Gram matrix, at
    fixed points and at the edges of the pass's own bracket."""

    def assert_agrees(self, family, region):
        grid = 1 << 20
        edge = last_true(lambda k: verify_riesz(family, region, F(k, grid)), 2 * grid)
        for c in RIESZ_SHIFTS + [F(edge, grid), F(edge + 1, grid)]:
            assert verify_riesz(family, region, c) is ldlt_riesz(family, region, c), c
        # the Bessel verdict falls as p grows: its edge on the grid of (0, 1]
        edge = last_true(lambda k: verify_bessel(family, region, F(k + 1, grid)), grid)
        edges = [F(k, grid) for k in (edge + 1, edge + 2) if k <= grid]
        for p in BESSEL_PS + edges:
            assert verify_bessel(family, region, p) is ldlt_bessel(family, region, p), p

    @given(st.data())
    @settings(max_examples=60)
    def test_chains_to_level_30_in_any_order_with_repeats(self, data):
        family, leaf = data.draw(chain_families())
        self.assert_agrees(family, data.draw(sets_around(leaf)))

    @given(
        step_sets(denominators=(3, 7, 12, 64, 97)),
        st.integers(0, 5),
        st.sampled_from([F(1, 2), F(2, 3), F(43, 64), F(3, 4), F(9, 10)]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_admissible_families_in_any_order(self, region, depth, p, rng):
        family = enumerate_family(depth, region, p)
        rng.shuffle(family)
        self.assert_agrees(family, region)
        assert verify_bessel(family, region, p) is ldlt_bessel(family, region, p)

    def test_zigzag_family_at_level_26(self):
        family = zigzag_coefficients(13).support()
        assert max(i.level for i in family) == 26
        for c in (F(1, 2), F(1, 10), F(1, 100)):
            verdict = verify_riesz(family, TWO_THIRDS_SET, c)
            assert verdict is ldlt_riesz(family, TWO_THIRDS_SET, c), c
        assert verify_riesz(family, TWO_THIRDS_SET, F(1, 100))
        assert not verify_riesz(family, TWO_THIRDS_SET, F(1, 10))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_repeated_member_of_positive_mass(self, k):
        # k copies of one vector u: G = m·J and D = m·I on them
        family = [DyadicInterval(1, 0)] * k + [DyadicInterval(0, 0)]
        assert not verify_riesz(family, TWO_THIRDS_SET, F(1, 1000))
        assert verify_riesz(family, TWO_THIRDS_SET, F(0))
        # (1/p)·m·I − m·J ⪰ 0 on the copies exactly when 1/p ≥ k
        for p in (F(1, k), F(1, k) + F(1, 1000)):
            verdict = verify_bessel(family[:k], TWO_THIRDS_SET, p)
            assert verdict is ldlt_bessel(family[:k], TWO_THIRDS_SET, p) is (p <= F(1, k))
        for c in RIESZ_SHIFTS:
            assert verify_riesz(family, TWO_THIRDS_SET, c) is ldlt_riesz(
                family, TWO_THIRDS_SET, c
            )

    @pytest.mark.parametrize("k", [2, 5])
    def test_repeated_member_of_zero_mass_drops_out(self, k):
        # [2/3, 1) misses E = [0, 2/3) on [3/4, 1): that member has mass 0
        dead = DyadicInterval(2, 3)
        family = [DyadicInterval(0, 0), DyadicInterval(1, 1)] + [dead] * k
        for c in RIESZ_SHIFTS:
            verdict = verify_riesz(family, TWO_THIRDS_SET, c)
            assert verdict is verify_riesz(family[:2], TWO_THIRDS_SET, c), c
            assert verdict is ldlt_riesz(family, TWO_THIRDS_SET, c), c
        for p in BESSEL_PS:
            verdict = verify_bessel(family, TWO_THIRDS_SET, p)
            assert verdict is verify_bessel(family[:2], TWO_THIRDS_SET, p), p
            assert verdict is ldlt_bessel(family, TWO_THIRDS_SET, p), p

    def test_no_gram_matrix_is_built(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a family verdict built a Gram matrix")

        for name in ("build_gram", "_chain_store", "_ldlt_psd", "GramMatrix"):
            monkeypatch.setattr(gram_module, name, unreachable)
        family = enumerate_family(5, TWO_THIRDS_SET, F(1, 2))
        assert verify_riesz(family, TWO_THIRDS_SET, F(1, 16))
        assert verify_bessel(family, TWO_THIRDS_SET, F(1, 2))


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

    def test_cap_checked_before_the_store(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the store was started")

        monkeypatch.setattr(gram_module, "Fraction", reached)
        for n in (gram_module.MAX_VECTORS + 1, 10**9):
            with pytest.raises(InputError):
                perturbation_demo(n)
        with pytest.raises(AssertionError):  # the cap itself is accepted
            perturbation_demo(gram_module.MAX_VECTORS)

