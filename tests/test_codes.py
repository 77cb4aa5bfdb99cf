import numpy as np
import pytest

from hadaseg.codes import (
    Codebook,
    codebook_csv,
    decode_correlation,
    fwht,
    fwht_apply,
    min_pairwise_distance,
    read_codebook_csv,
    sylvester,
    verify,
    write_codebook_csv,
)
from hadaseg.errors import CapacityError, ClassIndexError, FormatError, ShapeError

# Reference order-8 matrix, transcribed by hand from the recursion.
H8 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, -1, 1, -1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1, 1],
        [1, 1, -1, -1, -1, -1, 1, 1],
        [1, -1, -1, 1, -1, 1, 1, -1],
    ],
    dtype=np.int8,
)


def _dense_product(v, cb):
    """v @ cb.matrix in float64, in column blocks so that large orders never
    hold the whole matrix in float64. Exact for small integer-valued v."""
    return np.concatenate(
        [v @ cb.matrix[:, j : j + 512].astype(np.float64) for j in range(0, cb.n, 512)],
        axis=-1,
    )


class TestSylvester:
    def test_base_case(self):
        assert np.array_equal(sylvester(0).matrix, [[1]])

    def test_order_two(self):
        assert np.array_equal(sylvester(1).matrix, [[1, 1], [1, -1]])

    def test_order_eight(self):
        assert np.array_equal(sylvester(3).matrix, H8)

    def test_defaults(self):
        cb = sylvester(3)
        assert (cb.k, cb.n, cb.num_classes) == (3, 8, 8)

    def test_capacity_limits(self):
        with pytest.raises(CapacityError):
            sylvester(17)
        with pytest.raises(CapacityError):
            sylvester(-1)

    def test_num_classes_range(self):
        assert sylvester(2, num_classes=3).num_classes == 3
        with pytest.raises(ClassIndexError):
            sylvester(2, num_classes=5)
        with pytest.raises(ClassIndexError):
            sylvester(2, num_classes=0)

    def test_matrix_is_read_only(self):
        cb = sylvester(2)
        with pytest.raises(ValueError):
            cb.matrix[0, 0] = -1

    @pytest.mark.parametrize("k", range(0, 11))
    def test_invariants(self, k):
        cb = sylvester(k)
        m = cb.matrix
        assert np.all(np.abs(m) == 1)
        assert np.array_equal(m, m.T)
        assert np.all(m[0] == 1) and np.all(m[:, 0] == 1)
        f = m.astype(np.float64)
        assert np.array_equal(f @ f.T, (2**k) * np.eye(2**k))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_pairwise_distance(self, k):
        assert min_pairwise_distance(sylvester(k)) == 2 ** (k - 1)


class TestFwht:
    def test_order_two_basis_vector(self):
        assert np.array_equal(fwht_apply(sylvester(1), [1.0, 0.0]), [1.0, 1.0])

    def test_codeword_transforms_to_scaled_basis(self):
        cb = sylvester(3)
        out = fwht_apply(cb, cb.matrix[2].astype(np.float64))
        assert np.array_equal(out, 8.0 * np.eye(8)[2])

    def test_matches_dense_product_seeded(self):
        rng = np.random.default_rng(42)
        cb = sylvester(5)
        v = rng.standard_normal(32)
        dense = cb.matrix.astype(np.float64) @ v
        assert np.abs(fwht_apply(cb, v) - dense).max() < 1e-9

    # k = 0..13 covers one Kronecker block (n <= 64), the 6 -> 7 block
    # boundary and three factors at k = 13.
    @pytest.mark.parametrize("k", range(0, 14))
    def test_dense_oracle_property(self, k):
        rng = np.random.default_rng(1000 + k)
        cb = sylvester(k)
        v = rng.standard_normal((20, cb.n))
        dense = _dense_product(v, cb)
        assert np.abs(fwht(v) - dense).max() < 1e-9
        assert np.abs(fwht_apply(cb, v) - dense).max() < 1e-9

    @pytest.mark.parametrize("k", [0, 1, 3, 6, 7, 10, 13])
    def test_exact_on_integer_input(self, k):
        rng = np.random.default_rng(2000 + k)
        cb = sylvester(k)
        v = rng.integers(-100, 101, size=(5, cb.n))
        assert np.array_equal(fwht(v), _dense_product(v, cb))

    def test_batched_last_axis(self):
        rng = np.random.default_rng(5)
        # [H, W, n] and [B, H, W, n], on one block and on two factors.
        for shape in [(4, 5, 8), (2, 3, 4, 8), (2, 3, 4, 64), (2, 1, 3, 256)]:
            cb = sylvester(shape[-1].bit_length() - 1)
            batch = rng.standard_normal(shape)
            out = fwht_apply(cb, batch)
            assert out.shape == shape
            dense = batch @ cb.matrix.astype(np.float64).T
            assert np.abs(out - dense).max() < 1e-9

    @pytest.mark.parametrize("k", [0, 3, 6, 7, 13])
    def test_returns_new_array(self, k):
        v = np.random.default_rng(k).standard_normal((3, 2**k))
        v.setflags(write=False)
        before = v.copy()
        out = fwht(v)
        assert not np.shares_memory(out, v)
        assert out.flags.writeable
        out[...] = 0.0
        assert np.array_equal(v, before)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fwht_apply(sylvester(2), np.zeros(5))
        with pytest.raises(ShapeError):
            fwht(np.zeros(6))
        with pytest.raises(ShapeError):
            fwht(np.zeros((3, 0)))


class TestEncodeDecode:
    @pytest.mark.parametrize("k", range(0, 9))
    def test_round_trip(self, k):
        cb = sylvester(k)
        for j in range(cb.num_classes):
            v = cb.matrix[j].astype(np.float64)
            assert decode_correlation(cb, v) == j

    def test_all_zeros_ties_to_zero(self):
        assert decode_correlation(sylvester(3), np.zeros(8)) == 0

    def test_three_flips_on_row_five(self):
        # Three sign flips exceed the guaranteed correction radius at n=8
        # (minimum distance 4 corrects only one flip). The nearest-codeword
        # oracle finds a three-way tie {2, 5, 6} at Hamming distance 3, so
        # the lowest-index rule decodes to 2, not back to 5.
        cb = sylvester(3)
        v = cb.matrix[5].astype(np.float64)
        v[[0, 1, 2]] *= -1.0

        distances = [int(np.sum(cb.matrix[j] != np.sign(v))) for j in range(8)]
        best = min(distances)
        tied = [j for j, d in enumerate(distances) if d == best]
        assert tied == [2, 5, 6]
        oracle_answer = tied[0]
        assert decode_correlation(cb, v) == oracle_answer == 2

    def test_single_flip_always_corrects(self):
        cb = sylvester(3)
        for j in range(8):
            for position in range(8):
                v = cb.matrix[j].astype(np.float64)
                v[position] *= -1.0
                assert decode_correlation(cb, v) == j

    def test_truncated_codebook_never_decodes_inactive_class(self):
        cb = sylvester(3, num_classes=5)
        v = cb.matrix[6].astype(np.float64)
        assert decode_correlation(cb, v) < 5

    def test_decode_length_mismatch(self):
        with pytest.raises(ShapeError):
            decode_correlation(sylvester(3), np.zeros(4))


class TestMinPairwiseDistance:
    def test_examples(self):
        assert min_pairwise_distance(sylvester(3)) == 4
        assert min_pairwise_distance(sylvester(1)) == 1

    def test_brute_force_oracle_k6(self):
        cb = sylvester(6)
        best = cb.n
        for i in range(cb.n):
            for j in range(i + 1, cb.n):
                best = min(best, int(np.sum(cb.matrix[i] != cb.matrix[j])))
        assert best == 32
        assert min_pairwise_distance(cb) == best

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            min_pairwise_distance(sylvester(0))


class TestCsvAndVerify:
    def test_round_trip(self, tmp_path):
        cb = sylvester(4)
        path = tmp_path / "h16.csv"
        write_codebook_csv(cb, path)
        loaded = read_codebook_csv(path)
        assert np.array_equal(loaded.matrix, cb.matrix)
        assert (loaded.k, loaded.n) == (4, 16)

    def test_csv_text_shape(self):
        text = codebook_csv(sylvester(1))
        assert text == "1,1\n1,-1\n"

    def test_rejects_non_hadamard(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1\n1,1\n")
        with pytest.raises(FormatError):
            read_codebook_csv(path)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,1\n1\n")
        with pytest.raises(FormatError):
            read_codebook_csv(path)

    def test_rejects_non_power_of_two(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("1,1,1\n1,1,1\n1,1,1\n")
        with pytest.raises(FormatError):
            read_codebook_csv(path)

    def test_verify_flags_tampering(self):
        tampered = H8.copy()
        tampered[3, 3] = -tampered[3, 3]
        cb = Codebook(k=3, n=8, matrix=tampered, num_classes=8)
        with pytest.raises(FormatError):
            verify(cb)

    def test_verify_accepts_construction(self):
        for k in range(0, 7):
            verify(sylvester(k))


class TestTransformSpeed:
    def test_fast_path_ratio_reported(self, capsys):
        # Performance property at n = 4096: the ratio is reported, not
        # asserted against a fixed bound (the acceptance gate asserts the
        # ordering separately).
        from hadaseg.cli import benchmark_fwht

        result = benchmark_fwht(12)
        assert result["max_abs_diff"] < 1e-9
        with capsys.disabled():
            print(
                f"\nfwht n=4096: fast {result['fwht_seconds']:.2e}s vs dense "
                f"{result['dense_seconds']:.2e}s, ratio {result['ratio']:.4f}"
            )
