import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dquant import MpoChain, ShapePlan, decompose, plan_shapes, reconstruct, split_large_small
from dquant import compression_report, deco_quantize, mpo, quantize_rtn
from dquant.compress import factorize
from dquant.errors import (
    BondMismatch,
    DquantError,
    NonFiniteInput,
    ShapeMismatch,
    UnsupportedBits,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def rel_err(m, rec):
    m = m.astype(np.float64)
    return np.linalg.norm(m - rec.astype(np.float64)) / max(np.linalg.norm(m), 1e-30)


class TestPlanShapes:
    def test_large_square(self):
        p = plan_shapes(4096, 4096, 2)
        assert p.i_factors == (8, 512)
        assert p.j_factors == (8, 512)

    def test_prime_rows(self):
        p = plan_shapes(7, 16, 2)
        assert p.i_factors == (7, 1)
        assert p.j_factors == (8, 2)

    def test_unit_matrix(self):
        p = plan_shapes(1, 1, 2)
        assert p.i_factors == (1, 1)
        assert p.j_factors == (1, 1)

    def test_longer_chains_peel_left(self):
        assert plan_shapes(4096, 4096, 3).i_factors == (8, 8, 64)
        assert plan_shapes(512, 512, 4).i_factors == (8, 8, 8, 1)

    def test_products_match(self):
        for rows, cols, n in [(96, 100, 2), (97, 31, 3), (1024, 6, 4)]:
            p = plan_shapes(rows, cols, n)
            assert np.prod(p.i_factors) == rows
            assert np.prod(p.j_factors) == cols

    def test_invalid(self):
        with pytest.raises(ShapeMismatch):
            plan_shapes(4, 4, 1)
        with pytest.raises(ShapeMismatch):
            plan_shapes(0, 4, 2)

    @pytest.mark.parametrize(
        "i_factors,j_factors,match",
        [((2, 2), (2,), "equal length"), ((4,), (4,), "two positions"),
         ((2, 0), (2, 2), ">= 1")],
    )
    def test_shape_plan_checks(self, i_factors, j_factors, match):
        with pytest.raises(ShapeMismatch, match=match):
            ShapePlan(i_factors, j_factors)

    @pytest.mark.parametrize(
        "args",
        [(16, 16, 2.0), (16, 16, 2.5), (16.0, 16, 2), (16, 16.5, 2), (16, 16, "2")],
    )
    def test_plan_sizes_must_be_integers(self, args):
        with pytest.raises(ShapeMismatch, match="integer"):
            plan_shapes(*args)

    @pytest.mark.parametrize(
        "i_factors,j_factors", [((2.5, 8), (4, 4)), ((2, 8), (4.0, 4))]
    )
    def test_shape_plan_factors_must_be_integers(self, i_factors, j_factors):
        with pytest.raises(ShapeMismatch, match="integer"):
            ShapePlan(i_factors, j_factors)

    def test_numpy_integer_sizes_act_as_ints(self):
        plan = plan_shapes(np.int64(48), np.int32(40), np.int8(3))
        assert plan == plan_shapes(48, 40, 3)
        factors = ShapePlan((np.int64(2), np.uint8(8)), (np.int16(4), 4)).i_factors
        assert factors == (2, 8) and all(type(f) is int for f in factors)


class TestDecompose:
    def test_identity_exact(self):
        m = np.eye(4, dtype=np.float32)
        chain = decompose(m, ShapePlan((2, 2), (2, 2)))
        assert rel_err(m, reconstruct(chain)) < 1e-6

    def test_random_square_bond(self):
        m = rand((64, 64), 5)
        chain = decompose(m, ShapePlan((8, 8), (8, 8)))
        assert chain.bond_dims == (64,)
        assert rel_err(m, reconstruct(chain)) < 1e-5

    def test_bond_dimension_law(self):
        for rows, cols, n, seed in [(64, 48, 2, 1), (96, 60, 3, 2), (256, 80, 4, 3)]:
            plan = plan_shapes(rows, cols, n)
            chain = decompose(rand((rows, cols), seed), plan)
            assert chain.bond_dims == plan.bond_dims()

    @pytest.mark.parametrize(
        "shape,n", [((16, 16), 2), ((60, 44), 2), ((512, 512), 2), ((128, 96), 3)]
    )
    def test_exactness(self, shape, n):
        m = rand(shape, seed=sum(shape) + n)
        chain = decompose(m, plan_shapes(*shape, n))
        assert rel_err(m, reconstruct(chain)) < 1e-4

    def test_rank_one_exact(self):
        u = rand((64, 1), 1)
        v = rand((1, 48), 2)
        m = (u @ v).astype(np.float32)
        chain = decompose(m, plan_shapes(64, 48, 2))
        assert rel_err(m, reconstruct(chain)) < 1e-5

    def test_zero_matrix_gives_zero_cores(self):
        chain = decompose(np.zeros((16, 16), np.float32), plan_shapes(16, 16, 2))
        for core in chain.local_tensors:
            assert not core.any()
        np.testing.assert_array_equal(reconstruct(chain), np.zeros((16, 16)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            decompose(rand((8, 8)), ShapePlan((2, 2), (2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        m = rand((64, 64), 3)
        m[5, 17] = bad
        with pytest.raises(NonFiniteInput):
            decompose(m, plan_shapes(64, 64, 2))
        with pytest.raises(NonFiniteInput):
            deco_quantize(m, 4)

    def test_parameter_accounting_default_plan(self):
        # shapes only; the 4096 case is pure arithmetic on the plan
        plan = plan_shapes(4096, 4096, 2)
        d1 = plan.bond_dims()[0]
        first = 1 * 8 * 8 * d1
        last = d1 * 512 * 512 * 1
        total = first + last
        assert total >= 4096 * 4096
        assert first / total < 1e-3
        assert last / total >= 0.999
        assert (total - 4096 * 4096) / (4096 * 4096) < 1e-3

    def test_biasedness_large_shapes(self):
        # the small-core share shrinks as (i1*j1)^2 / (rows*cols)
        for rows, cols in [(1024, 1024), (2048, 512), (4096, 4096)]:
            plan = plan_shapes(rows, cols, 2)
            d1 = plan.bond_dims()[0]
            small = plan.i_factors[0] * plan.j_factors[0] * d1
            large = d1 * plan.i_factors[1] * plan.j_factors[1]
            assert small / large < 0.01


class TestReconstruct:
    def test_roundtrip_random_shapes(self):
        for shape, seed in [((48, 80), 0), ((512, 256), 1), ((37, 24), 2)]:
            m = rand(shape, seed)
            chain = decompose(m, plan_shapes(*shape, 2))
            assert rel_err(m, reconstruct(chain)) < 1e-4

    def test_zero_large_core(self):
        m = rand((16, 16), 3)
        chain = decompose(m, plan_shapes(16, 16, 2))
        zeroed = MpoChain(
            (chain.local_tensors[0], np.zeros_like(chain.local_tensors[1]))
        )
        np.testing.assert_array_equal(reconstruct(zeroed), np.zeros((16, 16)))

    def test_bond_mismatch(self):
        with pytest.raises(BondMismatch):
            MpoChain(
                (
                    np.zeros((1, 2, 2, 3), np.float32),
                    np.zeros((4, 2, 2, 1), np.float32),
                )
            )


    def test_one_core_chain(self):
        with pytest.raises(DquantError):
            MpoChain((np.zeros((1, 4, 4, 1), np.float32),))

    @pytest.mark.parametrize("first,last", [(2, 1), (1, 2)])
    def test_outer_bonds_must_be_one(self, first, last):
        with pytest.raises(BondMismatch, match="outer"):
            MpoChain(
                (
                    np.zeros((first, 2, 2, 3), np.float32),
                    np.zeros((3, 2, 2, last), np.float32),
                )
            )


class TestChainWidth:
    def test_read_off_the_packed_cores(self):
        m = rand((64, 64), 6)
        first, last = factorize(m, 2).local_tensors
        assert MpoChain((first, last)).bits is None
        chain = MpoChain((first, quantize_rtn(last, 8)))
        assert chain.bits == 8
        # 64 * 64 8-bit codes, one 16-bit scale and 64 float values at 16 bits
        assert compression_report(chain).ratio == pytest.approx(0.516, abs=1e-3)

    def test_packed_cores_of_two_widths(self):
        cores = factorize(rand((120, 72), 7), 3).local_tensors
        packed = (cores[0], quantize_rtn(cores[1], 4), quantize_rtn(cores[2], 8))
        with pytest.raises(UnsupportedBits):
            MpoChain(packed)

    def test_bits_is_not_a_constructor_argument(self):
        core = np.zeros((1, 2, 2, 1), np.float32)
        with pytest.raises(TypeError):
            MpoChain((core, core), 4)


class TestSplitLargeSmall:
    def test_typical(self):
        chain = MpoChain(
            (
                np.zeros((1, 8, 8, 64), np.float32),
                np.zeros((64, 512, 512, 1), np.float32),
            )
        )
        large, small = split_large_small(chain)
        assert large.shape == (64, 512, 512, 1)
        assert small.shape == (1, 8, 8, 64)

    def test_larger_first_core_is_large(self):
        chain = MpoChain(
            (
                np.zeros((1, 16, 16, 4), np.float32),
                np.zeros((4, 2, 2, 1), np.float32),
            )
        )
        large, small = split_large_small(chain)
        assert large is chain.local_tensors[0]
        assert small is chain.local_tensors[1]

    def test_tie_prefers_last(self):
        chain = decompose(rand((64, 64), 4), plan_shapes(64, 64, 2))
        large, small = split_large_small(chain)
        assert large is chain.local_tensors[1]
        assert small is chain.local_tensors[0]

    def test_unit_matrix(self):
        chain = decompose(np.ones((1, 1), np.float32), plan_shapes(1, 1, 2))
        large, _ = split_large_small(chain)
        assert large is chain.local_tensors[1]

    def test_rejects_length_three(self):
        chain = decompose(rand((8, 8), 5), plan_shapes(8, 8, 3))
        with pytest.raises(ShapeMismatch):
            split_large_small(chain)


def unfold(m, plan):
    """The first unfolding decompose splits: (i1*j1) x (i2*j2) for n=2."""
    (i1, i2), (j1, j2) = plan.i_factors, plan.j_factors
    t = m.astype(np.float64).reshape(i1, i2, j1, j2).transpose(0, 2, 1, 3)
    return t.reshape(i1 * j1, i2 * j2)


@st.composite
def split_inputs(draw):
    """A plan with n in {2, 3}, and a matrix of any rank, scaled by 1e-30..1e30.

    First factors up to 8 against later ones up to 8 make both wide and tall
    unfoldings.
    """
    n = draw(st.sampled_from([2, 3]))
    factor = st.integers(1, 8 if n == 2 else 4)
    plan = ShapePlan(
        tuple(draw(factor) for _ in range(n)), tuple(draw(factor) for _ in range(n))
    )
    rank = draw(st.integers(0, min(plan.rows, plan.cols)))
    scale = draw(st.sampled_from([1e-30, 1.0, 1e30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.standard_normal((plan.rows, rank))
    m = (left @ rng.standard_normal((rank, plan.cols)) * scale).astype(np.float32)
    return plan, m


class TestGramSplit:
    @settings(max_examples=150, deadline=None)
    @given(split_inputs())
    def test_reconstructs_with_planned_bonds(self, case):
        plan, m = case
        chain = decompose(m, plan)
        assert chain.bond_dims == plan.bond_dims()
        assert rel_err(m, reconstruct(chain)) <= 1e-5

    @settings(max_examples=150, deadline=None)
    @given(split_inputs().filter(lambda case: case[0].n == 2))
    def test_balanced_sorted_singular_values(self, case):
        plan, m = case
        first, last = (t.astype(np.float64) for t in decompose(m, plan).local_tensors)
        col_norms = np.linalg.norm(first.reshape(-1, first.shape[3]), axis=0)
        row_norms = np.linalg.norm(last.reshape(last.shape[0], -1), axis=1)
        sv = np.linalg.svd(unfold(m, plan), compute_uv=False)
        top = max(col_norms.max(), np.sqrt(sv[0]), 1e-300)
        np.testing.assert_allclose(col_norms, row_norms, rtol=0, atol=1e-6 * top)
        assert np.all(np.diff(col_norms) <= 1e-6 * top)
        # squared: the Gram route gets s_k to within about sqrt(eps) * s_1,
        # an error a square root inflates near s_k = 0
        np.testing.assert_allclose(
            col_norms**2, sv, rtol=0, atol=1e-6 * max(sv[0], 1e-300)
        )

    @pytest.mark.parametrize(
        "shape", [(64, 31250), (64, 8193), (37, 70001), (2, 5), (5000, 64)]
    )
    def test_split_in_place_is_the_one_product_split(self, shape):
        # column blocks whose width is not a multiple of the BLAS unroll, or
        # a one-column last block, change bytes; these shapes caught both
        mat = np.random.default_rng(shape[1]).standard_normal(shape)
        tall = shape[0] > shape[1]
        a = mat.T if tall else mat
        u = np.linalg.eigh(a @ a.T)[1][:, ::-1]
        proj = u.T @ a
        s = np.sqrt(np.einsum("ij,ij->i", proj, proj))
        order = np.argsort(-s, kind="stable")
        u, proj, s = u[:, order], proj[order], s[order]
        root = np.sqrt(s)
        proj /= np.where(root > 0, root, 1.0)[:, None]
        want = (proj.T, (u * root).T) if tall else (u * root, proj)
        for dtype in (np.float64, np.float32):
            got = mpo._split(mat.copy(), dtype)
            side = 0 if tall else 1  # proj's side, written as dtype
            for k, (g, w) in enumerate(zip(got, want)):
                w = w.astype(dtype) if k == side else w
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("shape", [(7, 301), (64, 48), (48, 64), (1, 96)])
    def test_float64_input_is_left_untouched(self, shape):
        # at 7 x 301 the interleaved view of the input is already contiguous,
        # and the split writes over its carry: the carry must be a copy
        m = rand(shape, 12).astype(np.float64)
        kept = m.copy()
        decompose(m, plan_shapes(*shape, 2))
        np.testing.assert_array_equal(m, kept)

    @pytest.mark.parametrize("shape", [(64, 48), (48, 64), (512, 1), (1, 96)])
    def test_wide_and_tall_unfoldings(self, shape):
        m = rand(shape, 11)
        plan = plan_shapes(*shape, 2)
        mat = unfold(m, plan)
        chain = decompose(m, plan)
        assert chain.bond_dims == (min(mat.shape),)
        assert rel_err(m, reconstruct(chain)) < 1e-6

    @settings(max_examples=120, deadline=None)
    @given(
        case=split_inputs(),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        dtype=st.sampled_from([np.float32, np.float64]),
        at=st.integers(0, 2**32 - 1),
    )
    def test_any_non_finite_entry_is_rejected(self, case, bad, dtype, at):
        plan, m = case
        m = m.astype(dtype)
        m.flat[at % m.size] = bad
        with pytest.raises(NonFiniteInput):
            decompose(m, plan)

    @pytest.mark.parametrize("shape", [(64, 64), (512, 1), (96, 60)])
    @pytest.mark.parametrize("big", [1e200, np.inf])
    def test_entries_too_large_to_square_are_rejected(self, shape, big):
        # finite float64 entries whose Gram matrix overflows to infinity, or
        # all-infinite ones: a typed error, with no floating-point warning
        m = rand(shape, 8).astype(np.float64) * big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput):
                decompose(m, plan_shapes(*shape, 2))
