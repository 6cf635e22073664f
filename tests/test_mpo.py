import numpy as np
import pytest

from dquant import MpoChain, ShapePlan, decompose, plan_shapes, reconstruct, split_large_small
from dquant import deco_quantize
from dquant.errors import BondMismatch, NonFiniteInput, ShapeMismatch


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def rel_err(m, rec):
    denom = np.linalg.norm(m)
    return np.linalg.norm(m.astype(np.float64) - rec.astype(np.float64)) / max(
        denom, 1e-30
    )


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

    def test_tie_prefers_last(self):
        chain = decompose(rand((64, 64), 4), plan_shapes(64, 64, 2))
        large, small = split_large_small(chain)
        assert large is chain.local_tensors[1]
        assert small is chain.local_tensors[0]

    def test_unit_matrix(self):
        chain = decompose(np.ones((1, 1), np.float32), plan_shapes(1, 1, 2))
        large, _ = split_large_small(chain)
        assert large is chain.local_tensors[1]
