"""Unit tests for multi-level recursive Strassen and the block kernels."""

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.programs.strassen_recursive import strassen_recursive_program
from repro.runtime.distribution import DistributedArray, RowBlock
from repro.runtime.executor import ValueExecutor
from repro.runtime.kernels import Assemble2x2, Extract
from repro.runtime.verify import sequential_reference, verify_against_reference


class TestExtractKernel:
    def test_serial(self):
        x = np.arange(64, dtype=float).reshape(8, 8)
        kernel = Extract(8, 8, 2, 4, 3, 4)
        assert np.array_equal(kernel.serial({"x": x}), x[2:5, 4:8])

    @pytest.mark.parametrize("group", [1, 2, 3, 5])
    def test_local_matches_serial(self, group):
        x = np.arange(100, dtype=float).reshape(10, 10)
        kernel = Extract(10, 10, 3, 1, 5, 6)
        dx = DistributedArray.from_full(x, RowBlock(10, 10, group))
        blocks = {r: kernel.local(r, {"x": dx}) for r in range(group)}
        assembled = kernel.output_distribution(group).gather(blocks)
        assert np.array_equal(assembled, x[3:8, 1:7])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DistributionError, match="exceeds"):
            Extract(8, 8, 6, 0, 4, 4)

    def test_quadrants_cover_parent(self):
        x = np.arange(36, dtype=float).reshape(6, 6)
        quads = [
            Extract(6, 6, r0, c0, 3, 3).serial({"x": x})
            for r0 in (0, 3)
            for c0 in (0, 3)
        ]
        reassembled = np.block([[quads[0], quads[1]], [quads[2], quads[3]]])
        assert np.array_equal(reassembled, x)


class TestAssembleKernel:
    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_round_trip_with_extract(self, group):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 8))
        quads = {}
        for name, (r0, c0) in zip(
            ("c11", "c12", "c21", "c22"), [(0, 0), (0, 4), (4, 0), (4, 4)]
        ):
            sub = x[r0 : r0 + 4, c0 : c0 + 4]
            quads[name] = DistributedArray.from_full(sub, RowBlock(4, 4, group))
        kernel = Assemble2x2(4, 4)
        blocks = {r: kernel.local(r, quads) for r in range(group)}
        assembled = kernel.output_distribution(group).gather(blocks)
        assert np.allclose(assembled, x)

    def test_serial(self):
        kernel = Assemble2x2(2, 2)
        quads = {
            "c11": np.full((2, 2), 1.0),
            "c12": np.full((2, 2), 2.0),
            "c21": np.full((2, 2), 3.0),
            "c22": np.full((2, 2), 4.0),
        }
        out = kernel.serial(quads)
        assert out[0, 0] == 1.0 and out[0, 3] == 2.0
        assert out[3, 0] == 3.0 and out[3, 3] == 4.0


class TestRecursiveProgram:
    def test_level1_structure(self):
        bundle = strassen_recursive_program(8, 1)
        # 2 inits + 8 extracts + 10 pre + 7 muls + 8 post + 1 assemble = 36.
        assert bundle.mdg.n_nodes == 36

    def test_level2_scales(self):
        bundle = strassen_recursive_program(16, 2)
        assert bundle.mdg.n_nodes == 267
        bundle.mdg.validate()

    @pytest.mark.parametrize("levels,n", [(1, 8), (2, 16)])
    def test_equals_classical_product(self, levels, n):
        bundle = strassen_recursive_program(n, levels)
        values = sequential_reference(bundle.app)
        product = values[bundle.info["product_node"]]
        assert np.allclose(product, values["A"] @ values["B"])

    def test_distributed_execution_level2(self):
        bundle = strassen_recursive_program(16, 2)
        report = ValueExecutor(bundle.app).run(
            {name: 2 for name in bundle.app.computational_nodes()}
        )
        verify_against_reference(bundle.app, report)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            strassen_recursive_program(10, 2)

    def test_schedules_at_scale(self, cm5_16):
        """267-node MDG through PSA on a uniform allocation (no solve)."""
        from repro.scheduling.psa import prioritized_schedule

        bundle = strassen_recursive_program(16, 2)
        mdg = bundle.mdg.normalized()
        schedule = prioritized_schedule(
            mdg, {name: 4.0 for name in mdg.node_names()}, cm5_16
        )
        assert schedule.is_complete
        schedule.validate(schedule.info["weights"])

    def test_allocates_level1(self, cm5_16):
        from repro.allocation.solver import solve_allocation

        bundle = strassen_recursive_program(16, 1)
        allocation = solve_allocation(bundle.mdg.normalized(), cm5_16)
        assert allocation.phi > 0
