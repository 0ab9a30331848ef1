"""Unit tests for DSL-to-executable-app generation."""

import numpy as np
import pytest

from repro.errors import FrontendError
from repro.frontend.appgen import build_app_graph, compile_loop_program
from repro.frontend.ir import LoopProgram
from repro.runtime.executor import ValueExecutor
from repro.runtime.kernels import ColTransform, MatMul, RowTransform
from repro.runtime.verify import sequential_reference, verify_against_reference


def pipeline_source() -> LoopProgram:
    prog = LoopProgram("demo")
    for name in ("A", "B", "C", "D", "E"):
        prog.declare(name, 8, 8)
    prog.loop("iA", "matinit", writes="A")
    prog.loop("iB", "matinit", writes="B")
    prog.loop("mul", "matmul", writes="C", reads=("A", "B"))
    prog.loop("sub", "matsub", writes="D", reads=("C", "A"))
    prog.loop("col", "transform", writes="E", reads=("D",), column_access={"D"})
    return prog


class TestBuildAppGraph:
    def test_executes_and_verifies(self):
        app = build_app_graph(pipeline_source())
        report = ValueExecutor(app).run(
            {name: 2 for name in app.computational_nodes()}
        )
        verify_against_reference(app, report)

    def test_kernel_kinds(self):
        app = build_app_graph(pipeline_source())
        assert isinstance(app.nodes["mul"].kernel, MatMul)
        assert isinstance(app.nodes["col"].kernel, ColTransform)

    def test_row_transform_without_column_access(self):
        prog = LoopProgram("r").declare("A", 8, 8).declare("B", 8, 8)
        prog.loop("i", "matinit", writes="A")
        prog.loop("t", "transform", writes="B", reads=("A",))
        app = build_app_graph(prog)
        assert isinstance(app.nodes["t"].kernel, RowTransform)

    def test_custom_fill(self):
        prog = LoopProgram("f").declare("A", 4, 4)
        prog.loop("i", "matinit", writes="A")
        app = build_app_graph(prog, fills={"i": lambda i, j: i * 100.0 + j})
        values = sequential_reference(app)
        assert values["i"][1, 2] == 102.0

    def test_custom_matrix(self):
        prog = LoopProgram("m").declare("A", 4, 4).declare("B", 4, 4)
        prog.loop("i", "matinit", writes="A")
        prog.loop("t", "transform", writes="B", reads=("A",))
        app = build_app_graph(prog, matrices={"t": 2.0 * np.eye(4)})
        values = sequential_reference(app)
        assert np.allclose(values["t"], 2.0 * values["i"])

    def test_default_fills_deterministic(self):
        app1 = build_app_graph(pipeline_source())
        app2 = build_app_graph(pipeline_source())
        v1 = sequential_reference(app1)
        v2 = sequential_reference(app2)
        assert np.array_equal(v1["col"], v2["col"])

    def test_distinct_loops_get_distinct_fills(self):
        app = build_app_graph(pipeline_source())
        values = sequential_reference(app)
        assert not np.allclose(values["iA"], values["iB"])

    def test_wrong_read_count_rejected(self):
        prog = LoopProgram("bad").declare("A", 4, 4).declare("B", 4, 4)
        prog.loop("i", "matinit", writes="A")
        prog.loop("m", "matmul", writes="B", reads=("A",))
        with pytest.raises(FrontendError, match="exactly 2"):
            build_app_graph(prog)

    def test_rectangular_matmul_dims(self):
        prog = LoopProgram("rect")
        prog.declare("A", 4, 6).declare("B", 6, 3).declare("C", 4, 3)
        prog.loop("iA", "matinit", writes="A")
        prog.loop("iB", "matinit", writes="B")
        prog.loop("m", "matmul", writes="C", reads=("A", "B"))
        app = build_app_graph(prog)
        report = ValueExecutor(app).run({"iA": 2, "iB": 2, "m": 2})
        verify_against_reference(app, report)
        assert report.outputs["m"].shape == (4, 3)


class TestCompileLoopProgram:
    def test_bundle_coherent(self):
        bundle = compile_loop_program(pipeline_source())
        # MDG edges and app wiring agree.
        wired = {
            (producer, name)
            for name, node in bundle.app.nodes.items()
            for producer in node.inputs.values()
        }
        assert wired == {(e.source, e.target) for e in bundle.mdg.edges()}

    def test_full_chain_to_schedule(self, cm5_16):
        from repro.pipeline import compile_mdg

        bundle = compile_loop_program(pipeline_source())
        result = compile_mdg(bundle.mdg, cm5_16)
        assert result.schedule.is_complete

    def test_end_to_end_source_to_verified_run(self):
        """The full miniature compiler: source -> MDG -> allocation ->
        schedule -> value execution consistent with that schedule's
        allocation."""
        from repro.allocation.solver import solve_allocation
        from repro.machine.presets import cm5
        from repro.scheduling.psa import prioritized_schedule

        machine = cm5(8)
        bundle = compile_loop_program(pipeline_source())
        allocation = solve_allocation(bundle.mdg.normalized(), machine)
        schedule = prioritized_schedule(
            bundle.mdg, allocation.processors, machine
        )
        groups = {
            name: width
            for name, width in schedule.allocation().items()
            if not schedule.mdg.node(name).is_dummy
        }
        report = ValueExecutor(bundle.app).run(groups)
        verify_against_reference(bundle.app, report)
