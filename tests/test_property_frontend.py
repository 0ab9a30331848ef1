"""Property tests of the frontend on randomized loop programs.

Random (but well-formed) loop programs must always lower to valid MDGs
whose wiring matches the dependence analysis, and their generated apps
must always execute correctly.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.appgen import build_app_graph
from repro.frontend.dependence import flow_dependences
from repro.frontend.ir import LoopProgram
from repro.frontend.lowering import lower_to_mdg
from repro.runtime.executor import ValueExecutor
from repro.runtime.verify import verify_against_reference

SETTINGS = dict(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def loop_programs(draw):
    """A random well-formed square-matrix loop program."""
    n = draw(st.integers(min_value=2, max_value=8))
    n_inits = draw(st.integers(min_value=1, max_value=3))
    n_ops = draw(st.integers(min_value=0, max_value=6))
    prog = LoopProgram("random")
    arrays: list[str] = []
    for k in range(n_inits):
        array = f"I{k}"
        prog.declare(array, n, n)
        prog.loop(f"init{k}", "matinit", writes=array)
        arrays.append(array)
    rng_choice = st.integers(min_value=0, max_value=10_000)
    for k in range(n_ops):
        out = f"T{k}"
        prog.declare(out, n, n)
        kind = ["matadd", "matsub", "matmul"][draw(rng_choice) % 3]
        a = arrays[draw(rng_choice) % len(arrays)]
        b = arrays[draw(rng_choice) % len(arrays)]
        prog.loop(f"op{k}", kind, writes=out, reads=(a, b))
        arrays.append(out)
    return prog


@settings(**SETTINGS)
@given(loop_programs())
def test_lowered_mdg_valid_and_consistent(program):
    mdg = lower_to_mdg(program)
    mdg.validate()
    assert mdg.n_nodes == len(program.loops)
    flow = {
        (d.source, d.target)
        for d in flow_dependences(program)
        if d.kind == "flow"
    }
    mdg_edges_with_transfers = {
        (e.source, e.target) for e in mdg.edges() if e.transfers
    }
    assert flow == mdg_edges_with_transfers


@settings(**SETTINGS)
@given(loop_programs(), st.integers(min_value=1, max_value=4))
def test_generated_app_executes_correctly(program, group):
    app = build_app_graph(program)
    report = ValueExecutor(app).run(
        {name: group for name in app.computational_nodes()}
    )
    verify_against_reference(app, report)


@settings(**SETTINGS)
@given(loop_programs())
def test_transfer_sizes_match_declarations(program):
    mdg = lower_to_mdg(program)
    for edge in mdg.edges():
        for transfer in edge.transfers:
            decl = program.arrays[transfer.label]
            assert transfer.length_bytes == decl.total_bytes


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(loop_programs())
def test_lowered_graphs_allocate(program):
    """Every random program's MDG makes it through the convex solver."""
    from repro.allocation.solver import solve_allocation
    from repro.machine.presets import cm5

    mdg = lower_to_mdg(program).normalized()
    allocation = solve_allocation(mdg, cm5(8))
    assert allocation.phi > 0
    assert np.all([v >= 1.0 - 1e-9 for v in allocation.processors.values()])
