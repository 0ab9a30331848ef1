"""The program corpus shared by the comm-check and solver-oracle tests:
both paper graphs, every built-in program, and the synthetic generators."""

from __future__ import annotations

import functools
import json
from pathlib import Path

from repro.graph import generators
from repro.graph.serialization import mdg_from_dict
from repro.programs import DEFAULT_SIZES, PROGRAM_FACTORIES

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "graphs"

#: name -> zero-arg MDG factory.
CORPUS = {
    "paper_example": generators.paper_example_mdg,
    "figure1": lambda: mdg_from_dict(
        json.loads((EXAMPLES / "figure1.json").read_text())
    ),
    "chain": lambda: generators.chain_mdg(6, seed=1),
    "fork_join": lambda: generators.fork_join_mdg(5, seed=2),
    "diamond": lambda: generators.diamond_mdg(3, seed=3),
    "layered_random": lambda: generators.layered_random_mdg(3, 4, seed=4),
    "series_parallel": lambda: generators.series_parallel_mdg(5, seed=5),
    **{
        name: functools.partial(
            lambda n_, f_: f_(n_).mdg, DEFAULT_SIZES[name], factory
        )
        for name, factory in PROGRAM_FACTORIES.items()
    },
}
