"""Hardware-fidelity layer: how the simulated machine deviates from the model.

The analytic cost model (Section 4) is what the allocator optimizes; the
simulated machine is what "measures" execution. If the two were identical,
the paper's predicted-vs-actual experiment (Figure 9) would be a tautology,
so the simulator's ground truth adds small, physically motivated effects on
top of the model:

* **Compute curvature** — real data-parallel loops lose a little extra
  efficiency at high processor counts (boundary exchanges, cache effects).
  Modelled as a multiplicative term ``1 + curvature * (p - 1) / p_ref``
  applied to the *parallel* portion of Amdahl compute time.
* **Message serialization** — a processor sending/receiving ``k`` messages
  cannot fully pipeline their start-ups; a fraction of each additional
  start-up is serialized.
* **Jitter** — deterministic pseudo-random multiplicative noise per
  operation, seeded, so runs are reproducible.

All effects default to zero (``HardwareFidelity.ideal()``), in which case
the simulator realizes the analytic model exactly — the configuration unit
tests use to validate the simulator against closed-form costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.utils.validation import check_non_negative

__all__ = ["FIDELITY_NAMES", "HardwareFidelity"]

#: The fidelity presets a CLI flag or batch manifest may name.
FIDELITY_NAMES = ("ideal", "cm5")


@dataclass(frozen=True)
class HardwareFidelity:
    """Deviation knobs between the analytic model and simulated hardware.

    Parameters
    ----------
    compute_curvature:
        Extra relative compute cost at ``p = p_ref`` processors
        (0.05 = 5% slower than the model predicts at the reference size).
    startup_serialization:
        Fraction of each start-up beyond a node's first message that is
        serialized rather than overlapped (0 = perfect overlap).
    jitter:
        Standard deviation of multiplicative lognormal noise per operation
        (0 = deterministic).
    seed:
        Seed for the jitter stream.
    p_ref:
        Reference processor count for curvature normalization.
    """

    compute_curvature: float = 0.0
    startup_serialization: float = 0.0
    jitter: float = 0.0
    seed: int = 1994
    p_ref: int = 64

    def __post_init__(self) -> None:
        for name in ("compute_curvature", "startup_serialization", "jitter"):
            object.__setattr__(self, name, check_non_negative(name, getattr(self, name)))

    @staticmethod
    def ideal() -> "HardwareFidelity":
        """Hardware that matches the analytic model exactly."""
        return HardwareFidelity(0.0, 0.0, 0.0)

    @staticmethod
    def cm5_like() -> "HardwareFidelity":
        """Default deviations used for the Figure 9 reproduction."""
        return HardwareFidelity(
            compute_curvature=0.08,
            startup_serialization=0.25,
            jitter=0.01,
        )

    @staticmethod
    def named(name: str) -> "HardwareFidelity":
        """The preset called ``name`` (one of :data:`FIDELITY_NAMES`).

        Raises :class:`~repro.errors.ReproError` for any other name.
        """
        if name == "ideal":
            return HardwareFidelity.ideal()
        if name == "cm5":
            return HardwareFidelity.cm5_like()
        raise ReproError(
            f"unknown fidelity {name!r}; try: {', '.join(FIDELITY_NAMES)}"
        )

    @property
    def is_ideal(self) -> bool:
        return (
            self.compute_curvature == 0.0
            and self.startup_serialization == 0.0
            and self.jitter == 0.0
        )

    def rng(self) -> np.random.Generator:
        """A fresh, seeded generator for the jitter stream."""
        return np.random.default_rng(self.seed)

    def compute_scale(self, processors: float) -> float:
        """Multiplier on the parallel portion of compute time."""
        if self.compute_curvature == 0.0:
            return 1.0
        return 1.0 + self.compute_curvature * (processors - 1.0) / float(self.p_ref)

    def startup_scale(self, message_index: int) -> float:
        """Multiplier on the start-up of a node's ``message_index``-th
        (0-based) message at one processor: later messages pipeline less."""
        if message_index <= 0:
            return 1.0
        return 1.0 + self.startup_serialization

    def jitter_factor(self, rng: np.random.Generator) -> float:
        """One multiplicative noise draw (lognormal, mean ~1)."""
        if self.jitter == 0.0:
            return 1.0
        return float(np.exp(rng.normal(0.0, self.jitter)))
