"""Uniform random search baseline.

Not used by the paper itself, but included as the natural control for the
search-algorithm ablation: MCTS and the Genetic Algorithm should find better
tilings than random sampling under the same evaluation budget.
"""

from __future__ import annotations

import numpy as np

from repro.search.base import SearchAlgorithm
from repro.search.history import SearchHistory
from repro.search.objective import SchedulerObjective
from repro.search.space import TilingSearchSpace

__all__ = ["RandomSearch"]


class RandomSearch(SearchAlgorithm):
    """Sample candidates uniformly at random from the space.

    Sampling never depends on evaluation results, so the whole budget is
    drawn up front and evaluated as one batch — the history is identical to
    the sample-evaluate-sample serial loop, and the analytic pre-pass sees
    every candidate at once.
    """

    name = "random"

    def _run(
        self,
        objective: SchedulerObjective,
        space: TilingSearchSpace,
        budget: int,
        rng: np.random.Generator,
        history: SearchHistory,
    ) -> None:
        self._evaluate_batch(objective, [space.sample(rng) for _ in range(budget)], history)
