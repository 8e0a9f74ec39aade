"""Exhaustive grid search over the tiling space.

The paper uses grid search on the DaVinci DNN accelerator, whose structured
memory model keeps the space small enough to enumerate.  The implementation
enumerates the cartesian candidate grid in a deterministic order and stops
when the evaluation budget is exhausted (the candidate cap of
:class:`~repro.search.space.TilingSearchSpace` keeps the grid bounded even for
long sequences).
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.search.base import SearchAlgorithm
from repro.search.history import SearchHistory
from repro.search.objective import SchedulerObjective
from repro.search.space import TilingSearchSpace

__all__ = ["GridSearch"]


class GridSearch(SearchAlgorithm):
    """Deterministic exhaustive enumeration of the candidate grid.

    The enumeration order is fixed, so the budget's worth of grid points is
    evaluated as one batch, with a history identical to the one-at-a-time
    loop.
    """

    name = "grid"

    def _run(
        self,
        objective: SchedulerObjective,
        space: TilingSearchSpace,
        budget: int,
        rng: np.random.Generator,
        history: SearchHistory,
    ) -> None:
        self._evaluate_batch(objective, list(islice(space.enumerate(), budget)), history)
