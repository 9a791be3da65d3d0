"""The always-available numpy pool backend (the default).

Resolves the pool factory registered for ``("numpy", type(problem))``
— the vectorised whole-pool kernels flowshop and TSP register — or
``None`` when the problem registered none, in which case the engine
bounds every node lazily with :meth:`Problem.lower_bound`.

This backend is also the fallback target the optional numba backend
degrades to when its dependency is missing.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.kernels.base import BoundKernel, PoolEvaluator
from repro.core.kernels.registry import pool_factory_for

__all__ = ["NumpyKernel"]


class NumpyKernel(BoundKernel):
    """Pure-numpy pool kernels; always available."""

    name = "numpy"

    def evaluator_for(self, problem: Any) -> Optional[PoolEvaluator]:
        factory = pool_factory_for(self.name, type(problem))
        if factory is None:
            return None
        return factory(problem)
