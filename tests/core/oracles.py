"""Reference-predicate ranking oracles for the single-level query core.

Independent of :attr:`PricedSpace.thresholds`, ``best_ranks`` and
``sorted_order``: feasibility is the reference predicate evaluated as a
3-D broadcast mask (float subtraction order included), or the summed
totals under a power budget, and the feasible entries are ranked by a
stable ``np.lexsort`` on (cpi, area), which keeps ties in flat
enumeration order exactly like ``list.sort`` in
``Allocator._rank_reference``.
"""

import numpy as np

from repro.core.allocator import allocations_from_flat
from repro.errors import BudgetError
from repro.service.engine import pareto_frontier


def feasible_mask(priced, budget, power_budget=None):
    """Flat feasibility mask at ``budget`` (and ``power_budget``)."""
    if power_budget is not None:
        return (priced.area_grid <= budget) & (priced.power_grid <= power_budget)
    budget_left = (budget - priced.t_area[:, None]) - priced.i_area[None, :]
    return (
        (budget_left[:, :, None] >= 0)
        & (priced.d_area[None, None, :] <= budget_left[:, :, None])
    ).ravel()


def mask_rank(priced, budget, limit=None, power_budget=None):
    """The ranked allocations that fit, best first.

    Raises:
        BudgetError: if nothing fits.
    """
    flat = np.flatnonzero(feasible_mask(priced, budget, power_budget))
    if flat.size == 0:
        raise BudgetError(f"no configuration fits within {budget} rbes")
    flat = flat[np.lexsort((priced.area_grid[flat], priced.cpi_grid[flat]))]
    return allocations_from_flat(priced, flat[:limit])


def mask_rank_or_empty(priced, budget, limit=None, power_budget=None):
    """:func:`mask_rank`, with ``[]`` where nothing fits."""
    try:
        return mask_rank(priced, budget, limit, power_budget)
    except BudgetError:
        return []


def mask_pareto(priced, max_budget=None):
    """The (area, CPI) frontier of the entries that fit ``max_budget``.

    Raises:
        BudgetError: if nothing fits.
    """
    budget = np.inf if max_budget is None else max_budget
    return pareto_frontier(mask_rank(priced, budget))
