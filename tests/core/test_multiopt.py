"""Differential and property tests for the exact frontier.

The contract under test (see :mod:`repro.core.multiopt`): the answer
:meth:`Frontier.best` reads off the frontier equals
:func:`exhaustive_best` bit for bit — choice, area, cpi and power —
under an area budget with or without a power budget, and every
frontier point is that answer at budgets equal to its own area and
power.  On the single-level priced grids it equals the brute-force
ranking's top-1 under the same summed-total feasibility predicate.

Several class and test names date from the greedy allocator these
cases first gated; every case now runs against the frontier.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import multiopt
from repro.core.allocator import Allocator, rank_priced
from repro.core.measure import measure_workload
from repro.core.multiopt import (
    StructureCurve,
    build_frontier,
    exhaustive_best,
    exhaustive_best_many,
    pareto_surface,
)
from repro.core.space import enumerate_cache_configs, enumerate_tlb_configs
from repro.errors import BudgetError
from repro.units import KB

SMALL_GRID = dict(
    capacities=(2 * KB, 4 * KB, 8 * KB),
    lines=(4, 8),
    assocs=(1, 2),
    tlb_entries=(64, 128),
    tlb_assocs=(1, 2),
    tlb_full_max=64,
    references=60_000,
)


@pytest.fixture(scope="module", params=["mach", "ultrix"])
def priced(request):
    curves = measure_workload("ousterhout", request.param, **SMALL_GRID)
    allocator = Allocator(curves)
    return allocator.price(
        tlbs=enumerate_tlb_configs(
            SMALL_GRID["tlb_entries"],
            SMALL_GRID["tlb_assocs"],
            SMALL_GRID["tlb_full_max"],
        ),
        icaches=enumerate_cache_configs(
            SMALL_GRID["capacities"],
            SMALL_GRID["lines"],
            SMALL_GRID["assocs"],
        ),
        dcaches=enumerate_cache_configs(
            SMALL_GRID["capacities"],
            SMALL_GRID["lines"],
            SMALL_GRID["assocs"],
        ),
    )


def priced_frontier(priced):
    return build_frontier(priced.structure_curves(), priced.fixed_cpi)


def assert_top1(selection, allocation):
    """A frontier answer equals a ranked allocation bit for bit."""
    assert selection.cpi == allocation.cpi
    assert selection.area == allocation.area_rbe
    config = allocation.config
    assert selection.keys == (config.tlb, config.icache, config.dcache)


def assert_matches_exhaustive(frontier, structures, fixed_cpi, budget, power):
    """Frontier and exhaustive agree on feasibility and every bit."""
    try:
        exact = exhaustive_best(structures, budget, fixed_cpi, power)
    except BudgetError:
        with pytest.raises(BudgetError):
            frontier.best(budget, power)
        return
    got = frontier.best(budget, power)
    assert got.choice == exact.choice
    assert got.keys == exact.keys
    assert (got.area, got.cpi, got.power) == (exact.area, exact.cpi, exact.power)


def _random_budgets(priced, n=40, seed=7):
    """Random budgets spanning infeasible through unconstrained —
    never bitwise-equal to an entry area, so the grid and reference
    feasibility predicates agree (see the ordering contract; exact
    boundaries are tests/core/test_tie_breaks.py's job)."""
    grid = np.asarray(priced.area_grid).ravel()
    rng = np.random.default_rng(seed)
    return rng.uniform(float(grid.min()) * 0.5, float(grid.max()) * 1.1, n)


def _exact_budgets(priced, n=40, seed=7):
    """Budgets bitwise-equal to entry areas (boundary points)."""
    grid = np.asarray(priced.area_grid).ravel()
    rng = np.random.default_rng(seed)
    return rng.choice(grid, size=min(n, grid.size), replace=False)


class TestGreedyMatchesExhaustive:
    def test_small_grid_bitwise(self, priced):
        """Frontier == brute-force ranking, bit for bit, across budgets."""
        frontier = priced_frontier(priced)
        for budget in _random_budgets(priced):
            try:
                best = rank_priced(priced, float(budget), limit=1)[0]
            except BudgetError:
                with pytest.raises(BudgetError):
                    frontier.best(float(budget))
                continue
            assert_top1(frontier.best(float(budget)), best)

    def test_small_grid_exact_boundaries(self, priced):
        """At exact entry-area budgets the frontier matches the optimum
        under its summed-total predicate (rank_priced with an unbounded
        power budget ranks under exactly that mask)."""
        frontier = priced_frontier(priced)
        for budget in _exact_budgets(priced):
            best = rank_priced(
                priced, float(budget), limit=1, power_budget=float("inf")
            )[0]
            assert_top1(frontier.best(float(budget)), best)

    @pytest.mark.slow
    def test_full_table5_grid_bitwise(self):
        """The paper-grid differential: frontier == Allocator.rank
        optima on the full Table 5 enumeration (random budgets), and
        the grid-predicate optima at exact entry areas."""
        curves = measure_workload("ousterhout", "mach", references=60_000)
        priced = Allocator(curves).price()
        frontier = priced_frontier(priced)
        grid = np.asarray(priced.area_grid).ravel()
        rng = np.random.default_rng(11)
        for budget in rng.uniform(float(grid.min()), float(grid.max()), 25):
            best = rank_priced(priced, float(budget), limit=1)[0]
            assert_top1(frontier.best(float(budget)), best)
        for budget in rng.choice(grid, size=25, replace=False):
            best = rank_priced(
                priced, float(budget), limit=1, power_budget=float("inf")
            )[0]
            assert_top1(frontier.best(float(budget)), best)


class TestRankAuto:
    """The single-level frontier against the exact rankings the
    service answers with (``rank_priced``, with and without a power
    budget)."""

    def test_auto_no_power_is_exact(self, priced):
        frontier = priced_frontier(priced)
        for budget in _random_budgets(priced, n=10):
            try:
                expect = rank_priced(priced, float(budget), limit=1)[0]
            except BudgetError:
                continue
            assert_top1(frontier.best(float(budget)), expect)

    def test_auto_power_uses_exact_ranking(self, priced):
        frontier = priced_frontier(priced)
        grid = np.asarray(priced.area_grid).ravel()
        power_grid = np.asarray(priced.power_grid).ravel()
        for q in (0.3, 0.5, 0.7):
            budget = float(np.quantile(grid, q))
            power = float(np.quantile(power_grid, 1.0 - q))
            expect = rank_priced(
                priced, budget, limit=1, power_budget=power
            )[0]
            assert_top1(frontier.best(budget, power), expect)

    def test_power_ranking_respects_both_budgets(self, priced):
        grid = np.asarray(priced.area_grid).ravel()
        power_grid = np.asarray(priced.power_grid).ravel()
        budget = float(np.quantile(grid, 0.6))
        power = float(np.quantile(power_grid, 0.4))
        for a in rank_priced(priced, budget, limit=50, power_budget=power):
            assert a.area_rbe <= budget
        top = rank_priced(priced, budget, limit=1, power_budget=power)[0]
        unconstrained = rank_priced(priced, budget, limit=1)[0]
        assert top.cpi >= unconstrained.cpi


def _synthetic(curves_spec, powers=None):
    out = []
    for idx, (areas, cpis) in enumerate(curves_spec):
        areas = np.asarray(areas, dtype=np.float64)
        out.append(
            StructureCurve(
                name=f"s{idx}",
                areas=areas,
                cpis=np.asarray(cpis, dtype=np.float64),
                keys=tuple(range(len(areas))),
                powers=(
                    np.asarray(powers[idx], dtype=np.float64)
                    if powers is not None
                    else np.zeros_like(areas)
                ),
            )
        )
    return out


class TestNonConvexRepair:
    """Non-convex curves: optima off each curve's convex hull."""

    def test_off_hull_optimum_is_recovered(self):
        """The optimum uses a point strictly above the convex hull."""
        structures = _synthetic(
            [
                # Point 1 (area 10, cpi 0.5) lies above the hull of
                # (0, 1.0) -> (20, 0.0); under budget 10 it is optimal.
                ([0.0, 10.0, 20.0], [1.0, 0.5, 0.0]),
                ([0.0], [0.0]),
            ]
        )
        result = build_frontier(structures).best(10.0)
        exact = exhaustive_best(structures, 10.0)
        assert result.cpi == exact.cpi == 0.5
        assert result.choice[0] == 1

    def test_three_coordinate_trade(self):
        """Optima that differ from any single- or pairwise-move
        neighbour in three coordinates at once."""
        structures = _synthetic(
            [
                ([0.0, 4.0, 6.0], [3.0, 1.4, 1.0]),
                ([0.0, 4.0, 6.0], [3.0, 1.4, 1.0]),
                ([0.0, 4.0, 6.0], [3.0, 1.4, 1.0]),
            ]
        )
        frontier = build_frontier(structures)
        for budget in (12.0, 14.0, 16.0, 18.0):
            assert_matches_exhaustive(frontier, structures, 0.0, budget, None)

    def test_random_staircases_match_exhaustive(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            spec = []
            for _s in range(3):
                n = int(rng.integers(2, 7))
                areas = np.sort(rng.uniform(0, 50, n))
                cpis = np.sort(rng.uniform(0, 4, n))[::-1].copy()
                spec.append((areas, cpis))
            structures = _synthetic(spec)
            frontier = build_frontier(structures)
            lo = float(sum(s.areas.min() for s in structures))
            hi = float(sum(s.areas.max() for s in structures))
            for budget in rng.uniform(lo, hi, 5):
                assert_matches_exhaustive(
                    frontier, structures, 0.0, float(budget), None
                )


# Values that collide: duplicates, and one-ULP neighbours that round
# equal once a shared suffix is added (1.0 + 2**-52 + 3.0 == 4.0).
_COLLIDING = (0.5, 1.0, np.nextafter(1.0, 2.0), 2.0, 3.0,
              np.nextafter(3.0, 4.0), 7.0)


@st.composite
def _spaces(draw):
    """Random small curves (2-4 structures of 1-4 points), half of
    them drawn from the colliding values."""
    colliding = draw(st.booleans())
    values = (
        st.sampled_from(_COLLIDING)
        if colliding
        else st.floats(0.0, 100.0, allow_subnormal=False)
    )
    structures = []
    for s in range(draw(st.integers(2, 4))):
        n = draw(st.integers(1, 4))

        def column():
            return np.array(
                draw(st.lists(values, min_size=n, max_size=n)),
                dtype=np.float64,
            )

        structures.append(
            StructureCurve(f"s{s}", column(), column(), tuple(range(n)), column())
        )
    fixed_cpi = draw(st.sampled_from((0.0, 1.0)) if colliding else values)
    return structures, float(fixed_cpi)


def _budget(data, totals):
    """An exact achieved total, one ULP either side, or anything."""
    exact = data.draw(st.sampled_from(sorted(set(totals))))
    step = data.draw(st.sampled_from((-np.inf, None, np.inf)))
    near = exact if step is None else float(np.nextafter(exact, step))
    return data.draw(st.sampled_from((near, near, float(max(totals)) + 1.0)))


def _totals(structures):
    """Every selection's left-folded (area, power) totals."""
    area = np.zeros(1)
    power = np.zeros(1)
    for s in structures:
        area = (area[:, None] + s.areas).ravel()
        power = (power[:, None] + s.powers).ravel()
    return area.tolist(), power.tolist()


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(1.0, 500.0), min_size=1, max_size=8),
           st.integers(0, 2**32 - 1))
    def test_optimum_monotone_in_budget(self, budgets, seed):
        """More area can never hurt: optimum CPI is non-increasing as
        the budget grows."""
        rng = np.random.default_rng(seed)
        spec = []
        for _s in range(3):
            n = int(rng.integers(2, 6))
            areas = np.sort(rng.uniform(0, 60, n))
            cpis = np.sort(rng.uniform(0, 3, n))[::-1].copy()
            spec.append((areas, cpis))
        frontier = build_frontier(_synthetic(spec))
        results = []
        for budget in sorted(budgets):
            try:
                results.append(frontier.best(budget))
            except BudgetError:
                results.append(None)
        cpis = [r.cpi for r in results if r is not None]
        assert cpis == sorted(cpis, reverse=True)
        # Feasibility is monotone too: once a budget fits, all larger
        # budgets fit.
        feas = [r is not None for r in results]
        assert feas == sorted(feas)

    @settings(max_examples=300, deadline=None)
    @given(_spaces(), st.data())
    def test_frontier_equals_exhaustive(self, space, data):
        """Bit-identical to exhaustive, with and without a power
        budget, at exact achieved totals and their ULP neighbours."""
        structures, fixed_cpi = space
        frontier = build_frontier(structures, fixed_cpi)
        areas, powers = _totals(structures)
        budget = _budget(data, areas)
        power = _budget(data, powers) if data.draw(st.booleans()) else None
        assert_matches_exhaustive(
            frontier, structures, fixed_cpi, budget, power
        )


class TestAnswerSet:
    @settings(max_examples=200, deadline=None)
    @given(_spaces())
    def test_every_point_answers_its_own_budgets(self, space):
        """No frontier point is dead: at budgets equal to its own area
        and power, the exhaustive optimum is that point (flat index
        and cpi)."""
        structures, fixed_cpi = space
        frontier = build_frontier(structures, fixed_cpi)
        sizes = [s.size for s in structures]
        exact = exhaustive_best_many(
            structures, list(zip(*frontier.points[:2])), fixed_cpi
        )
        for want, flat, cpi in zip(exact, frontier.flat, frontier.points[2]):
            assert np.ravel_multi_index(want.choice, sizes) == flat
            assert want.cpi == cpi


def _coarse_space(rng, count, n):
    """Curves trading area against cpi and power (few points prune
    away), on a coarse grid of values so totals tie often."""
    structures = []
    for s in range(count):
        areas = np.round(np.sort(rng.uniform(0, 40, n)), 1)
        cpis = np.round(np.sort(rng.uniform(0, 4, n))[::-1], 2)
        powers = np.round(rng.uniform(0, 10, n), 1)
        structures.append(
            StructureCurve(f"s{s}", areas, cpis, tuple(range(n)), powers)
        )
    return structures


class TestManyBlocks:
    def test_multiblock_stages_match_exhaustive(self):
        """Stages spanning many candidate blocks, so earlier stages
        test later blocks against kept points through the staircase
        filters and their exact fallback, and the last stage's answer
        sweep runs over the union of many blocks' survivors."""
        rng = np.random.default_rng(17)
        structures = _coarse_space(rng, 3, 24)
        frontier = build_frontier(structures, 1.0)
        areas, powers = _totals(structures)
        for i in rng.choice(len(areas), size=150, replace=False):
            for power in (None, powers[i]):
                assert_matches_exhaustive(
                    frontier, structures, 1.0, areas[i], power
                )

    def test_ties_across_last_stage_blocks(self):
        """Equal (cpi, area) totals in different last-stage blocks: the
        answer sweep must keep flat order among them.  Checked against
        exhaustive at achieved totals and their ULP neighbours."""
        rng = np.random.default_rng(23)
        structures = _coarse_space(rng, 3, 32)
        blocks = list(multiopt._candidates(
            *multiopt._partials(structures[:-1], 0.5), structures[-1]
        ))
        assert len(blocks) >= 10
        first_block = {}
        straddling = 0
        for b, (points, _) in enumerate(blocks):
            for total in set(zip(points[2].tolist(), points[0].tolist())):
                straddling += first_block.setdefault(total, b) != b
        assert straddling >= 100

        frontier = build_frontier(structures, 0.5)
        areas, powers = _totals(structures)
        budgets = []
        for i in rng.choice(len(areas), size=60, replace=False):
            for area in (np.nextafter(areas[i], -np.inf), areas[i],
                         np.nextafter(areas[i], np.inf)):
                for power in (None, np.nextafter(powers[i], -np.inf),
                              powers[i]):
                    budgets.append((float(area), power))
        exact = exhaustive_best_many(structures, budgets, 0.5)
        for (budget, power), want in zip(budgets, exact):
            if want is None:
                with pytest.raises(BudgetError):
                    frontier.best(budget, power)
            else:
                assert frontier.best(budget, power) == want
        # Every frontier point answers its own totals.
        sizes = [s.size for s in structures]
        exact = exhaustive_best_many(
            structures, list(zip(*frontier.points[:2])), 0.5
        )
        for want, flat in zip(exact, frontier.flat):
            assert np.ravel_multi_index(want.choice, sizes) == flat


class TestParetoSurface:
    def test_cells_feasible_and_nondominated(self):
        rng = np.random.default_rng(5)
        spec, powers = [], []
        for _s in range(3):
            areas = np.sort(rng.uniform(0, 60, 5))
            cpis = np.sort(rng.uniform(0, 3, 5))[::-1].copy()
            spec.append((areas, cpis))
            powers.append(rng.uniform(0.1, 10, 5))
        structures = _synthetic(spec, powers)
        cells = pareto_surface(
            build_frontier(structures),
            [40.0, 80.0, 160.0],
            [6.0, 12.0, 24.0],
        )
        assert cells
        for cell in cells:
            assert cell.result.area <= cell.area_budget
            assert cell.result.power <= cell.power_budget
            assert cell.result == exhaustive_best(
                structures, cell.area_budget, power_budget=cell.power_budget
            )
        # No two surviving cells share an achieved point, and none is
        # strictly dominated on the achieved (area, power, cpi) axes —
        # the surface's documented contract.
        achieved = [
            (c.result.area, c.result.power, c.result.cpi) for c in cells
        ]
        assert len(set(achieved)) == len(achieved)
        for a in cells:
            for b in cells:
                if a is b:
                    continue
                dominates = (
                    a.result.area <= b.result.area
                    and a.result.power <= b.result.power
                    and a.result.cpi <= b.result.cpi
                    and (
                        a.result.area < b.result.area
                        or a.result.power < b.result.power
                        or a.result.cpi < b.result.cpi
                    )
                )
                assert not dominates, (a, b)
