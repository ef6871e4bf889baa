"""Tests for the hierarchical control plane: elastic budgets and the
cluster-level budget broker (conservation, determinism, and the
broker x placement sweep)."""


import pytest

from repro.broker import (
    BrokerView,
    BudgetOptimizerBroker,
    GlobalBroker,
    HarvestBroker,
    StaticBroker,
    TradeBroker,
    broker_names,
    make_broker,
    register_broker,
)
from repro.cluster import (
    ClusterSimulator,
    RecoveryConfig,
    ResourceBudget,
    ServerNode,
    coerce_budget,
    node_capacity,
    pool_totals,
    scaled_catalog,
)
from repro.errors import ClusterError
from repro.experiments.cluster import cluster_sweep
from repro.experiments.runner import RunConfig
from repro.obs import TraceCollector, use_collector
from repro.workloads.arrivals import poisson_trace

#: Tiny methodology for fast simulator tests.
TINY = RunConfig(duration_s=1.0, baseline_reset_s=0.5)


def tiny_trace(n_epochs=3, seed=7, initial_jobs=4, rate=1.5):
    return poisson_trace(
        n_epochs=n_epochs,
        arrival_rate=rate,
        mean_residency=2.0,
        suites=("ecp",),
        seed=seed,
        initial_jobs=initial_jobs,
    )


def view(node_id, budget, n_jobs=1, mean_speedup=1.0, catalog=None):
    """A BrokerView with a floor derived the way the simulator does it."""
    return BrokerView(
        node_id=node_id,
        budget=budget,
        floor=budget.floor(catalog, n_jobs),
        n_jobs=n_jobs,
        mean_speedup=mean_speedup,
    )


@pytest.fixture
def views3(catalog4):
    """Three nodes at full budget with a clear best/middle/worst order."""
    full = ResourceBudget.from_catalog(catalog4)
    return [
        view(0, full, n_jobs=2, mean_speedup=0.4, catalog=catalog4),
        view(1, full, n_jobs=1, mean_speedup=0.7, catalog=catalog4),
        view(2, full, n_jobs=1, mean_speedup=0.95, catalog=catalog4),
    ]


class TestResourceBudget:
    def test_normalizes_and_sorts(self, catalog4):
        budget = ResourceBudget({"llc_ways": 4, "cores": 2, "memory_bandwidth": 3})
        assert budget.names == ("cores", "llc_ways", "memory_bandwidth")
        assert budget.get("cores") == 2
        assert budget.total_units == 9

    def test_rejects_zero_units_and_duplicates(self):
        with pytest.raises(ClusterError):
            ResourceBudget((("cores", 0),))
        with pytest.raises(ClusterError):
            ResourceBudget((("cores", 1), ("cores", 2)))

    def test_transfer_round_trips(self, catalog4):
        budget = ResourceBudget.from_catalog(catalog4)
        grown = budget.transfer("cores", 2)
        assert grown.get("cores") == budget.get("cores") + 2
        assert grown.transfer("cores", -2) == budget
        with pytest.raises(ClusterError):
            budget.transfer("cores", -budget.get("cores"))  # would hit 0

    def test_capacity_and_floor(self, catalog4):
        budget = ResourceBudget.from_catalog(catalog4)
        assert budget.capacity(catalog4) == node_capacity(catalog4)
        floor = budget.floor(catalog4, n_jobs=3)
        assert all(floor.get(r.name) == 3 * r.min_units for r in catalog4)
        # An empty node still owns one unit of everything.
        empty_floor = budget.floor(catalog4, n_jobs=0)
        assert all(empty_floor.get(name) >= 1 for name in empty_floor.names)

    def test_scaled_catalog_preserves_identity_at_full_budget(self, catalog4):
        full = ResourceBudget.from_catalog(catalog4)
        assert scaled_catalog(catalog4, full) is catalog4
        shrunk = scaled_catalog(catalog4, full.transfer("cores", -1))
        assert shrunk is not catalog4
        assert {r.name: r.units for r in shrunk}["cores"] == full.get("cores") - 1

    def test_coerce_budget_forms(self, catalog4):
        uniform = coerce_budget(3, catalog4)
        assert all(n == 3 for _, n in uniform.units)
        mapping = coerce_budget({r.name: 2 for r in catalog4}, catalog4)
        assert mapping.total_units == 2 * len(catalog4)
        assert coerce_budget(uniform, catalog4) is uniform
        with pytest.raises(ClusterError):
            coerce_budget({"cores": 2}, catalog4)  # missing resources
        with pytest.raises(ClusterError):
            coerce_budget(2.5, catalog4)

    def test_pool_totals(self, catalog4):
        budgets = [ResourceBudget.uniform(catalog4, n) for n in (2, 3, 4)]
        assert pool_totals(budgets) == {r.name: 9 for r in catalog4}


class TestBudgetedNode:
    def test_capacity_tracks_budget(self, catalog4, registry):
        node = ServerNode(0, catalog4)
        assert node.capacity == node_capacity(catalog4)
        node.set_budget(ResourceBudget.uniform(catalog4, 2))
        assert node.capacity == 2
        assert node.effective_catalog is not catalog4

    def test_budget_cannot_strand_resident_jobs(self, catalog4, registry):
        from repro.workloads.arrivals import JobArrival

        node = ServerNode(0, catalog4)
        for job_id in range(2):
            node.add_job(JobArrival(job_id, registry.get("canneal"), 0))
        with pytest.raises(ClusterError):
            node.set_budget(ResourceBudget.uniform(catalog4, 1))

    def test_budget_must_match_catalog(self, catalog4):
        node = ServerNode(0, catalog4)
        with pytest.raises(ClusterError):
            node.set_budget(ResourceBudget((("cores", 4),)))


class TestBrokerRegistry:
    def test_all_schemes_registered(self):
        assert set(broker_names()) >= {"static", "harvest", "trade", "bo"}

    def test_unknown_scheme_raises(self):
        with pytest.raises(ClusterError):
            make_broker("nope")


class TestConservation:
    @pytest.mark.parametrize("name", ["static", "harvest", "trade", "bo"])
    def test_every_scheme_conserves_the_pool(self, name, views3, catalog4):
        broker = make_broker(name)
        views = views3
        pool = pool_totals(v.budget for v in views)
        for epoch in range(5):
            decision = broker.decide(epoch, views)
            assert pool_totals(decision.values()) == pool
            # Feed the decision back as the next epoch's budgets.
            views = [
                BrokerView(
                    node_id=v.node_id,
                    budget=decision[v.node_id],
                    floor=decision[v.node_id].floor(catalog4, v.n_jobs),
                    n_jobs=v.n_jobs,
                    mean_speedup=v.mean_speedup,
                )
                for v in views
            ]

    @pytest.mark.parametrize("name", ["harvest", "trade", "bo"])
    def test_floors_respected(self, name, views3):
        broker = make_broker(name)
        decision = broker.decide(0, views3)
        for v in views3:
            new = decision[v.node_id]
            for resource in v.floor.names:
                assert new.get(resource) >= v.floor.get(resource)


class TestStaticBroker:
    def test_never_moves_anything(self, views3):
        decision = StaticBroker().decide(0, views3)
        assert decision == {v.node_id: v.budget for v in views3}


class TestHarvestBroker:
    def test_moves_from_best_to_worst(self, views3):
        broker = HarvestBroker()
        decision = broker.decide(0, views3)
        # Node 0 is worst-off (speedup 0.4), node 2 best-off (0.95).
        assert decision[0].total_units > views3[0].budget.total_units
        assert decision[2].total_units < views3[2].budget.total_units
        assert decision[1] == views3[1].budget
        assert broker.moved_units > 0

    def test_level_fleet_stays_put(self, catalog4):
        full = ResourceBudget.from_catalog(catalog4)
        level = [view(i, full, mean_speedup=0.8, catalog=catalog4) for i in range(3)]
        broker = HarvestBroker()
        assert broker.decide(0, level) == {v.node_id: v.budget for v in level}

    def test_donor_without_slack_is_skipped(self, catalog4):
        # The best-off node is pinned at its floor; nothing can move.
        full = ResourceBudget.from_catalog(catalog4)
        floor_bound = ResourceBudget.uniform(catalog4, 4)
        views = [
            view(0, full, n_jobs=1, mean_speedup=0.4, catalog=catalog4),
            view(1, floor_bound, n_jobs=4, mean_speedup=0.9, catalog=catalog4),
        ]
        decision = HarvestBroker().decide(0, views)
        assert decision == {v.node_id: v.budget for v in views}

    def test_moves_one_unit_of_each_resource(self, views3):
        broker = HarvestBroker()
        decision = broker.decide(0, views3)
        for name in views3[0].budget.names:
            assert decision[0].get(name) == views3[0].budget.get(name) + 1
            assert decision[2].get(name) == views3[2].budget.get(name) - 1
        assert broker.moved_units == len(views3[0].budget.names)

    def test_any_strict_gap_moves(self, catalog4):
        full = ResourceBudget.from_catalog(catalog4)
        views = [
            view(0, full, mean_speedup=0.800, catalog=catalog4),
            view(1, full, mean_speedup=0.801, catalog=catalog4),
        ]
        decision = HarvestBroker().decide(0, views)
        assert decision[0].total_units == full.total_units + len(full.names)
        assert decision[1].total_units == full.total_units - len(full.names)


class TestTradeBroker:
    def test_hysteresis_blocks_near_tied_nodes(self, catalog4):
        full = ResourceBudget.from_catalog(catalog4)
        views = [
            view(0, full, mean_speedup=0.80, catalog=catalog4),
            view(1, full, mean_speedup=0.83, catalog=catalog4),
        ]
        broker = TradeBroker()
        assert broker.decide(0, views) == {v.node_id: v.budget for v in views}

    def test_trade_exchanges_resources(self, catalog4):
        # Worst node is cores-starved but llc-rich; best node is full.
        starved = ResourceBudget({"cores": 2, "llc_ways": 8, "memory_bandwidth": 4})
        full = ResourceBudget.from_catalog(catalog4)
        views = [
            view(0, starved, n_jobs=2, mean_speedup=0.3, catalog=catalog4),
            view(1, full, n_jobs=1, mean_speedup=0.9, catalog=catalog4),
        ]
        decision = TradeBroker().decide(0, views)
        # Worst received its scarcest resource (cores) from the best...
        assert decision[0].get("cores") == 3
        assert decision[1].get("cores") == 3
        # ... and paid with its most abundant (llc_ways).
        assert decision[0].get("llc_ways") == 7
        assert decision[1].get("llc_ways") == 5

    def test_cooldown_suppresses_reversal(self, catalog4):
        broker = TradeBroker()
        starved = ResourceBudget({"cores": 2, "llc_ways": 8, "memory_bandwidth": 4})
        full = ResourceBudget.from_catalog(catalog4)
        views = [
            view(0, starved, n_jobs=2, mean_speedup=0.3, catalog=catalog4),
            view(1, full, n_jobs=1, mean_speedup=0.9, catalog=catalog4),
        ]
        first = broker.decide(0, views)
        # Next epoch the roles swap exactly; the reverse of the executed
        # exchange is on cooldown, so nothing moves.
        swapped = [
            view(0, first[0], n_jobs=2, mean_speedup=0.9, catalog=catalog4),
            view(1, first[1], n_jobs=1, mean_speedup=0.3, catalog=catalog4),
        ]
        second = broker.decide(1, swapped)
        assert second == {v.node_id: v.budget for v in swapped}

    def test_gap_beyond_hysteresis_trades(self, catalog4):
        starved = ResourceBudget({"cores": 2, "llc_ways": 8, "memory_bandwidth": 4})
        full = ResourceBudget.from_catalog(catalog4)
        views = [
            view(0, starved, n_jobs=2, mean_speedup=0.80, catalog=catalog4),
            view(1, full, n_jobs=1, mean_speedup=0.86, catalog=catalog4),
        ]
        decision = TradeBroker().decide(0, views)
        assert decision[0].get("cores") == 3
        assert decision[0].get("llc_ways") == 7

    def test_reversal_allowed_once_cooldown_expires(self, catalog4):
        broker = TradeBroker()
        starved = ResourceBudget({"cores": 2, "llc_ways": 8, "memory_bandwidth": 4})
        full = ResourceBudget.from_catalog(catalog4)
        views = [
            view(0, starved, n_jobs=2, mean_speedup=0.3, catalog=catalog4),
            view(1, full, n_jobs=1, mean_speedup=0.9, catalog=catalog4),
        ]
        first = broker.decide(0, views)
        swapped = [
            view(0, first[0], n_jobs=2, mean_speedup=0.9, catalog=catalog4),
            view(1, first[1], n_jobs=1, mean_speedup=0.3, catalog=catalog4),
        ]
        unchanged = {v.node_id: v.budget for v in swapped}
        # The reverse exchange waits out the two-epoch cooldown...
        assert broker.decide(1, swapped) == unchanged
        assert broker.decide(2, swapped) == unchanged
        # ... and goes through on the epoch after it.
        third = broker.decide(3, swapped)
        assert third[1].get("cores") == first[1].get("cores") + 1
        assert third[0].get("cores") == first[0].get("cores") - 1


class TestBudgetOptimizerBroker:
    def test_warmup_leaves_budgets_alone(self, views3, catalog4):
        broker = BudgetOptimizerBroker()
        first = broker.decide(0, views3)
        assert first == {v.node_id: v.budget for v in views3}
        # The second observed sample ends the warm-up: BO suggests.
        second = broker.decide(1, views3)
        assert second != first
        assert pool_totals(second.values()) == pool_totals(first.values())

    def test_suggestions_are_repaired_onto_the_floors(self, catalog4):
        # Node 0 hosts three jobs, so most suggestions leave it short.
        full = ResourceBudget.from_catalog(catalog4)
        jobs = {0: 3, 1: 1, 2: 1}
        speedups = {0: 0.4, 1: 0.7, 2: 0.95}
        budgets = {node: full for node in jobs}
        pool = pool_totals(budgets.values())
        broker = BudgetOptimizerBroker()
        for epoch in range(8):
            views = [
                view(node, budgets[node], n_jobs=jobs[node],
                     mean_speedup=speedups[node], catalog=catalog4)
                for node in jobs
            ]
            budgets = broker.decide(epoch, views)
            assert pool_totals(budgets.values()) == pool
            for v in views:
                for name in v.floor.names:
                    assert budgets[v.node_id].get(name) >= v.floor.get(name)

    def test_node_count_is_fixed_by_the_first_decision(self, views3):
        broker = BudgetOptimizerBroker()
        broker.decide(0, views3)
        with pytest.raises(ClusterError, match="built for 3 nodes, saw 2"):
            broker.decide(1, views3[:2])

    def test_needs_one_resource_set_across_nodes(self, catalog4):
        full = ResourceBudget.from_catalog(catalog4)
        partial = ResourceBudget({"cores": 4, "llc_ways": 4})
        views = [
            BrokerView(node_id=0, budget=full, floor=full.floor(catalog4, 1),
                       n_jobs=1, mean_speedup=0.5),
            BrokerView(node_id=1, budget=partial,
                       floor=ResourceBudget({"cores": 1, "llc_ways": 1}),
                       n_jobs=1, mean_speedup=0.9),
        ]
        with pytest.raises(ClusterError, match="homogeneous resource set"):
            BudgetOptimizerBroker().decide(0, views)


class TestDeterminism:
    def _rounds(self, catalog4, n=6):
        """A fixed sequence of view-rounds with drifting speedups."""
        full = ResourceBudget.from_catalog(catalog4)
        rounds = []
        budgets = {0: full, 1: full, 2: full}
        for epoch in range(n):
            rounds.append(
                [
                    view(i, budgets[i], n_jobs=1,
                         mean_speedup=0.3 + 0.2 * ((i + epoch) % 3),
                         catalog=catalog4)
                    for i in range(3)
                ]
            )
        return rounds

    def _drive(self, broker, rounds, catalog4):
        """Feed rounds through a broker, chaining budgets like the
        simulator does, and collect every decision."""
        decisions = []
        budgets = None
        for epoch, round_views in enumerate(rounds):
            if budgets is not None:
                round_views = [
                    BrokerView(
                        node_id=v.node_id,
                        budget=budgets[v.node_id],
                        floor=budgets[v.node_id].floor(catalog4, v.n_jobs),
                        n_jobs=v.n_jobs,
                        mean_speedup=v.mean_speedup,
                    )
                    for v in round_views
                ]
            budgets = broker.decide(epoch, round_views)
            decisions.append(budgets)
        return decisions

    @pytest.mark.parametrize("name", ["harvest", "trade", "bo"])
    def test_fixed_seed_is_deterministic(self, name, catalog4):
        rounds = self._rounds(catalog4)
        a = self._drive(make_broker(name), rounds, catalog4)
        b = self._drive(make_broker(name), rounds, catalog4)
        assert a == b


@register_broker
class _LeakyBroker(GlobalBroker):
    """Test double: violates conservation by dropping one unit."""

    name = "_leaky"

    def decide(self, epoch, views):
        decision = self._unchanged(views)
        donor = views[-1].node_id
        decision[donor] = decision[donor].transfer("cores", -1)
        return decision


@register_broker
class _StarvingBroker(GlobalBroker):
    """Test double: moves everything it can, ignoring floors."""

    name = "_starving"

    def decide(self, epoch, views):
        decision = self._unchanged(views)
        a, b = views[0].node_id, views[-1].node_id
        units = decision[a].get("cores") - 1
        if units > 0:
            decision[a] = decision[a].transfer("cores", -units)
            decision[b] = decision[b].transfer("cores", units)
        return decision


class TestSimulatorIntegration:
    def test_static_broker_matches_no_broker_bit_for_bit(self, catalog4):
        trace = tiny_trace()
        results = []
        for broker in (None, "static"):
            sim = ClusterSimulator(
                trace, n_nodes=2, catalog=catalog4, epoch_config=TINY,
                policy="EqualPartition", seed=3, broker=broker,
            )
            results.append(sim.run())
        none_result, static_result = results
        assert static_result.records == none_result.records
        assert static_result.broker == "static"
        assert none_result.broker == "none"
        assert static_result.budget_transfers == 0

    @pytest.mark.parametrize("broker", ["harvest", "trade", "bo"])
    def test_pool_is_conserved_every_epoch(self, broker, catalog4):
        sim = ClusterSimulator(
            tiny_trace(n_epochs=3), n_nodes=3, catalog=catalog4,
            epoch_config=TINY, policy="EqualPartition", seed=3, broker=broker,
        )
        pool = sim.pool
        result = sim.run()
        for epoch in range(result.n_epochs):
            budgets = [r.budget for r in result.records if r.epoch == epoch]
            assert pool_totals(budgets) == pool
        # End state too: the nodes' final budgets still sum to the pool.
        assert pool_totals(n.budget for n in sim.nodes) == pool

    def test_broker_decisions_are_observable(self, catalog4):
        collector = TraceCollector()
        with use_collector(collector):
            ClusterSimulator(
                tiny_trace(n_epochs=3), n_nodes=3, catalog=catalog4,
                epoch_config=TINY, policy="EqualPartition", seed=3,
                broker="harvest",
            ).run()
        decides = [e for e in collector.events if e.name == "broker.decide"]
        assert len(decides) == 3
        transfers = [e for e in collector.events if e.name == "budget_transfer"]
        assert transfers, "harvest on an uneven fleet should move units"
        for event in transfers:
            args = dict(event.args)
            assert args["source"] != args["target"]
            assert args["units"] >= 1

    def test_heterogeneous_budgets_and_summary(self, catalog4):
        sim = ClusterSimulator(
            tiny_trace(), n_nodes=2, catalog=catalog4, epoch_config=TINY,
            policy="EqualPartition", seed=3,
            node_budgets=[4, {"cores": 3, "llc_ways": 4, "memory_bandwidth": 4}],
        )
        assert sim.nodes[0].capacity == 4
        assert sim.nodes[1].capacity == 3
        result = sim.run()
        summary = result.node_summary()
        assert len(summary[0]) == 6
        node0, node1 = summary
        assert node0[4] == 12.0  # mean budget units, constant without a broker
        assert node1[4] == 11.0
        assert 0.0 <= node0[5] <= 1.0  # budget occupancy is a fraction

    def test_node_budgets_length_must_match(self, catalog4):
        with pytest.raises(ClusterError):
            ClusterSimulator(
                tiny_trace(), n_nodes=2, catalog=catalog4,
                node_budgets=[4, 4, 4],
            )

    def test_conservation_violation_fails_loudly(self, catalog4):
        sim = ClusterSimulator(
            tiny_trace(), n_nodes=2, catalog=catalog4, epoch_config=TINY,
            policy="EqualPartition", seed=3, broker="_leaky",
        )
        with pytest.raises(ClusterError, match="conservation"):
            sim.run()

    def test_floor_violation_fails_loudly(self, catalog4):
        sim = ClusterSimulator(
            tiny_trace(initial_jobs=6, rate=3.0), n_nodes=2, catalog=catalog4,
            epoch_config=TINY, policy="EqualPartition", seed=3,
            broker="_starving",
        )
        with pytest.raises(ClusterError, match="floor"):
            sim.run()

    def test_slo_attainment(self, catalog4):
        result = ClusterSimulator(
            tiny_trace(), n_nodes=2, catalog=catalog4, epoch_config=TINY,
            policy="EqualPartition", seed=3,
        ).run()
        assert result.slo_attainment(0.0) == 1.0
        assert 0.0 <= result.slo_attainment(0.8) <= 1.0


class TestWarmStartUnderBroker:
    """Warm start must not carry state across a budget transfer.

    A transferred node's configuration space changes under it, so the
    prior epoch's partitionings (and the BO probe set) no longer fit:
    restoring them fails the node-epoch. Warm start applies only when
    membership *and* effective catalog are unchanged.
    """

    def run_cluster(self, broker, recovery, catalog4):
        quiet = poisson_trace(
            n_epochs=4, arrival_rate=0.0, mean_residency=10_000.0,
            suites=("ecp",), seed=5, initial_jobs=6,
        )
        return ClusterSimulator(
            quiet, n_nodes=3, placement="round_robin", policy="SATORI",
            catalog=catalog4, epoch_config=TINY, seed=1, warm_start=True,
            broker=broker, recovery=recovery,
        ).run()

    @pytest.mark.parametrize("broker", ["harvest", "trade"])
    @pytest.mark.parametrize("recovery", [None, RecoveryConfig()], ids=["plain", "recovery"])
    def test_transfers_cold_start_only_the_moved_nodes(self, broker, recovery, catalog4):
        # Without recovery an engine failure would raise out of run().
        result = self.run_cluster(broker, recovery, catalog4)
        assert result.budget_transfers > 0
        assert not any(record.failed for record in result.records)
        assert not any(
            event.kind == "node_epoch_failed" for event in result.fleet_events
        )
        by_coord = {(r.epoch, r.node_id): r for r in result.records}
        warm = [r for r in result.records if r.warm_started]
        assert warm, "unchanged nodes should still warm-start"
        for record in warm:
            previous = by_coord[(record.epoch - 1, record.node_id)]
            assert record.budget == previous.budget
            assert record.job_ids == previous.job_ids


class TestBrokerSweep:
    def test_sweep_and_deltas_vs_static(self, catalog4):
        sweep = cluster_sweep(
            tiny_trace(n_epochs=3), n_nodes=2,
            brokers=("static", "harvest"), placements=("round_robin",),
            policies=("EqualPartition",), catalog=catalog4, epoch_config=TINY,
            seed=3,
        )
        assert sweep.brokers() == ("static", "harvest")
        deltas = sweep.deltas_vs_static(0.8)
        assert len(deltas) == 1
        delta = deltas[0]
        assert delta.broker == "harvest"
        assert delta.speedup.n_common > 0
        assert delta.budget_transfers == sweep.cell(
            "round_robin", "EqualPartition", "harvest"
        ).result.budget_transfers

    def test_unknown_broker_rejected(self, catalog4):
        with pytest.raises(ClusterError):
            cluster_sweep(tiny_trace(), n_nodes=2, brokers=("nope",))

    def test_missing_cell_raises(self, catalog4):
        sweep = cluster_sweep(
            tiny_trace(n_epochs=2), n_nodes=2, brokers=("static",),
            placements=("round_robin",), policies=("EqualPartition",),
            catalog=catalog4, epoch_config=TINY, seed=3,
        )
        with pytest.raises(ClusterError):
            sweep.cell("round_robin", "EqualPartition", "harvest")
