"""The declarative scenario subsystem: specs, registry, profiles, wiring.

Covers spec validation, registry behaviour, the venue archetypes and
mobility profiles, dropout bursts and the adversarial device regimes
(multipath bias, clock skew/jitter, duplicate retransmissions), streaming
materialisation, seed determinism, and every integration surface of the
scenario layer: experiment runners, the evaluation harness,
``repro.bench --queries --scenario``, the streaming replay and the CLI.
"""

import pytest

from repro.bench.runner import main as bench_main
from repro.evaluation.experiments import (
    ExperimentScale,
    build_real_style_dataset,
    mall_scenario_spec,
    resolve_dataset,
    run_accuracy_comparison,
)
from repro.evaluation.harness import MethodEvaluator
from repro.core.variants import make_annotator
from repro.indoor.builders import (
    build_airport_terminal,
    build_concourse_hub,
    build_hospital,
    build_office_tower,
    build_stadium,
)
from repro.indoor.topology import AccessibilityGraph
from repro.mobility.positioning import PositioningErrorModel
from repro.mobility.preprocessing import normalize_report_stream
from repro.mobility.simulator import (
    CommuterSimulator,
    CrowdSurgeSimulator,
    PeakHoursSimulator,
    WaypointSimulator,
)
from repro.scenarios import (
    DeviceSpec,
    MobilitySpec,
    ScenarioSpec,
    VenueSpec,
    get_scenario,
    materialize,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.scenarios.__main__ import main as scenarios_main
from repro.service import ReplayReport, replay_scenario


# ---------------------------------------------------------------- specs
class TestSpecs:
    def test_unknown_archetype_rejected(self):
        with pytest.raises(ValueError, match="archetype"):
            VenueSpec("atlantis-dome")

    def test_unknown_mobility_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            MobilitySpec("teleport")

    def test_device_spec_validation(self):
        with pytest.raises(ValueError, match="max_period"):
            DeviceSpec(max_period=0.0)
        with pytest.raises(ValueError, match="probability"):
            DeviceSpec(dropout_probability=1.5)

    def test_scenario_spec_validation(self):
        venue = VenueSpec("mall", params={"floors": 1, "shops_per_side": 3})
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec(name="", venue=venue)
        with pytest.raises(ValueError, match="object"):
            ScenarioSpec(name="x", venue=venue, objects=0)

    def test_params_mapping_is_normalised(self):
        a = VenueSpec("mall", params={"floors": 1, "shops_per_side": 3})
        b = VenueSpec("mall", params={"shops_per_side": 3, "floors": 1})
        assert a == b
        assert a.build().summary() == b.build().summary()


# -------------------------------------------------------------- registry
class TestRegistry:
    def test_catalogue_is_registered(self):
        names = scenario_names()
        assert "mall-tiny" in names
        assert "transit-morning-peak" in names

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="registered"):
            get_scenario("atlantis")

    def test_duplicate_registration_needs_replace(self):
        spec = get_scenario("mall-tiny")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)
        register_scenario(spec, replace=True)  # same spec back — harmless

    def test_register_and_unregister_custom_scenario(self):
        spec = ScenarioSpec(
            name="unit-test-lab",
            venue=VenueSpec("mall", params={"floors": 1, "shops_per_side": 3}),
            objects=2,
            duration=300.0,
            min_duration=60.0,
        )
        try:
            register_scenario(spec)
            assert get_scenario("unit-test-lab") is spec
        finally:
            unregister_scenario("unit-test-lab")
        assert "unit-test-lab" not in scenario_names()


# ----------------------------------------------------------- determinism
class TestDeterminism:
    def test_same_seed_bitwise_same(self):
        first = materialize("transit-commuters")
        second = materialize("transit-commuters")
        assert first.fingerprint == second.fingerprint
        for a, b in zip(first.dataset.sequences, second.dataset.sequences):
            assert a.region_labels == b.region_labels
            assert [r.timestamp for r in a.sequence] == [r.timestamp for r in b.sequence]

    def test_different_seed_differs(self):
        base = materialize("mall-tiny")
        other = materialize("mall-tiny", seed=base.seed + 1)
        assert other.fingerprint != base.fingerprint

    def test_with_seed_copies_spec(self):
        spec = get_scenario("mall-tiny")
        moved = spec.with_seed(99)
        assert moved.seed == 99 and spec.seed == 3
        assert moved.materialize().fingerprint == spec.materialize(99).fingerprint


# ---------------------------------------------------------- new archetype
class TestConcourseHub:
    def test_structure_is_sparse_in_doors(self):
        space = build_concourse_hub(halls=3, bays_per_hall=4)
        summary = space.summary()
        # 3 halls + 12 bays partitions; 2 hall-hall doors + 12 bay doors.
        assert summary["partitions"] == 15
        assert summary["doors"] == 14
        assert summary["regions"] == 15  # every hall and bay is a region
        categories = {region.category for region in space.regions}
        assert categories == {"concourse", "gate", "ward"}

    def test_multi_floor_staircases(self):
        space = build_concourse_hub(floors=2, halls=2, bays_per_hall=3)
        assert space.summary()["staircases"] == 2
        assert space.floors == [0, 1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="floor"):
            build_concourse_hub(floors=0)
        with pytest.raises(ValueError, match="fit"):
            build_concourse_hub(bays_per_hall=10, bay_width=6.0, hall_width=30.0)


# ------------------------------------------------- new venue archetypes
class TestAirportTerminal:
    def test_security_is_the_single_landside_airside_choke(self):
        import networkx as nx

        space = build_airport_terminal(concourses=2, gates_per_side=2)
        categories = {region.category for region in space.regions}
        assert categories == {"landside", "security", "gate", "retail"}
        # 2 concourses × (1 spine + 1 pier + 4 gates + 1 retail) + hall + security.
        assert space.summary()["partitions"] == 16
        assert AccessibilityGraph(space).is_connected()
        # Removing the security partition disconnects landside from every gate.
        adjacency = nx.Graph()
        adjacency.add_nodes_from(p.partition_id for p in space.partitions)
        adjacency.add_edges_from(door.partition_ids for door in space.doors)
        security = next(r for r in space.regions if r.category == "security")
        hall = next(r for r in space.regions if r.category == "landside")
        adjacency.remove_nodes_from(security.partition_ids)
        for gate in (r for r in space.regions if r.category == "gate"):
            assert not nx.has_path(
                adjacency, hall.partition_ids[0], gate.partition_ids[0]
            )

    def test_gate_naming_scheme(self):
        space = build_airport_terminal(concourses=2, gates_per_side=2)
        gate_names = {r.name for r in space.regions if r.category == "gate"}
        assert "C0-G00W" in gate_names and "C1-G01E" in gate_names
        assert len(gate_names) == 8

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="concourse"):
            build_airport_terminal(concourses=0)
        with pytest.raises(ValueError, match="retail"):
            build_airport_terminal(retail_width=20.0)


class TestHospital:
    def test_interlinked_wards_create_cycles(self):
        linked = build_hospital(floors=1, wards_per_side=3, interlinked=True)
        chained = build_hospital(floors=1, wards_per_side=3, interlinked=False)
        # Same partitions, strictly more doors when wards interconnect.
        assert linked.summary()["partitions"] == chained.summary()["partitions"]
        assert linked.summary()["doors"] > chained.summary()["doors"]
        assert AccessibilityGraph(linked).is_connected()
        assert AccessibilityGraph(chained).is_connected()

    def test_categories_and_floors(self):
        space = build_hospital(floors=2, wards_per_side=3)
        categories = {region.category for region in space.regions}
        assert {"ward", "treatment", "imaging"} <= categories
        assert space.summary()["staircases"] == 2
        assert space.floors == [0, 1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="floor"):
            build_hospital(floors=0)
        with pytest.raises(ValueError, match="ward"):
            build_hospital(wards_per_side=1)


class TestStadium:
    def test_concourse_ring_closes(self):
        space = build_stadium(floors=1, sections_per_side=2)
        graph = AccessibilityGraph(space)
        assert graph.is_connected()
        # A closed ring has at least as many ring doors as ring partitions
        # (a cycle), unlike the tree-shaped mall/office corridors.
        ring_ids = {
            p.partition_id for p in space.partitions if p.kind in ("concourse", "plaza")
        }
        ring_doors = [
            door for door in space.doors if set(door.partition_ids) <= ring_ids
        ]
        assert len(ring_doors) >= len(ring_ids)

    def test_stand_categories(self):
        space = build_stadium(floors=2, sections_per_side=2)
        categories = {region.category for region in space.regions}
        assert {"seating", "vip", "concessions"} <= categories
        assert space.summary()["staircases"] == 2
        stand_names = {r.name for r in space.regions if r.category in ("seating", "vip")}
        assert "F0-S01" in stand_names and "F1-S01" in stand_names

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="tier"):
            build_stadium(floors=0)
        with pytest.raises(ValueError, match="section"):
            build_stadium(sections_per_side=0)


class TestOfficeTower:
    def test_sky_lobby_express_staircases(self):
        space = build_office_tower(floors=4, suites_per_side=1, sky_lobby_every=2)
        assert space.floors == [0, 1, 2, 3]
        # 3 local flights + 1 express jump between the two sky lobbies.
        assert space.summary()["staircases"] == 4
        express = [s for s in space.staircases if s.location_upper.floor
                   - s.location_lower.floor > 1]
        assert len(express) == 1
        assert express[0].location_lower.floor == 0
        assert express[0].location_upper.floor == 2
        assert AccessibilityGraph(space).is_connected()

    def test_sky_lobbies_are_regions(self):
        space = build_office_tower(floors=4, suites_per_side=1, sky_lobby_every=2)
        lobbies = [r for r in space.regions if r.category == "sky-lobby"]
        assert {r.floor for r in lobbies} == {0, 2}
        suites = [r for r in space.regions if r.category == "office"]
        assert {r.floor for r in suites} == {0, 1, 2, 3}

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="two floors"):
            build_office_tower(floors=1)
        with pytest.raises(ValueError, match="core"):
            build_office_tower(suites_per_side=4, core_size=4.0)


# ----------------------------------------------------- mobility profiles
class TestMobilityProfiles:
    @pytest.fixture(scope="class")
    def venue(self):
        return build_concourse_hub(halls=2, bays_per_hall=3)

    def test_commuter_sticks_to_anchors(self, venue):
        simulator = CommuterSimulator(
            venue,
            anchor_count=2,
            anchor_affinity=1.0,
            min_stay=10.0,
            max_stay=40.0,
            seed=5,
        )
        trajectory = simulator.simulate_object("c-0", duration=900.0)
        anchor_ids = set(simulator._anchor_ids)
        stayed_in = {region for region, _, _ in trajectory.stay_visits()}
        # After the random initial region, every stay happens at an anchor.
        assert stayed_in <= anchor_ids | {trajectory.points[0].region_id}

    def test_commuter_is_seed_deterministic(self, venue):
        def run(seed):
            simulator = CommuterSimulator(venue, min_stay=10.0, max_stay=60.0, seed=seed)
            trajectory = simulator.simulate_object("c-0", duration=600.0)
            return [(p.timestamp, p.region_id, p.event) for p in trajectory.points]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_crowd_peak_window_shortens_stays(self, venue):
        def mean_stay(peak_factor):
            simulator = PeakHoursSimulator(
                venue,
                min_stay=10.0,
                max_stay=300.0,
                peak_start=0.0,
                peak_end=4000.0,
                peak_stay_factor=peak_factor,
                seed=11,
            )
            trajectory = simulator.simulate_object("p-0", duration=3600.0)
            visits = trajectory.stay_visits()
            durations = [end - start for _, start, end in visits[:-1]]  # last may be cut
            return sum(durations) / len(durations)

        assert mean_stay(0.2) < mean_stay(1.0)

    def test_crowd_validation(self, venue):
        with pytest.raises(ValueError, match="peak_stay_factor"):
            PeakHoursSimulator(venue, peak_stay_factor=0.0)
        with pytest.raises(ValueError, match="peak"):
            PeakHoursSimulator(venue, peak_start=100.0, peak_end=50.0)

    def test_commuter_validation(self, venue):
        with pytest.raises(ValueError, match="anchor_count"):
            CommuterSimulator(venue, anchor_count=0)
        with pytest.raises(ValueError, match="anchor_affinity"):
            CommuterSimulator(venue, anchor_affinity=1.5)


class TestCrowdSurgeProfile:
    @pytest.fixture(scope="class")
    def venue(self):
        return build_stadium(floors=1, sections_per_side=2)

    def test_surge_pulls_objects_to_epicentres(self, venue):
        simulator = CrowdSurgeSimulator(
            venue,
            surges=((0.0, 3600.0),),
            surge_affinity=1.0,
            epicentres_per_surge=2,
            min_stay=10.0,
            max_stay=60.0,
            seed=19,
        )
        epicentres = set(simulator._epicentres[0])
        trajectory = simulator.simulate_object("s-0", duration=1800.0)
        stays = [region for region, _, _ in trajectory.stay_visits()]
        # With affinity 1, two epicentres and an always-on surge, every stay
        # after the random starting region bounces between the epicentres.
        assert len(stays) > 2
        assert set(stays[1:]) <= epicentres

    def test_outside_surge_windows_behaves_like_waypoint(self, venue):
        surge = CrowdSurgeSimulator(
            venue,
            surges=((5000.0, 6000.0),),  # never reached in this run
            surge_affinity=1.0,
            min_stay=10.0,
            max_stay=60.0,
            seed=23,
        )
        trajectory = surge.simulate_object("s-0", duration=900.0)
        visited = {region for region, _, _ in trajectory.stay_visits()}
        # Pre-surge behaviour keeps exploring instead of camping on one region.
        assert len(visited) > 1

    def test_surge_validation(self, venue):
        with pytest.raises(ValueError, match="surge"):
            CrowdSurgeSimulator(venue, surges=())
        with pytest.raises(ValueError, match="start < end"):
            CrowdSurgeSimulator(venue, surges=((100.0, 100.0),))
        with pytest.raises(ValueError, match="surge_affinity"):
            CrowdSurgeSimulator(venue, surge_affinity=1.5)

    def test_surge_is_seed_deterministic(self, venue):
        def run(seed):
            simulator = CrowdSurgeSimulator(
                venue, surges=((100.0, 400.0),), min_stay=10.0, max_stay=60.0, seed=seed
            )
            trajectory = simulator.simulate_object("s-0", duration=600.0)
            return [(p.timestamp, p.region_id) for p in trajectory.points]

        assert run(7) == run(7)
        assert run(7) != run(8)


# ------------------------------------------------------- dropout bursts
class TestDropoutBursts:
    def test_dropout_thins_reports(self):
        venue = build_concourse_hub(halls=2, bays_per_hall=3)
        simulator = WaypointSimulator(venue, min_stay=20.0, max_stay=120.0, seed=3)
        trajectory = simulator.simulate_object("d-0", duration=1800.0)
        dense = PositioningErrorModel(max_period=5.0, error=2.0, seed=4)
        sparse = PositioningErrorModel(
            max_period=5.0,
            error=2.0,
            dropout_probability=0.25,
            dropout_duration=(60.0, 180.0),
            seed=4,
        )
        dense_seq = dense.corrupt_trajectory(trajectory, venue)
        sparse_seq = sparse.corrupt_trajectory(trajectory, venue)
        assert len(sparse_seq.sequence) < len(dense_seq.sequence)

    def test_zero_dropout_stream_is_bitwise_unchanged(self):
        """dropout_probability=0 must not consume randomness: old datasets stand."""
        venue = build_concourse_hub(halls=2, bays_per_hall=3)
        simulator = WaypointSimulator(venue, min_stay=20.0, max_stay=120.0, seed=3)
        trajectory = simulator.simulate_object("d-0", duration=600.0)
        plain = PositioningErrorModel(max_period=5.0, error=2.0, seed=4)
        explicit = PositioningErrorModel(
            max_period=5.0, error=2.0, dropout_probability=0.0, seed=4
        )
        a = plain.corrupt_trajectory(trajectory, venue)
        b = explicit.corrupt_trajectory(trajectory, venue)
        assert [(r.timestamp, r.x, r.y) for r in a.sequence] == [
            (r.timestamp, r.x, r.y) for r in b.sequence
        ]

    def test_dropout_validation(self):
        with pytest.raises(ValueError, match="dropout_duration"):
            PositioningErrorModel(dropout_duration=(50.0, 10.0))


# ------------------------------------------------- adversarial regimes
class TestAdversarialRegimes:
    @pytest.fixture(scope="class")
    def trajectory_and_venue(self):
        venue = build_airport_terminal(concourses=1, gates_per_side=2)
        simulator = WaypointSimulator(venue, min_stay=20.0, max_stay=120.0, seed=3)
        return simulator.simulate_object("a-0", duration=900.0), venue

    def test_disabled_regimes_are_bitwise_neutral(self, trajectory_and_venue):
        """All-zero adversarial knobs must not consume randomness."""
        trajectory, venue = trajectory_and_venue
        plain = PositioningErrorModel(max_period=5.0, error=2.0, seed=4)
        explicit = PositioningErrorModel(
            max_period=5.0,
            error=2.0,
            multipath_probability=0.0,
            clock_skew=0.0,
            clock_jitter=0.0,
            duplicate_probability=0.0,
            seed=4,
        )
        a = plain.corrupt_trajectory(trajectory, venue)
        b = explicit.corrupt_trajectory(trajectory, venue)
        assert [(r.timestamp, r.x, r.y, r.floor) for r in a.sequence] == [
            (r.timestamp, r.x, r.y, r.floor) for r in b.sequence
        ]

    def test_multipath_biases_positions(self, trajectory_and_venue):
        trajectory, venue = trajectory_and_venue
        clean = PositioningErrorModel(max_period=5.0, error=2.0, seed=4)
        biased = PositioningErrorModel(
            max_period=5.0, error=2.0, multipath_probability=1.0,
            multipath_scale=6.0, seed=4,
        )
        clean_seq = clean.corrupt_trajectory(trajectory, venue)
        biased_seq = biased.corrupt_trajectory(trajectory, venue)
        # Multipath displacements are at least 2μ, so mean deviation grows.
        def mean_offset(labeled):
            truth = {p.timestamp: p.location for p in trajectory.points}
            offsets = [
                ((r.x - truth[r.timestamp].x) ** 2 + (r.y - truth[r.timestamp].y) ** 2)
                ** 0.5
                for r in labeled.sequence
                if r.timestamp in truth
            ]
            return sum(offsets) / len(offsets)

        assert mean_offset(biased_seq) > mean_offset(clean_seq)

    def test_clock_skew_shifts_reported_timestamps(self, trajectory_and_venue):
        trajectory, venue = trajectory_and_venue
        skewed = PositioningErrorModel(
            max_period=5.0, error=2.0, clock_skew=8.0, seed=4
        )
        raw = skewed.corrupt_trajectory_raw(trajectory, venue)
        truth_times = {p.timestamp for p in trajectory.points}
        shifted = [r.timestamp for r, _, _ in raw if r.timestamp not in truth_times]
        assert shifted  # the per-trajectory offset moved the clock

    def test_duplicates_arrive_late_and_normalize_away(self, trajectory_and_venue):
        trajectory, venue = trajectory_and_venue
        noisy = PositioningErrorModel(
            max_period=5.0, error=2.0, duplicate_probability=0.5,
            duplicate_delay=40.0, seed=4,
        )
        raw = noisy.corrupt_trajectory_raw(trajectory, venue)
        timestamps = [r.timestamp for r, _, _ in raw]
        inversions = sum(1 for a, b in zip(timestamps, timestamps[1:]) if b < a)
        assert inversions > 0, "retransmissions must arrive out of order"
        normalized = normalize_report_stream(raw)
        assert len(normalized) < len(raw)  # exact duplicates dropped
        assert normalized == normalize_report_stream(normalized)
        norm_times = [r.timestamp for r, _, _ in normalized]
        assert norm_times == sorted(norm_times)

    def test_normalization_is_permutation_insensitive(self, trajectory_and_venue):
        import random as _random

        trajectory, venue = trajectory_and_venue
        noisy = PositioningErrorModel(
            max_period=5.0, error=2.0, duplicate_probability=0.3,
            clock_jitter=3.0, seed=4,
        )
        raw = list(noisy.corrupt_trajectory_raw(trajectory, venue))
        shuffled = list(raw)
        _random.Random(0).shuffle(shuffled)
        assert normalize_report_stream(shuffled) == normalize_report_stream(raw)

    def test_adversarial_validation(self):
        with pytest.raises(ValueError, match="multipath"):
            PositioningErrorModel(multipath_probability=1.5)
        with pytest.raises(ValueError, match="multipath_scale"):
            PositioningErrorModel(multipath_probability=0.1, multipath_scale=1.0)
        with pytest.raises(ValueError, match="clock"):
            PositioningErrorModel(clock_skew=-1.0)
        with pytest.raises(ValueError, match="duplicate"):
            PositioningErrorModel(duplicate_probability=-0.1)

    def test_device_spec_flags_adversarial(self):
        assert not DeviceSpec().adversarial
        assert DeviceSpec(multipath_probability=0.1).adversarial
        assert DeviceSpec(clock_jitter=1.0).adversarial
        assert DeviceSpec(duplicate_probability=0.1).adversarial


# ---------------------------------------------- streaming materialisation
class TestStreamingMaterialize:
    @pytest.mark.parametrize(
        "name", ["mall-tiny", "stadium-matchday", "tower-shift-change"]
    )
    def test_materialize_iter_matches_batch_bitwise(self, name, scenario_cache):
        scenario = scenario_cache(name)
        spec = scenario.spec
        streamed = list(spec.materialize_iter(spec.seed, space=scenario.space))
        batch = scenario.dataset.sequences
        assert len(streamed) == len(batch)
        for a, b in zip(batch, streamed):
            assert a.object_id == b.object_id
            assert a.region_labels == b.region_labels
            assert a.event_labels == b.event_labels
            assert [(r.timestamp, r.x, r.y, r.floor) for r in a.sequence] == [
                (r.timestamp, r.x, r.y, r.floor) for r in b.sequence
            ]

    def test_stream_records_flattens_the_same_data(self, scenario_cache):
        scenario = scenario_cache("stadium-matchday")
        records = list(scenario.spec.stream_records(scenario.seed))
        assert len(records) == scenario.dataset.total_records
        object_ids = {record[0] for record in records}
        assert object_ids == {
            labeled.object_id for labeled in scenario.dataset.sequences
        }


# ------------------------------- indexed queries under adversarial input
class TestIndexedQueriesUnderAdversarialPositioning:
    @pytest.fixture(scope="class")
    def semantics(self, scenario_cache):
        from repro.baselines import SMoTAnnotator

        scenario = scenario_cache("tower-shift-change")
        annotator = SMoTAnnotator(scenario.space)
        annotator.fit(scenario.dataset.sequences)
        return annotator.annotate_many(
            [labeled.sequence for labeled in scenario.dataset.sequences]
        )

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_index_equals_scan(self, semantics, k):
        from repro.index.engine import SemanticsIndex
        from repro.queries.tkfrpq import TkFRPQ
        from repro.queries.tkprq import TkPRQ

        index = SemanticsIndex.from_semantics(semantics)
        times = [ms.start_time for per_object in semantics for ms in per_object]
        lo, hi = min(times), max(times)
        mid = (lo + hi) / 2.0
        for start, end in ((None, None), (lo, mid), (mid, hi)):
            prq = TkPRQ(k, start=start, end=end)
            assert prq.evaluate(index) == prq.evaluate(semantics)
            frpq = TkFRPQ(k, start=start, end=end)
            assert frpq.evaluate(index) == frpq.evaluate(semantics)


# ------------------------------------------------- evaluation integration
class TestEvaluationIntegration:
    def test_resolve_dataset_passthrough_and_by_name(self, small_dataset):
        assert resolve_dataset(small_dataset) is small_dataset
        by_name = resolve_dataset("mall-tiny")
        assert len(by_name) == len(small_dataset)

    def test_runner_accepts_scenario_name(self):
        results = run_accuracy_comparison("mall-tiny", methods=("SMoT",))
        assert results[0].method == "SMoT"
        assert 0.0 <= results[0].scores.region_accuracy <= 1.0

    def test_method_evaluator_evaluate_scenario(self):
        scenario = materialize("mall-tiny")
        method = make_annotator("SMoT", scenario.space)
        by_name = MethodEvaluator().evaluate_scenario(method, "mall-tiny")
        assert by_name.scores.region_accuracy > 0.0
        # Passing the materialised Scenario skips the second materialisation
        # and must score identically.
        by_object = MethodEvaluator().evaluate_scenario(method, scenario)
        assert by_object.scores == by_name.scores
        with pytest.raises(ValueError, match="conflicts"):
            MethodEvaluator().evaluate_scenario(method, scenario, seed=999)

    def test_build_real_style_dataset_goes_through_the_spec(self):
        scale = ExperimentScale.tiny()
        direct = mall_scenario_spec(scale, name="mall").materialize().dataset
        rebased = build_real_style_dataset(scale)
        assert [s.region_labels for s in rebased.sequences] == [
            s.region_labels for s in direct.sequences
        ]


# ------------------------------------------------------ bench integration
class TestBenchIntegration:
    def test_bench_cli_accepts_every_registered_scenario(self, capsys):
        """`python -m repro.bench --queries --scenario X` parses for the whole catalogue."""
        for name in scenario_names():
            with pytest.raises(SystemExit) as excinfo:
                bench_main(["--queries", "--scenario", name, "--help"])
            assert excinfo.value.code == 0
            capsys.readouterr()

    def test_bench_cli_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit):
            bench_main(["--queries", "--scenario", "atlantis", "--out", "/tmp/never.json"])
        capsys.readouterr()


# ------------------------------------- cross-backend conformance (PR 3 ext.)
class TestCrossBackendScenarioDeterminism:
    """Scenario-generated workloads decode bitwise-identically on every backend.

    Extends the execution-runtime conformance suite across the catalogue:
    every new venue archetype — airport choke point, cyclic hospital wards,
    the stadium ring, the vertical tower — and every adversarial device
    regime (multipath, clock skew/jitter, duplicates) feeds record patterns
    the mall fixture never produced, and sharded decoding must still be a
    pure throughput knob over all of them.
    """

    MATRIX = [
        "transit-commuters",    # concourse + dropout (the PR 3 original)
        "airport-redeye",       # airport + multipath bias
        "hospital-rounds",      # hospital + clock skew/jitter
        "stadium-matchday",     # stadium + surge + duplicates
        "tower-shift-change",   # tower + surge + all three regimes at once
    ]

    @pytest.fixture(scope="class", params=MATRIX)
    def scenario_annotator_and_decode(self, request, scenario_cache):
        from repro.core import C2MNAnnotator, C2MNConfig
        from repro.mobility.dataset import train_test_split

        scenario = scenario_cache(request.param)
        train, test = train_test_split(scenario.dataset, train_fraction=0.5, seed=5)
        annotator = C2MNAnnotator(
            scenario.space,
            config=C2MNConfig.fast(max_iterations=2, mcmc_samples=4, lbfgs_iterations=3),
        )
        annotator.fit(train.sequences)
        decode = [labeled.sequence for labeled in test.sequences]
        serial = annotator.predict_labels_many(decode, backend="serial")
        return annotator, decode, serial

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_backends_match_serial_bitwise(
        self, scenario_annotator_and_decode, backend, workers
    ):
        annotator, decode, serial = scenario_annotator_and_decode
        sharded = annotator.predict_labels_many(
            decode, workers=workers, backend=backend
        )
        assert sharded == serial


# ---------------------------------------------------- service integration
class TestScenarioReplay:
    def test_report_row_keeps_field_order_then_derived_rate(self):
        report = ReplayReport(
            scenario="mall-tiny", seed=1, objects=2, records=100, decodes=10,
            published=20, elapsed_seconds=2.0, window=48, exact=False,
        )
        row = report.row()
        assert list(row)[:3] == ["scenario", "seed", "objects"]
        assert list(row)[-1] == "records_per_second"
        assert row["records_per_second"] == pytest.approx(50.0)

    def test_windowed_replay_publishes_and_is_deterministic(self, fitted_annotator):
        service, report = replay_scenario(
            "mall-tiny", annotator=fitted_annotator, window=16
        )
        assert report.records > 0
        assert report.published > 0
        assert report.decodes == report.records
        assert len(service.store) == report.objects
        _, again = replay_scenario("mall-tiny", annotator=fitted_annotator, window=16)
        assert again.published == report.published

    def test_exact_replay_matches_batch(self, fitted_annotator):
        _, report = replay_scenario(
            "mall-tiny", annotator=fitted_annotator, exact=True
        )
        assert report.exact
        assert report.batch_agreement is True

    def test_live_queries_after_replay(self, fitted_annotator):
        service, _ = replay_scenario(
            "mall-tiny", annotator=fitted_annotator, window=16
        )
        top = service.popular_regions(3)
        assert len(top) > 0
        assert all(count > 0 for _, count in top)


# ------------------------------------------------------------------- CLI
class TestScenariosCli:
    def test_list(self, capsys):
        assert scenarios_main([]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_materialize(self, capsys):
        assert scenarios_main(["--materialize", "mall-tiny"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out

    def test_materialize_unknown_fails(self, capsys):
        assert scenarios_main(["--materialize", "atlantis"]) == 1
        err = capsys.readouterr().err
        assert "unknown scenario 'atlantis'" in err
        assert "mall-tiny" in err  # the catalogue is listed

    def test_smoke(self, capsys):
        assert scenarios_main(["--smoke"]) == 0
        assert "smoke ok" in capsys.readouterr().out

    def test_write_goldens_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "goldens.json"
        assert scenarios_main(["--write-goldens", str(target)]) == 0
        capsys.readouterr()
        import json

        written = json.loads(target.read_text())
        assert sorted(written) == scenario_names()
