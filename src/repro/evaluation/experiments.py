"""One function per paper table/figure (Section V).

Every experiment of the paper's evaluation has a runner here that produces the
same rows/series the paper reports.  The runners are *scale-parameterised*:
the paper's numbers were produced on a 10-core Xeon server over millions of
records, while the default :class:`ExperimentScale` settings finish on a
laptop in seconds to minutes.  The benchmark modules under ``benchmarks/``
call these runners, print the resulting tables and assert the qualitative
shapes (who wins, monotonicity) rather than absolute values.

Experiment index (see DESIGN.md §4):

=================  =====================================================
Paper content      Runner
=================  =====================================================
Table III          :func:`real_dataset_statistics`
Table IV           :func:`run_accuracy_comparison`
Figures 5, 6       :func:`run_training_fraction_sweep`
Figures 7, 8       :func:`run_mcmc_sweep`
Figures 9, 10      :func:`run_training_time_sweep`
Figure 11          :func:`run_first_configured_study`
Figures 12, 13     :func:`run_query_precision`
Table V            :func:`synthetic_dataset_table`
Figures 14–16      :func:`run_sparsity_sweep`
Figures 17–19      :func:`run_error_sweep`
=================  =====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import C2MNConfig
from repro.core.variants import make_annotator
from repro.evaluation.harness import EvaluationResult, MethodEvaluator, ground_truth_semantics
from repro.indoor.builders import build_office_building
from repro.indoor.distance import IndoorDistanceOracle
from repro.indoor.floorplan import IndoorSpace
from repro.mobility.dataset import AnnotationDataset, train_test_split
from repro.index import SemanticsIndex
from repro.queries.precision import top_k_precision
from repro.runtime import ExecutionPolicy, UNSET, resolve_policy
from repro.queries.tkfrpq import TkFRPQ
from repro.queries.tkprq import TkPRQ
from repro.scenarios import DeviceSpec, MobilitySpec, ScenarioSpec, VenueSpec
from repro.scenarios import materialize as materialize_scenario

#: Runners accept a prepared dataset or the name of a registered scenario.
DatasetOrScenario = Union[AnnotationDataset, str]

#: Method names in the order of the paper's Table IV.
TABLE4_METHODS = (
    "SMoT",
    "HMM+DC",
    "SAPDV",
    "SAPDA",
    "CMN",
    "C2MN/Tran",
    "C2MN/Syn",
    "C2MN/ES",
    "C2MN/SS",
    "C2MN",
)

#: The C2MN-family subset used by the figure sweeps (Figures 5–10).
C2MN_FAMILY = ("CMN", "C2MN/Tran", "C2MN/Syn", "C2MN/ES", "C2MN/SS", "C2MN")


@dataclass(frozen=True)
class ExperimentScale:
    """Workload scale knobs shared by the experiment runners."""

    floors: int = 2
    shops_per_side: int = 6
    objects: int = 14
    duration: float = 2400.0
    max_period: float = 10.0
    error: float = 5.0
    min_duration: float = 300.0
    seed: int = 11

    @classmethod
    def tiny(cls) -> "ExperimentScale":
        """Smallest useful scale — used by unit tests."""
        return cls(floors=1, shops_per_side=4, objects=6, duration=1200.0)

    @classmethod
    def small(cls) -> "ExperimentScale":
        """Default benchmark scale (finishes in minutes on a laptop)."""
        return cls()

    @classmethod
    def medium(cls) -> "ExperimentScale":
        """A larger sweep for overnight runs."""
        return cls(floors=3, shops_per_side=10, objects=40, duration=5400.0)


# --------------------------------------------------------------------------
# Dataset construction (Tables III and V)
# --------------------------------------------------------------------------
def resolve_dataset(
    dataset: DatasetOrScenario, *, seed: Optional[int] = None
) -> AnnotationDataset:
    """Return ``dataset`` itself, or materialise it if it names a scenario.

    Every experiment runner below funnels its ``dataset`` argument through
    this helper, so ``run_accuracy_comparison("office-workday")`` and
    ``run_accuracy_comparison(my_dataset)`` are equally valid.
    """
    if isinstance(dataset, AnnotationDataset):
        return dataset
    return materialize_scenario(dataset, seed).dataset


def mall_scenario_spec(
    scale: ExperimentScale = ExperimentScale.small(),
    *,
    name: str = "mall",
) -> ScenarioSpec:
    """The mall workload of one :class:`ExperimentScale` as a scenario spec.

    This is the single definition of the "real-style" venue/dataset pair —
    the experiment runners and the benchmarks all construct it here, so
    the hand-built copies that used to live in the test and benchmark
    fixtures are gone.
    """
    return ScenarioSpec(
        name=name,
        venue=VenueSpec(
            "mall",
            params={"floors": scale.floors, "shops_per_side": scale.shops_per_side},
        ),
        mobility=MobilitySpec("waypoint"),
        device=DeviceSpec(max_period=scale.max_period, error=scale.error),
        objects=scale.objects,
        duration=scale.duration,
        min_duration=scale.min_duration,
        seed=scale.seed,
        description="Hangzhou-style mall at one experiment scale.",
    )


def office_scenario_spec(
    *,
    max_period: float,
    error: float,
    scale: ExperimentScale = ExperimentScale.small(),
    name: Optional[str] = None,
) -> ScenarioSpec:
    """The Vita-like office workload for one (T, μ) setting as a scenario spec."""
    return ScenarioSpec(
        name=name or f"T{max_period:g}mu{error:g}",
        venue=VenueSpec(
            "office",
            params={
                "floors": max(2, scale.floors),
                "rooms_per_side": max(6, scale.shops_per_side),
            },
        ),
        mobility=MobilitySpec("waypoint"),
        device=DeviceSpec(max_period=max_period, error=error),
        objects=scale.objects,
        duration=scale.duration,
        min_duration=scale.min_duration,
        seed=scale.seed,
        description="Vita-like office building for one (T, mu) setting.",
    )


def build_real_style_dataset(
    scale: ExperimentScale = ExperimentScale.small(),
    *,
    name: str = "mall",
) -> AnnotationDataset:
    """Build the mall venue and its dataset (stand-in for the Hangzhou mall)."""
    return mall_scenario_spec(scale, name=name).materialize().dataset


def build_synthetic_style_dataset(
    *,
    max_period: float,
    error: float,
    scale: ExperimentScale = ExperimentScale.small(),
    space: Optional[IndoorSpace] = None,
    name: Optional[str] = None,
) -> AnnotationDataset:
    """Build the Vita-like building dataset for one (T, μ) setting (Table V).

    ``space`` reuses an already-built venue across the (T, μ) sweep — the
    venue must match the spec's office parameters for the result to be the
    same as a from-scratch materialisation.
    """
    spec = office_scenario_spec(
        max_period=max_period, error=error, scale=scale, name=name
    )
    if space is None:
        return spec.materialize().dataset
    from repro.mobility.dataset import generate_dataset

    return generate_dataset(
        space,
        objects=spec.objects,
        duration=spec.duration,
        max_period=max_period,
        error=error,
        min_duration=spec.min_duration,
        seed=spec.seed,
        name=spec.name,
        simulator=spec.mobility.build(space, spec.seed),
    )


def real_dataset_statistics(dataset: DatasetOrScenario) -> Dict[str, float]:
    """Table III analogue: statistics of the (simulated) real dataset."""
    dataset = resolve_dataset(dataset)
    stats = dataset.statistics()
    stats.update(dataset.space.summary())
    return stats


def synthetic_dataset_table(
    settings: Sequence[Tuple[float, float]],
    *,
    scale: ExperimentScale = ExperimentScale.small(),
    space: Optional[IndoorSpace] = None,
) -> List[Dict[str, float]]:
    """Table V analogue: one row per (T, μ) synthetic dataset."""
    venue = space if space is not None else build_office_building(
        floors=max(2, scale.floors), rooms_per_side=max(6, scale.shops_per_side)
    )
    rows: List[Dict[str, float]] = []
    for max_period, error in settings:
        dataset = build_synthetic_style_dataset(
            max_period=max_period, error=error, scale=scale, space=venue
        )
        rows.append(
            {
                "dataset": f"T{max_period:g}mu{error:g}",
                "T": max_period,
                "mu": error,
                "records": dataset.total_records,
                "sequences": len(dataset),
            }
        )
    return rows


# --------------------------------------------------------------------------
# Method construction and accuracy comparison (Table IV)
# --------------------------------------------------------------------------
def build_methods(
    names: Iterable[str],
    space: IndoorSpace,
    config: C2MNConfig,
) -> List:
    """Instantiate compared methods by name, sharing one distance oracle."""
    oracle = IndoorDistanceOracle(space)
    return [make_annotator(name, space, config=config, oracle=oracle) for name in names]


def run_accuracy_comparison(
    dataset: DatasetOrScenario,
    *,
    methods: Sequence[str] = TABLE4_METHODS,
    config: Optional[C2MNConfig] = None,
    train_fraction: float = 0.7,
    seed: int = 17,
    policy: Optional[ExecutionPolicy] = None,
    workers: Optional[int] = UNSET,
    backend: str = UNSET,
) -> List[EvaluationResult]:
    """Table IV: labeling accuracy of every compared method on one split.

    ``policy`` controls how the test-set labeling of each method executes —
    a process policy spreads the decode across cores (the legacy
    ``workers=``/``backend=`` keywords still work but emit a
    :class:`DeprecationWarning`).  ``dataset`` may be a prepared
    :class:`AnnotationDataset` or a registered scenario name.
    """
    dataset = resolve_dataset(dataset)
    cfg = config if config is not None else C2MNConfig.fast()
    train, test = train_test_split(dataset, train_fraction=train_fraction, seed=seed)
    policy = resolve_policy(
        policy, workers=workers, backend=backend, owner="run_accuracy_comparison()"
    )
    evaluator = MethodEvaluator(policy=policy)
    annotators = build_methods(methods, dataset.space, cfg)
    return evaluator.evaluate_many(annotators, train.sequences, test.sequences)


# --------------------------------------------------------------------------
# Training-fraction sweeps (Figures 5, 6 and 10)
# --------------------------------------------------------------------------
def run_training_fraction_sweep(
    dataset: DatasetOrScenario,
    *,
    fractions: Sequence[float] = (0.4, 0.5, 0.6, 0.7, 0.8),
    methods: Sequence[str] = C2MN_FAMILY,
    config: Optional[C2MNConfig] = None,
    seed: int = 17,
    policy: Optional[ExecutionPolicy] = None,
    workers: Optional[int] = UNSET,
    backend: str = UNSET,
) -> Dict[str, Dict[float, EvaluationResult]]:
    """Figures 5, 6 and 10: accuracy and training time vs training fraction."""
    dataset = resolve_dataset(dataset)
    cfg = config if config is not None else C2MNConfig.fast()
    results: Dict[str, Dict[float, EvaluationResult]] = {name: {} for name in methods}
    policy = resolve_policy(
        policy, workers=workers, backend=backend,
        owner="run_training_fraction_sweep()",
    )
    evaluator = MethodEvaluator(keep_predictions=False, policy=policy)
    for fraction in fractions:
        train, test = train_test_split(dataset, train_fraction=fraction, seed=seed)
        annotators = build_methods(methods, dataset.space, cfg)
        for annotator in annotators:
            results[annotator.name][fraction] = evaluator.evaluate(
                annotator, train.sequences, test.sequences
            )
    return results


# --------------------------------------------------------------------------
# MCMC-instance sweep (Figures 7, 8)
# --------------------------------------------------------------------------
def run_mcmc_sweep(
    dataset: DatasetOrScenario,
    *,
    sample_counts: Sequence[int] = (4, 8, 16, 32),
    methods: Sequence[str] = C2MN_FAMILY,
    config: Optional[C2MNConfig] = None,
    train_fraction: float = 0.7,
    seed: int = 17,
    policy: Optional[ExecutionPolicy] = None,
    workers: Optional[int] = UNSET,
    backend: str = UNSET,
) -> Dict[str, Dict[int, EvaluationResult]]:
    """Figures 7 and 8: RA and EA versus the number M of MCMC instances.

    The paper sweeps M from 400 to 1000; the default counts are scaled down
    proportionally to the reduced dataset size (the shape — saturation of RA
    as M grows, near-flat EA — is what the benchmarks check).
    """
    dataset = resolve_dataset(dataset)
    cfg = config if config is not None else C2MNConfig.fast()
    train, test = train_test_split(dataset, train_fraction=train_fraction, seed=seed)
    policy = resolve_policy(
        policy, workers=workers, backend=backend, owner="run_mcmc_sweep()"
    )
    evaluator = MethodEvaluator(keep_predictions=False, policy=policy)
    results: Dict[str, Dict[int, EvaluationResult]] = {name: {} for name in methods}
    for count in sample_counts:
        swept = replace(cfg, mcmc_samples=count)
        annotators = build_methods(methods, dataset.space, swept)
        for annotator in annotators:
            results[annotator.name][count] = evaluator.evaluate(
                annotator, train.sequences, test.sequences
            )
    return results


# --------------------------------------------------------------------------
# Training-time sweeps (Figures 9, 10, 11)
# --------------------------------------------------------------------------
def run_training_time_sweep(
    dataset: DatasetOrScenario,
    *,
    max_iterations: Sequence[int] = (2, 4, 6, 8),
    methods: Sequence[str] = C2MN_FAMILY,
    config: Optional[C2MNConfig] = None,
    train_fraction: float = 0.7,
    seed: int = 17,
) -> Dict[str, Dict[int, float]]:
    """Figure 9: training time versus ``max_iter`` for the C2MN family."""
    dataset = resolve_dataset(dataset)
    cfg = config if config is not None else C2MNConfig.fast()
    train, _ = train_test_split(dataset, train_fraction=train_fraction, seed=seed)
    times: Dict[str, Dict[int, float]] = {name: {} for name in methods}
    evaluator = MethodEvaluator(keep_predictions=False)
    for iterations in max_iterations:
        swept = replace(cfg, max_iterations=iterations)
        annotators = build_methods(methods, dataset.space, swept)
        for annotator in annotators:
            result = evaluator.evaluate(annotator, train.sequences, test_sequences=[])
            times[annotator.name][iterations] = result.training_seconds
    return times


def run_first_configured_study(
    dataset: DatasetOrScenario,
    *,
    max_iterations: Sequence[int] = (2, 4, 6, 8),
    config: Optional[C2MNConfig] = None,
    train_fraction: float = 0.7,
    seed: int = 17,
) -> Dict[str, Dict[int, float]]:
    """Figure 11: training time of C2MN (events first) versus C2MN@R (regions first)."""
    return run_training_time_sweep(
        dataset,
        max_iterations=max_iterations,
        methods=("C2MN", "C2MN@R"),
        config=config,
        train_fraction=train_fraction,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Query-precision experiments (Figures 12, 13, 15, 16, 18, 19)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class QuerySetting:
    """Parameters of one TkPRQ/TkFRPQ precision measurement."""

    k: int = 10
    query_region_fraction: float = 0.5
    repetitions: int = 5
    seed: int = 23


def _as_query_input(semantics_per_object, indexed: bool):
    """Bulk-build a semantic-region index over the input when requested.

    The precision runners evaluate many (k, Q, interval) variations over
    the same m-semantics; indexing once and reusing it across all of them
    is where the index pays off.  Results are bit-identical either way.
    """
    if not indexed or isinstance(semantics_per_object, SemanticsIndex):
        return semantics_per_object
    return SemanticsIndex.from_semantics(semantics_per_object)


def query_precisions(
    result: EvaluationResult,
    truth_semantics,
    region_ids: Sequence[int],
    *,
    interval: Tuple[float, float],
    setting: QuerySetting = QuerySetting(),
    indexed: bool = True,
) -> Tuple[float, float]:
    """Average TkPRQ and TkFRPQ precision of one method's m-semantics.

    ``setting.repetitions`` random query region sets Q are drawn; for each,
    the top-k answers computed from the method's annotations are compared with
    the answers computed from the ground-truth m-semantics.  With ``indexed``
    (the default) both collections are indexed once and every query is
    answered by the index engine — same answers, far fewer scans.
    """
    rng = random.Random(setting.seed)
    start, end = interval
    truth_input = _as_query_input(truth_semantics, indexed)
    predicted_input = _as_query_input(result.semantics, indexed)
    sample_size = max(2, int(len(region_ids) * setting.query_region_fraction))
    tkprq_scores: List[float] = []
    tkfrpq_scores: List[float] = []
    for _ in range(setting.repetitions):
        query_regions = set(rng.sample(list(region_ids), min(sample_size, len(region_ids))))
        prq = TkPRQ(setting.k, query_regions=query_regions, start=start, end=end)
        frpq = TkFRPQ(setting.k, query_regions=query_regions, start=start, end=end)
        truth_regions = prq.top_regions(truth_input)
        truth_pairs = frpq.top_pairs(truth_input)
        predicted_regions = prq.top_regions(predicted_input)
        predicted_pairs = frpq.top_pairs(predicted_input)
        if truth_regions:
            tkprq_scores.append(top_k_precision(predicted_regions, truth_regions))
        if truth_pairs:
            tkfrpq_scores.append(top_k_precision(predicted_pairs, truth_pairs))
    tkprq = sum(tkprq_scores) / len(tkprq_scores) if tkprq_scores else 0.0
    tkfrpq = sum(tkfrpq_scores) / len(tkfrpq_scores) if tkfrpq_scores else 0.0
    return tkprq, tkfrpq


def run_query_precision(
    dataset: DatasetOrScenario,
    *,
    query_intervals: Sequence[float] = (600.0, 1200.0, 1800.0),
    methods: Sequence[str] = TABLE4_METHODS,
    config: Optional[C2MNConfig] = None,
    setting: QuerySetting = QuerySetting(),
    train_fraction: float = 0.7,
    seed: int = 17,
    policy: Optional[ExecutionPolicy] = None,
    workers: Optional[int] = UNSET,
    backend: str = UNSET,
) -> Dict[str, Dict[float, Tuple[float, float]]]:
    """Figures 12 and 13: TkPRQ/TkFRPQ precision versus the query interval QT.

    ``query_intervals`` are window lengths in seconds starting at the
    dataset's earliest timestamp (the paper uses 60/120/180 minutes of one
    day; the scaled datasets cover shorter spans).
    """
    dataset = resolve_dataset(dataset)
    cfg = config if config is not None else C2MNConfig.fast()
    train, test = train_test_split(dataset, train_fraction=train_fraction, seed=seed)
    policy = resolve_policy(
        policy, workers=workers, backend=backend, owner="run_query_precision()"
    )
    evaluator = MethodEvaluator(policy=policy)
    annotators = build_methods(methods, dataset.space, cfg)
    results = evaluator.evaluate_many(annotators, train.sequences, test.sequences)
    # Index the ground truth once; every method, interval and repetition
    # queries the same postings instead of rescanning the truth semantics.
    truth = SemanticsIndex.from_semantics(ground_truth_semantics(test.sequences))
    earliest = min(sequence.sequence.start_time for sequence in test.sequences)
    region_ids = dataset.space.region_ids
    precisions: Dict[str, Dict[float, Tuple[float, float]]] = {}
    for result in results:
        per_interval: Dict[float, Tuple[float, float]] = {}
        for interval in query_intervals:
            per_interval[interval] = query_precisions(
                result,
                truth,
                region_ids,
                interval=(earliest, earliest + interval),
                setting=setting,
            )
        precisions[result.method] = per_interval
    return precisions


# --------------------------------------------------------------------------
# Synthetic sweeps over T and μ (Figures 14–19)
# --------------------------------------------------------------------------
def run_sparsity_sweep(
    *,
    periods: Sequence[float] = (5.0, 10.0, 15.0),
    error: float = 7.0,
    methods: Sequence[str] = ("SMoT", "HMM+DC", "SAPDV", "SAPDA", "CMN", "C2MN"),
    config: Optional[C2MNConfig] = None,
    scale: ExperimentScale = ExperimentScale.small(),
    setting: QuerySetting = QuerySetting(),
    query_interval: float = 1200.0,
    train_fraction: float = 0.7,
    seed: int = 17,
    policy: Optional[ExecutionPolicy] = None,
    workers: Optional[int] = UNSET,
    backend: str = UNSET,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """Figures 14–16: PA and query precision versus the maximum period T."""
    return _synthetic_sweep(
        sweep_values=periods,
        fixed_error=error,
        sweep_is_period=True,
        methods=methods,
        config=config,
        scale=scale,
        setting=setting,
        query_interval=query_interval,
        train_fraction=train_fraction,
        seed=seed,
        policy=resolve_policy(
            policy, workers=workers, backend=backend, owner="run_sparsity_sweep()"
        ),
    )


def run_error_sweep(
    *,
    errors: Sequence[float] = (3.0, 5.0, 7.0),
    period: float = 5.0,
    methods: Sequence[str] = ("SMoT", "HMM+DC", "SAPDV", "SAPDA", "CMN", "C2MN"),
    config: Optional[C2MNConfig] = None,
    scale: ExperimentScale = ExperimentScale.small(),
    setting: QuerySetting = QuerySetting(),
    query_interval: float = 1200.0,
    train_fraction: float = 0.7,
    seed: int = 17,
    policy: Optional[ExecutionPolicy] = None,
    workers: Optional[int] = UNSET,
    backend: str = UNSET,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """Figures 17–19: PA and query precision versus the positioning error μ."""
    return _synthetic_sweep(
        sweep_values=errors,
        fixed_error=period,
        sweep_is_period=False,
        methods=methods,
        config=config,
        scale=scale,
        setting=setting,
        query_interval=query_interval,
        train_fraction=train_fraction,
        seed=seed,
        policy=resolve_policy(
            policy, workers=workers, backend=backend, owner="run_error_sweep()"
        ),
    )


def _synthetic_sweep(
    *,
    sweep_values: Sequence[float],
    fixed_error: float,
    sweep_is_period: bool,
    methods: Sequence[str],
    config: Optional[C2MNConfig],
    scale: ExperimentScale,
    setting: QuerySetting,
    query_interval: float,
    train_fraction: float,
    seed: int,
    policy: Optional[ExecutionPolicy] = None,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    cfg = config if config is not None else C2MNConfig.fast(uncertainty_radius=10.0)
    venue = build_office_building(
        floors=max(2, scale.floors), rooms_per_side=max(6, scale.shops_per_side)
    )
    evaluator = MethodEvaluator(policy=policy)
    outcome: Dict[str, Dict[float, Dict[str, float]]] = {name: {} for name in methods}
    for value in sweep_values:
        max_period = value if sweep_is_period else fixed_error
        error = fixed_error if sweep_is_period else value
        dataset = build_synthetic_style_dataset(
            max_period=max_period, error=error, scale=scale, space=venue
        )
        train, test = train_test_split(dataset, train_fraction=train_fraction, seed=seed)
        truth = SemanticsIndex.from_semantics(ground_truth_semantics(test.sequences))
        earliest = min(sequence.sequence.start_time for sequence in test.sequences)
        annotators = build_methods(methods, venue, cfg)
        for annotator in annotators:
            result = evaluator.evaluate(annotator, train.sequences, test.sequences)
            tkprq, tkfrpq = query_precisions(
                result,
                truth,
                venue.region_ids,
                interval=(earliest, earliest + query_interval),
                setting=setting,
            )
            outcome[annotator.name][value] = {
                "PA": result.scores.perfect_accuracy,
                "RA": result.scores.region_accuracy,
                "EA": result.scores.event_accuracy,
                "TkPRQ": tkprq,
                "TkFRPQ": tkfrpq,
            }
    return outcome
