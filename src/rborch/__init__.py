"""Single-cell radio resource-block orchestration: martingale delay bounds,
periodic guaranteed-RB allocation, per-TTI mitigation and trace-driven
simulation."""

from .capacity import ConcatPerRbVector, build_capacity_samples
from .martingale import (
    ArrivalSampleSet,
    CapacitySampleSet,
    DelayBoundResult,
    ThetaSearchParams,
    arrival_log_mgf,
    delay_bound,
    find_theta_star,
    service_log_neg_mgf,
    violation_bound,
)
from .near_rt import (
    AllocatorConfig,
    GuaranteedAllocation,
    ServiceSpec,
    ServiceWindow,
    allocate,
    brute_force_allocate,
    objective,
)
from .rt import FsmRecord, PacketQueue, RtThresholds, fsm_step, mitigate, schedule_tti
from .sim import (
    AnomalyConfig,
    Metrics,
    ScenarioConfig,
    ccdf,
    controller_for,
    measure_fifo_delays,
    qldr_allocate,
    run,
    synthesize_window,
)
from .traces import (
    ArrivalTrace,
    ChannelTrace,
    SyntheticModel,
    load_arrival_trace,
    load_channel_trace,
)
from .utilization import (
    GmmMixture,
    UsageTable,
    UtilizationPmf,
    empirical_pmf,
    fit_gmm_em,
    region_probabilities,
)

__version__ = "0.1.0"
