"""Deadline-aware flow-level wireless scheduling: simulators, policies,
capacity region, traffic models, and an offline schedulability oracle.

Subpackages/modules
-------------------
core      -- requests, outcome status, request validation
capacity  -- multi-user diversity gains and the polymatroid region
channel   -- Rayleigh/Shannon normalized rate sampling
traffic   -- request generators and the truncated-lognormal size law
policies  -- fluid laxity-ranked allocation; framework and baseline TDM policies
engine    -- slotted fluid/TDM simulation loops, lockstep fluid batches, laxity-history tracking
oracle    -- exact schedulability margin and certificate; L2HPR witness built on first read
cli       -- config-driven experiment runner (``laxsched`` entry point)
"""

from .capacity import GainProfile, diversity_gains
from .channel import ChannelModel, mean_spectral_efficiency, sample_normalized_rates
from .core import (
    DownloadRequest,
    FlowStatus,
    common_deadline,
    first_slot_at_or_after,
    validate_requests,
)
from .engine import (
    SimReport,
    TraceRecord,
    UltTracker,
    UserOutcome,
    least_laxity_limit,
    least_laxity_floor,
    run_fluid,
    run_fluid_batch,
    run_tdm,
)
from .oracle import (
    FeasibilityProblem,
    FeasibilityResult,
    feasible,
    replay_witness,
    subset_capacity,
    witness_text,
)
from .policies import (
    ExpUrgency,
    FrameworkParams,
    LogUrgency,
    MaxWeightUrgency,
    make_policy,
)
from .traffic import (
    FileSizeLaw,
    IdenticalDeadlineSpec,
    StationaryArrivalSpec,
    gen_identical_deadline,
    gen_stationary,
    sample_file_sizes,
)

__version__ = "0.1.0"
