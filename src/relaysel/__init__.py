"""Contention-based relay election toolkit.

Analytic slot-count distributions for splitting-tree and auction relay
elections, decision-region geometry for hop progress, and a slot-level
Monte Carlo simulator that cross-validates both.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    InfeasibleRegionError,
    ResourceLimitError,
    TruncationError,
)
from .pgf import (
    InversionParams,
    InversionResult,
    MomentEstimate,
    SplitModel,
    TruncatedSeries,
    auction_pgf,
    auction_skip_pgf,
    build_pgf,
    evaluate,
    invert_fourier,
    moments,
    sta_pgf_binary,
    sta_pgf_qary,
)
from .geometry import (
    LensRegion,
    Point2,
    SectorRegion,
    Topology,
    calibrate_sdr,
    circle_intersection_area,
    expected_nth_distance,
    iterated_priority_region,
    median_nth_distance,
    nth_neighbor_ccdf,
    nth_neighbor_pdf,
    partition_region,
    sample_topology,
)
from .simulator import (
    BatchSummary,
    CriRecord,
    EpisodeConfig,
    RecordBatch,
    SlotFeedback,
    empirical_pmf,
    run_auction,
    run_episode_batch,
    run_single_episode,
    run_sta,
    total_variation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
