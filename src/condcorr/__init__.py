"""Direction-conditioned correlation and gain-loss asymmetry toolkit.

Measures two related asymmetries in daily price panels:

* whether stock-stock correlations strengthen when the market index moves
  down versus up by the same amount (conditional market component
  correlation, the C(ρ) curve, per-pair χ distributions, and rank-sum
  significance tests), and
* whether an index reaches a loss level −|ρ| sooner than the gain +|ρ|
  (inverse statistics: first-passage waiting-time histograms and their
  power-law tails).

A seeded market simulator with a tunable synchronized-crash probability
provides positive and null controls for both analyses end to end.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .conditional import (
    ChiReport,
    CorrelationCurve,
    CurvePoint,
    PairConditional,
    PanelAnalysis,
    TimeResolvedCorrelation,
    analyze_panel,
)
from .errors import CondCorrError, DataError, InsufficientDataError, ValidationError
from .fearsim import (
    SimConfig,
    SimPanel,
    build_index,
    simulate_market,
    to_aligned_panel,
)
from .inverse_stats import (
    GainLossEntry,
    GainLossReport,
    TailFit,
    WaitingTimeHistogram,
    fit_tail_exponent,
    gain_loss_report,
)
from .io import (
    DatasetManifest,
    RunConfig,
    directional_tests,
    ingest_csv,
    load_manifest,
    load_panel,
    load_run_config,
    run_condcorr,
    run_invstats,
    run_simulate,
)
from .ranktests import RankSumResult, wilcoxon_rank_sum
from .timeseries import (
    AlignedPanel,
    PriceSeries,
    align_panel,
    detrend_log_price,
)

# the public names, not the submodules: a star import must not rebind ``io``
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
