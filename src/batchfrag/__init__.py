"""Batch fragmentation and product-recall sizing.

Closed-form model for how customer orders fragment across production
batches under FIFO fulfillment, the expected recall size that follows
when batches can enter a crisis, and a deterministic Monte Carlo
harness that validates the closed form against a direct simulation of
the fulfillment process.
"""

from .model import (
    FragmentationStats,
    InvalidParamsError,
    ModelParams,
    expected_fragments,
    expected_recall_size,
    fragment_stats,
    recall_limit_batch_inf,
    recall_limit_order_inf,
    recall_probability,
    recall_probability_exact,
    recall_size_formula,
)
from .montecarlo import (
    Z95,
    Z98,
    EstimateConfig,
    SweepGrid,
    TrialEstimate,
    estimate_recall,
    sweep,
    trial_recalls,
)
from .report import (
    ReportSpec,
    render_outcome,
    render_summary,
    write_fragments_curve,
    write_summary,
    write_sweep,
)
from .seeding import Stream, derive_seed, derive_seeds, stream_output
from .simulation import (
    Batch,
    FulfillmentOutcome,
    InsufficientInventoryError,
    Order,
    TrialConfig,
    fifo_assign,
    generate_batches,
    generate_orders,
    measure_recall,
    run_trial,
    run_trial_outcome,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "EstimateConfig",
    "FragmentationStats",
    "FulfillmentOutcome",
    "InsufficientInventoryError",
    "InvalidParamsError",
    "ModelParams",
    "Order",
    "ReportSpec",
    "Stream",
    "SweepGrid",
    "TrialConfig",
    "TrialEstimate",
    "Z95",
    "Z98",
    "derive_seed",
    "derive_seeds",
    "estimate_recall",
    "expected_fragments",
    "expected_recall_size",
    "fifo_assign",
    "fragment_stats",
    "generate_batches",
    "generate_orders",
    "measure_recall",
    "recall_limit_batch_inf",
    "recall_limit_order_inf",
    "recall_probability",
    "recall_probability_exact",
    "recall_size_formula",
    "render_outcome",
    "render_summary",
    "run_trial",
    "run_trial_outcome",
    "stream_output",
    "sweep",
    "trial_recalls",
    "write_fragments_curve",
    "write_summary",
    "write_sweep",
    "__version__",
]
