"""Batch fragmentation and product-recall sizing.

Closed-form model for how customer orders fragment across production
batches under FIFO fulfillment, the expected recall size that follows
when batches can enter a crisis, and a deterministic Monte Carlo
harness that validates the closed form against a direct simulation of
the fulfillment process.
"""

from .model import (
    InvalidParamsError,
    ModelParams,
    expected_recall_size,
    fragment_stats,
    recall_limit_batch_inf,
    recall_limit_order_inf,
    recall_probability,
    recall_probability_exact,
    recall_size_formula,
)
from .montecarlo import EstimateConfig, estimate_recall, sweep
from .report import write_sweep
from .seeding import derive_seed, stream_output
from .simulation import TrialConfig, run_trial, run_trial_outcome

__version__ = "0.1.0"

# The documented surface; every other name is importable from its submodule.
__all__ = [
    "EstimateConfig",
    "InvalidParamsError",
    "ModelParams",
    "TrialConfig",
    "derive_seed",
    "estimate_recall",
    "expected_recall_size",
    "fragment_stats",
    "recall_limit_batch_inf",
    "recall_limit_order_inf",
    "recall_probability",
    "recall_probability_exact",
    "recall_size_formula",
    "run_trial",
    "run_trial_outcome",
    "stream_output",
    "sweep",
    "write_sweep",
    "__version__",
]
