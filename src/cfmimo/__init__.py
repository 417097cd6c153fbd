"""Cell-free / user-centric massive MIMO system-level simulator for mixed
ground-user and UAV populations."""

from .config import SystemConfig
from .harness import ExperimentResult, emit_cdf, run_experiment

__all__ = ["ExperimentResult", "SystemConfig", "emit_cdf", "run_experiment"]
__version__ = "0.1.0"
