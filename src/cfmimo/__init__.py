"""Cell-free / user-centric massive MIMO system-level simulator for mixed
ground-user and UAV populations."""

from .config import SystemConfig
from .deployment import Drop, assign_pilots, sample_drop, toroidal_distance
from .channel import (LinkSet, build_links, los_probability, rice_factor,
                      sample_channels, steering_vector)
from .estimation import (EstimatorSet, build_estimators, covariance_G,
                         gamma_coeff, lmmse_filter_D, pilot_gram_B,
                         simulate_training)
from .bounds import (RateReport, delta_dl, se_lb, se_ub_mc, sinr_dl_lb,
                     sinr_ul_lb, uatf_terms)
from .allocation import (AssociationMap, PowerAllocation, associate,
                         dl_power_allocation, fpc, ppa, wfpc)
from .harness import (ExperimentResult, emit_cdf, percentile, run_experiment,
                      simulate_drop)
from .errors import (CfmimoError, ConfigurationError, GeometryError,
                     NumericalError, OutOfModelError)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
