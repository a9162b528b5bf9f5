"""LazyDP reproduction: scalable DP training of recommendation models.

Reimplements Lim et al., "LazyDP: Co-Designing Algorithm-Software for
Scalable Training of Differentially Private Recommendation Models"
(ASPLOS 2024) as a self-contained numpy library: the DLRM model, the
DP-SGD baseline family (B/R/F), EANA, LazyDP itself (lazy noise update +
aggregated noise sampling), RDP privacy accounting, synthetic trace
generation, and a calibrated performance model of the paper's CPU-GPU
testbed that regenerates every evaluation figure at full 96 GB-192 GB
scale.

Quickstart::

    from repro import configs, make_private
    from repro.data import DataLoader, SyntheticClickDataset
    from repro.nn import DLRM

    config = configs.tiny_dlrm()
    model = DLRM(config, seed=0)
    dataset = SyntheticClickDataset(config, seed=0)
    loader = DataLoader(dataset, batch_size=64, num_batches=20)
    session = make_private(model, loader, noise_multiplier=1.1,
                           max_gradient_norm=1.0)
    result = session.fit()
    print(result.final_loss, session.epsilon())
"""

from . import configs
from .configs import DLRMConfig
from .kernels import fused_noisy_update
from .data import Batch, DataLoader, SyntheticClickDataset
from .lazydp import LazyDPTrainer, make_private
from .nn import DLRM
from .privacy import RDPAccountant
from .serve import PrivateServingEngine
from .session import ExecutionPlan, TrainSession
from .train import (
    DPConfig,
    DPSGDBTrainer,
    DPSGDFTrainer,
    DPSGDRTrainer,
    EANATrainer,
    SGDTrainer,
    TrainResult,
)

__version__ = "1.0.0"

__all__ = [
    "configs",
    "DLRMConfig",
    "Batch",
    "DataLoader",
    "SyntheticClickDataset",
    "LazyDPTrainer",
    "fused_noisy_update",
    "ExecutionPlan",
    "TrainSession",
    "PrivateServingEngine",
    "make_private",
    "DLRM",
    "RDPAccountant",
    "DPConfig",
    "DPSGDBTrainer",
    "DPSGDFTrainer",
    "DPSGDRTrainer",
    "EANATrainer",
    "SGDTrainer",
    "TrainResult",
    "__version__",
]
