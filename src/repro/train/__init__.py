"""Training algorithms: SGD and the eager DP-SGD baseline family."""

from .common import (
    DPConfig,
    LAZYDP_OVERHEAD_STAGES,
    MODEL_UPDATE_STAGES,
    StageTimer,
    TrainerBase,
    TrainResult,
)
from .dpsgd import DPSGDBTrainer, DPSGDFTrainer, DPSGDRTrainer, EagerDPSGDBase
from .eana import EANATrainer
from .metrics import (
    calibration_bins,
    evaluate_model,
    expected_calibration_error,
    log_loss,
    roc_auc,
)
from .optimizers import DenseMomentum, DenseSGD
from .schedules import (
    ConstantLR,
    LinearWarmupLR,
    LRSchedule,
    StepDecayLR,
)
from .sgd import SGDTrainer

__all__ = [
    "DPConfig",
    "LAZYDP_OVERHEAD_STAGES",
    "MODEL_UPDATE_STAGES",
    "StageTimer",
    "TrainerBase",
    "TrainResult",
    "DPSGDBTrainer",
    "DPSGDFTrainer",
    "DPSGDRTrainer",
    "EagerDPSGDBase",
    "EANATrainer",
    "DenseMomentum",
    "DenseSGD",
    "calibration_bins",
    "evaluate_model",
    "expected_calibration_error",
    "log_loss",
    "roc_auc",
    "ConstantLR",
    "LinearWarmupLR",
    "LRSchedule",
    "StepDecayLR",
    "SGDTrainer",
]
