"""LazyDP: lazy noise update + aggregated noise sampling (the paper's core)."""

from .ans import ANSEngine
from .api import make_private
from .checkpoint import export_private_model, load_checkpoint, save_checkpoint
from .history import HistoryTable, NaiveCounterHistory
from .ledger import LedgerError, VersionVector
from .optimizer import Catchup, LazyNoiseEngine, ShardState, TableWindow
from .scheduler import Scheduler
from .trainer import LazyDPTrainer

__all__ = [
    "ANSEngine",
    "make_private",
    "export_private_model",
    "load_checkpoint",
    "save_checkpoint",
    "HistoryTable",
    "NaiveCounterHistory",
    "LedgerError",
    "VersionVector",
    "Catchup",
    "LazyNoiseEngine",
    "ShardState",
    "TableWindow",
    "Scheduler",
    "LazyDPTrainer",
]
