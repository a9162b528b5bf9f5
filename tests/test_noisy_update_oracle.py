"""The released bits of eager DP-SGD and EANA, pinned against an oracle.

Eager DP-SGD(B), (R), (F) and EANA share one embedding update over a
set of due rows (``repro.train.dpsgd``).  The two loops it replaced are
kept here, spelt as they were, as the reference updates:

- eager: ``row_noise`` over every row, the gradient scattered in, then
  ``table -= lr * noise``;
- EANA: noise over the accessed rows, ``merge_sparse_updates`` with the
  gradient, then ``table[rows] -= lr * values``.

Each trainer trains beside a twin whose only difference is the
reference update, and every parameter must match as ``uint64`` — at
pooling 1, at pooling 16 over a Zipf trace, under Poisson sampling and
under a step-decay schedule, on the kernels as loaded and on the numpy
paths.  Nothing here may skip: a host without a C compiler runs the
numpy side twice and asserts its bits.
"""

import numpy as np
import pytest

from repro import configs
from repro.data.skew import SkewSpec
from repro.kernels import merge_sparse_updates
from repro.nn import DLRM
from repro.testing import make_loader
from repro.train import (
    DPConfig,
    DPSGDBTrainer,
    DPSGDFTrainer,
    DPSGDRTrainer,
    EANATrainer,
    StepDecayLR,
)

DP = DPConfig(noise_multiplier=1.1, max_grad_norm=1.0, learning_rate=0.05)


class EagerReference:
    """Noise on every row, the gradient scattered in, one dense subtract."""

    def _apply_embedding_updates(self, grads, iteration, noise_std):
        lr = self._learning_rate(iteration)
        for table_index, bag in enumerate(self.model.embeddings):
            grad = grads[bag.table.name]
            noise = self.noise_stream.row_noise(
                table_index, np.arange(bag.num_rows, dtype=np.int64),
                iteration, bag.dim, std=noise_std,
            )
            noise[grad.rows] += grad.values
            bag.table.data -= lr * noise


class EANAReference:
    """Noise on the accessed rows, merged with the gradient, one scatter."""

    def _apply_embedding_updates(self, grads, iteration, noise_std):
        lr = self._learning_rate(iteration)
        for table_index, bag in enumerate(self.model.embeddings):
            grad = grads[bag.table.name]
            noise = self.noise_stream.row_noise(
                table_index, grad.rows, iteration, bag.dim, std=noise_std
            )
            rows, values = merge_sparse_updates(
                grad.rows, grad.values, grad.rows, noise
            )
            bag.table.data[rows] -= lr * values


TRAINERS = {
    "dpsgd_b": (DPSGDBTrainer, EagerReference),
    "dpsgd_r": (DPSGDRTrainer, EagerReference),
    "dpsgd_f": (DPSGDFTrainer, EagerReference),
    "eana": (EANATrainer, EANAReference),
}

CASES = {
    "pooling_1": dict(lookups=1),
    "pooling_16_zipf": dict(lookups=16, skew=SkewSpec("zipf", 1.3)),
    "poisson": dict(lookups=1, sampling="poisson"),
    "step_decay": dict(lookups=1, schedule=True),
}


def fit(trainer_class, case):
    config = configs.tiny_dlrm(num_tables=2, rows=48, dim=8, lookups=case["lookups"])
    model = DLRM(config, seed=7)
    schedule = StepDecayLR(0.1, factor=0.5, step_size=2) if case.get("schedule") else None
    trainer = trainer_class(model, DP, noise_seed=99, schedule=schedule)
    trainer.fit(make_loader(
        config, batch_size=16, num_batches=5,
        sampling=case.get("sampling", "fixed"), skew=case.get("skew"),
    ))
    return model


@pytest.fixture(params=["loaded", "numpy"])
def kernel_path(request):
    """The kernels as loaded (compiled where a compiler was found), then
    the numpy expressions whatever was loaded."""
    if request.param == "numpy":
        request.getfixturevalue("ufunc_chain")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("algorithm", TRAINERS)
def test_the_update_releases_the_reference_bits(kernel_path, algorithm, case):
    trainer_class, reference = TRAINERS[algorithm]
    twin_class = type(f"Reference{trainer_class.__name__}", (reference, trainer_class), {})
    model = fit(trainer_class, CASES[case])
    twin = fit(twin_class, CASES[case])
    params, expected = model.parameters(), twin.parameters()
    assert params.keys() == expected.keys()
    for name in params:
        assert np.array_equal(
            params[name].data.view(np.uint64), expected[name].data.view(np.uint64)
        ), name

