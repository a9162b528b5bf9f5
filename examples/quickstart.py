"""Quickstart: train a private DLRM with LazyDP in ~20 lines.

Mirrors the paper's Figure 9(a) user interface: build a model, a data
loader, wrap them with ``make_private``, train, and read off the privacy
budget spent.

Run:  python examples/quickstart.py
"""

from repro import configs, make_private
from repro.data import DataLoader, SyntheticClickDataset
from repro.nn import DLRM


def main() -> None:
    # A runnable-scale DLRM: 8 tables x 4096 rows, 32-dim embeddings.
    config = configs.small_dlrm(rows=4096)
    model = DLRM(config, seed=0)

    dataset = SyntheticClickDataset(config, seed=0)
    loader = DataLoader(dataset, batch_size=256, num_batches=30, seed=1)

    # The LazyDP wrapper (paper Figure 9a): same hyper-parameters as the
    # Opacus call it replaces.  It returns the serial-plan TrainSession
    # with the loader bound, so fit() takes no argument.
    session = make_private(
        model,
        loader,
        noise_multiplier=1.1,
        max_gradient_norm=1.0,
        learning_rate=0.05,
        delta=1e-5,
    )

    result = session.fit()

    print(f"trained {result.iterations} iterations "
          f"in {result.wall_time:.2f}s")
    print(f"loss: {result.mean_losses[0]:.4f} -> {result.final_loss:.4f}")
    print(f"privacy spent: epsilon = {session.epsilon():.3f} "
          f"at delta = {session.trainer.config.delta:g}")
    overhead = session.trainer.timer.lazydp_overhead_total()
    print(f"LazyDP bookkeeping overhead: {overhead * 1e3:.1f} ms total "
          f"({overhead / result.wall_time:.1%} of wall time)")

    # At production scale the embedding engine shards: cut each table
    # into contiguous row ranges (the plan's `shards` axis, or
    # `--plan shards=...` on `python -m repro train`) and the lazy
    # update runs per shard in parallel — bitwise identical released
    # parameters, verified in tests/test_shard_equivalence.py.
    #
    #   from repro.session import ExecutionPlan, TrainSession
    #   plan = ExecutionPlan.from_spec("shards=4,backend=threads")
    #   session = TrainSession.build(model, dp_config, plan)


if __name__ == "__main__":
    main()
