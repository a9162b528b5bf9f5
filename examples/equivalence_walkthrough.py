"""Figure 7, executable: one embedding row under SGD / DP-SGD / LazyDP.

The paper's correctness argument is a timeline diagram (Figure 7): a row
accessed only at iterations 4 and 7 receives the same total noise whether
noise is applied eagerly (every iteration) or lazily (batched just before
each access).  This script replays that exact schedule with real noise
values and prints the three timelines, then verifies the paper's claim —
the value *visible at each access* and the final value are identical.

Run:  python examples/equivalence_walkthrough.py
"""

import numpy as np

from repro.lazydp import ANSEngine, HistoryTable
from repro.obs import format_table
from repro.rng import NoiseStream

ITERATIONS = 8
ACCESS_AT = (4, 7)           # the row is gathered at these iterations
DIM = 4
STD = 0.1                    # per-iteration noise std (sigma * C / B)
GRADIENT = 0.05              # stand-in gradient applied at access time
TABLE, ROW = 0, 17


def eager_schedule(stream: NoiseStream):
    """Baseline DP-SGD: noise every iteration, gradient at accesses."""
    value = np.zeros(DIM)
    timeline = []
    for iteration in range(1, ITERATIONS + 1):
        timeline.append((iteration, value.copy(),
                         "access+grad" if iteration in ACCESS_AT else ""))
        if iteration in ACCESS_AT:
            value = value - GRADIENT          # the gradient update
        value = value - stream.row_noise(     # the dense noise update
            TABLE, np.array([ROW]), iteration, DIM, std=STD
        )[0]
    return timeline, value


def lazy_schedule(stream: NoiseStream):
    """LazyDP: noise deferred until the iteration before each access."""
    value = np.zeros(DIM)
    history = HistoryTable(ROW + 1)
    engine = ANSEngine(stream, enabled=False)  # exact mode: same values
    timeline = []
    for iteration in range(1, ITERATIONS + 1):
        timeline.append((iteration, value.copy(),
                         "access+grad" if iteration in ACCESS_AT else ""))
        if iteration in ACCESS_AT:
            value = value - GRADIENT
        if iteration + 1 in ACCESS_AT:        # lookahead says: catch up now
            rows = np.array([ROW])
            delays = history.delays(rows, iteration)
            history.mark_updated(rows, iteration)
            value = value - engine.catchup_noise(
                TABLE, rows, delays, iteration, DIM, std=STD
            )[0]
    # Terminal flush: the released model carries the full noise history.
    rows = np.array([ROW])
    delays = history.delays(rows, ITERATIONS)
    value = value - engine.catchup_noise(
        TABLE, rows, delays, ITERATIONS, DIM, std=STD
    )[0]
    return timeline, value


def main() -> None:
    stream = NoiseStream(seed=2024)
    eager_timeline, eager_final = eager_schedule(stream)
    lazy_timeline, lazy_final = lazy_schedule(stream)

    rows = []
    for (it, eager_value, marker), (_, lazy_value, _) in zip(
        eager_timeline, lazy_timeline
    ):
        rows.append([
            it,
            f"{eager_value[0]:+.4f}",
            f"{lazy_value[0]:+.4f}",
            "==" if np.allclose(eager_value, lazy_value) else "differs",
            marker,
        ])
    print(format_table(
        ["iter", "DP-SGD value[0]", "LazyDP value[0]", "visible", "event"],
        rows,
        title="Figure 7 replay: first coordinate of the row, start of "
              "each iteration",
    ))
    print()
    print("Rows marked 'differs' are iterations where LazyDP is lazily")
    print("behind — legal, because the row is not gathered there.  At both")
    print("access iterations (4, 7) the values agree exactly.")

    for it, eager_value, _ in eager_timeline:
        if it in ACCESS_AT:
            lazy_value = lazy_timeline[it - 1][1]
            assert np.allclose(eager_value, lazy_value, atol=1e-12)
    assert np.allclose(eager_final, lazy_final, atol=1e-12)
    print()
    print(f"final value after flush:  DP-SGD {eager_final[0]:+.6f}  ==  "
          f"LazyDP {lazy_final[0]:+.6f}")
    print("equivalence verified to 1e-12.")


if __name__ == "__main__":
    main()
