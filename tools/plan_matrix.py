"""Plan-matrix smoke: every engine shape builds and steps.

For each plan spec in :data:`PLAN_SPECS` — ans on/off x flat/sharded x
inline/pipelined/async, the twelve shapes the plan axes span — parse
it, check both serialization round trips, build a trainer through
``TrainSession.build``, and run a short fit (one lookahead step plus
the terminal flush) at a tiny geometry.  Then iterate the execution-backend *registry*
(:func:`repro.session.available_backends`) and smoke one plan per
registered backend, so a backend someone registers — or one of the
built-ins — cannot silently stop composing with the session facade.
Backends whose optional dependency is missing in this environment
(e.g. ``numba`` without the ``[numba]`` extra) are reported and
skipped, not failed — their plans *must* raise a PlanError naming the
reason, which the skip path asserts.
CI runs this as the ``plan-matrix`` step so a plan that stops composing
— or stops round-tripping — fails fast, independently of the (slower)
tier-1 equivalence matrix.

Run:  PYTHONPATH=src python tools/plan_matrix.py
      PYTHONPATH=src python tools/plan_matrix.py --backends   # registry table
"""

import sys

#: One spec per engine shape: ans x shards x (inline | pipeline | async).
PLAN_SPECS = tuple(
    ",".join(part for part in (ans, shards, engine) if part)
    for engine in ("", "pipeline=2", "async=strict,inflight=2")
    for shards in ("", "shards=2")
    for ans in ("ans=on", "ans=off")
)


def _backend_smoke_plan(name):
    """A minimal plan exercising one registered backend."""
    from repro.session import ExecutionPlan, backend_info

    info = backend_info(name)
    if info.supports("shards"):
        return ExecutionPlan.from_spec(f"shards=2,backend={name}")
    return ExecutionPlan.from_spec(f"backend={name}")


def print_backends() -> int:
    """Print the backend registry table (same surface as `repro backends`)."""
    from repro.session import available_backends, backend_info

    rows = []
    for name in available_backends():
        info = backend_info(name)
        ok, reason = info.available()
        capabilities = ",".join(
            c for c in ("flat", "shards", "pipeline", "async", "workers")
            if info.supports(c)
        )
        rows.append((name, capabilities, info.kernels,
                     "yes" if ok else "NO",
                     info.description if ok else reason))
    widths = [max(len(str(row[i])) for row in rows) for i in range(4)]
    for row in rows:
        print(f"{row[0]:{widths[0]}s}  {row[1]:{widths[1]}s}  "
              f"{row[2]:{widths[2]}s}  {row[3]:{widths[3]}s}  {row[4]}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--backends" in argv:
        return print_backends()

    from repro import configs
    from repro.nn import DLRM
    from repro.session import (
        ExecutionPlan,
        PlanError,
        TrainSession,
        available_backends,
        backend_info,
    )
    from repro.testing import make_loader
    from repro.train import DPConfig

    config = configs.tiny_dlrm(num_tables=2, rows=48, dim=8, lookups=2)
    dp = DPConfig()
    failures = 0
    skipped = 0
    for spec in PLAN_SPECS:
        try:
            plan = ExecutionPlan.from_spec(spec)
            assert ExecutionPlan.from_dict(plan.to_dict()) == plan
            assert ExecutionPlan.from_spec(plan.to_spec()) == plan
            with TrainSession.build(DLRM(config, seed=7), dp, plan,
                                    noise_seed=99) as session:
                result = session.fit(
                    make_loader(config, batch_size=16, num_batches=2)
                )
                assert result.iterations == 2, result.iterations
                assert result.algorithm == plan.legacy_name(), result.algorithm
            print(f"ok   {result.algorithm:35s} <- {plan.canonical()}")
        except Exception as error:  # noqa: BLE001 - smoke surface
            failures += 1
            print(f"FAIL {spec:35s} -> {error!r}", file=sys.stderr)
    for name in available_backends():
        ok, reason = backend_info(name).available()
        if not ok:
            # Unavailable here: the only acceptable behavior is a
            # PlanError naming the reason at plan validation.
            try:
                _backend_smoke_plan(name)
            except PlanError as error:
                skipped += 1
                print(f"skip backend:{name:27s} -> {error}")
                continue
            failures += 1
            print(f"FAIL backend:{name:27s} -> unavailable backend "
                  "validated without a PlanError", file=sys.stderr)
            continue
        try:
            plan = _backend_smoke_plan(name)
            assert ExecutionPlan.from_spec(plan.to_spec()) == plan
            with TrainSession.build(DLRM(config, seed=7), dp, plan,
                                    noise_seed=99) as session:
                result = session.fit(
                    make_loader(config, batch_size=16, num_batches=2)
                )
                assert result.iterations == 2, result.iterations
            print(f"ok   backend:{name:27s} -> {plan.canonical()}")
        except Exception as error:  # noqa: BLE001 - smoke surface
            failures += 1
            print(f"FAIL backend:{name:27s} -> {error!r}", file=sys.stderr)
    if failures:
        print(f"{failures} plan(s) failed", file=sys.stderr)
        return 1
    print(f"\nplan matrix: {len(PLAN_SPECS)} plan specs and {len(available_backends()) - skipped} of "
          f"{len(available_backends())} registered backends built, "
          f"stepped and round-tripped ({skipped} unavailable here)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
