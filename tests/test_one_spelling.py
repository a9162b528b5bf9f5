"""Structure guard: the lazy update has one spelling.

Reads the source tree and pins the counts the mechanism seam rests on,
so the next sample-stage mechanism (or schedule, or release path) cannot
quietly re-fork the update the way ``ScheduledLazyDPTrainer`` did: a new
mechanism touches ``repro/lazydp/ans.py`` and no engine file.  Likewise
the three hot kernels: one table, registered once, that no session
selects — compiled code lands under the reference kernels, not beside
them under a name.  And the paper's figures: one table of drivers and
bands, beside the bench runner, not in the library.  And the table
layout: every plan slices the model's own tables, one history and one
ledger per table, by row ranges — no wrapper bag, no per-row map.  And
the execution plan: one scalar field per ``--plan`` key, validated once,
with a closed table of three backends — no registry, no nested axis
configs, no second serialized form — and only the keys a caller runs:
no partition planner, no admission key, no bounded staleness.
"""

import pathlib
import re

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def occurrences(pattern: str, root: pathlib.Path = SRC) -> list:
    """``relative/path.py:line`` of every source line matching ``pattern``."""
    regex = re.compile(pattern)
    return [
        f"{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if regex.search(line)
    ]


def files(hits: list) -> list:
    return [hit.rsplit(":", 1)[0] for hit in hits]


def test_the_sample_stage_is_called_from_two_places():
    """``plan_sample`` (the step) and ``catch_up_rows`` (every release:
    flush, export, serving) — nothing else draws catch-up noise."""
    hits = occurrences(r"\.catchup_noise\(")
    assert files(hits) == ["lazydp/optimizer.py"] * 2, hits


def test_the_mechanism_is_built_once_and_forked():
    """One prototype per trainer; every consumer holds a ``fork()``."""
    hits = occurrences(r"(?<!class )\bANSEngine\(")
    assert files(hits) == ["lazydp/ans.py", "lazydp/trainer.py"], hits
    forks = occurrences(r"\.fork\(\)")
    assert sorted(set(files(forks))) == [
        "lazydp/optimizer.py", "serve/engine.py",
    ], forks


def test_train_does_not_import_lazydp():
    hits = occurrences(r"^\s*(from|import)\s+(\.\.|repro\.)lazydp", SRC / "train")
    assert hits == []


def test_the_forked_spellings_stay_deleted():
    hits = occurrences(
        r"ScheduledLazyDPTrainer|ScheduledDPSGDFTrainer"
        r"|PrivateTrainingSession|_weighted_catchup"
    )
    assert hits == []


def test_the_second_kernel_table_stays_deleted():
    """No selectable compiled table, extra, or CI job for one."""
    token = re.compile("numba|njit", re.IGNORECASE)
    tree = [ROOT / "pyproject.toml"]
    for root in (ROOT / "src", ROOT / ".github"):
        tree += [
            path for path in sorted(root.rglob("*"))
            if path.is_file() and path.suffix != ".pyc"
        ]
    hits = [
        path.relative_to(ROOT).as_posix()
        for path in tree
        if token.search(path.read_text())
    ]
    assert hits == []
    assert occurrences(r"PlanError") == []


def test_one_kernel_table_is_registered_and_no_session_selects_it():
    hits = occurrences(r"(?<!def )\bregister_kernel_table\(")
    assert files(hits) == ["kernels/dispatch.py"], hits
    assert occurrences(r"set_kernel_backend", SRC / "session") == []


def test_the_figures_live_beside_the_bench_runner():
    """No ``repro.bench``; one ``make_trainer``, next to the build it
    calls; one ``format_table``; one table of figures (``FIGURES``)."""
    assert list((SRC / "bench").rglob("*.py")) == []
    python = [
        path
        for tree in ("src", "tests", "benchmarks", "examples", "tools")
        for path in sorted((ROOT / tree).rglob("*.py"))
    ]

    def grep(pattern):
        regex = re.compile(pattern)
        return [
            f"{path.relative_to(ROOT).as_posix()}:{number}"
            for path in python
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if regex.search(line)
        ]

    # Spelled so that these patterns do not match their own source lines.
    assert grep(r"^\s*(from|import)\s+(repro[.]|[.]+)bench\b") == []
    assert files(grep(r"^def make_trainer[(]")) == ["src/repro/session/builder.py"]
    assert files(grep(r"^def format_table[(]")) == ["src/repro/obs/table.py"]
    assert grep(r"ALL_FIG" r"URES|TOLER" r"ANCES") == []


# -- the plan is its spec ------------------------------------------------------

#: The workloads the frozen end-to-end benchmark measures, and whether
#: each runs any thread beside the caller's (what its harness reads from
#: ``is_sharded or is_pipelined`` to decide if the caller may hop CPUs).
WORKLOAD_FANS_OUT = {
    "serial_uniform": False,
    "serial_zipf_pooled": False,
    "threads_composed_uniform": True,
    "process_sharded_uniform": True,
    "serve_zipf_live": False,
}


def test_the_plan_fields_are_the_spec_keys():
    from dataclasses import fields

    from repro.session import ExecutionPlan
    from repro.session.plan import _SPEC_KEYS

    names = [field.name for field in fields(ExecutionPlan)]
    assert names == [
        "ans", "shards", "pipeline", "async_", "inflight", "obs", "serve",
        "backend",
    ]
    assert [name.rstrip("_") for name in names] == list(_SPEC_KEYS)
    assert fields(ExecutionPlan)[names.index("async_")].type == "bool"


def test_the_removed_plan_spellings_stay_deleted():
    """Every plan releases the serial plan's bits: no partition planner
    to pick cuts, no admission key, no bounded staleness, no policy
    module."""
    import importlib

    from repro.session import ExecutionPlan
    from repro.session.plan import _SPEC_KEYS

    for name in ("partition", "admission"):
        assert name not in _SPEC_KEYS
        assert not hasattr(ExecutionPlan(), name)
    # Spelled in pieces so that these patterns do not match themselves.
    assert occurrences(
        r"Staleness" r"Policy|STALENESS_" r"MODES|Partition" r"Plan"
        r"|Table" r"Partition|build_partition" r"_plan|plan_from" r"_loader"
        r"|PARTITION_" r"STRATEGIES|partition_" r"frequency|access_" r"weights"
        r"|check_" r"partition|async_\.pol" r"icy|bounded:"
    ) == []
    assert not (SRC / "async_" / "policy.py").exists()
    with pytest.raises(ImportError):
        importlib.import_module("repro.async_." "policy")


def test_the_registry_axis_configs_and_dict_form_stay_deleted():
    assert not (SRC / "session" / "registry.py").exists()
    # Spelled in pieces so that these patterns do not match themselves.
    assert occurrences(
        r"register_" r"backend|Backend" r"Info|BACKEND_" r"CAPABILITIES"
        r"|available_" r"backends|backend_" r"info|parse_backend_" r"spec"
    ) == []
    assert occurrences(
        r"\b(Shard|Pipeline|Async|Observability|Serve)" r"Config\b"
        r"|_config_" r"from_dict|SHARD_" r"PARTITIONS|ASYNC_STALENESS_" r"MODES"
        r"|\bOBS_" r"MODES\b"
    ) == []
    assert occurrences(r"def (to_" r"dict|from_" r"dict|canon" r"ical)\(",
                       SRC / "session") == []


def test_every_workload_plan_round_trips_and_keeps_its_shape():
    from benchmarks.e2e.workloads import WORKLOADS
    from repro.session import ExecutionPlan

    assert sorted(workload.name for workload in WORKLOADS) == sorted(
        WORKLOAD_FANS_OUT
    )
    for workload in WORKLOADS:
        plan = ExecutionPlan.from_spec(workload.plan)
        spec = plan.to_spec()
        assert ExecutionPlan.from_spec(spec) == plan
        assert ExecutionPlan.from_spec(spec).to_spec() == spec
        fans_out = plan.is_sharded or plan.is_pipelined
        assert fans_out is WORKLOAD_FANS_OUT[workload.name], workload.name


# -- the one table layout ------------------------------------------------------

LAYOUT_SHARDS = ["", "shards=1", "shards=2", "shards=7"]
LAYOUT_BACKENDS = ["numpy", "threads", "process"]


def composed_plans():
    """Every (shards, backend) pair the plan language accepts."""
    from repro.session import ExecutionPlan

    plans = []
    for shards in LAYOUT_SHARDS:
        for backend in LAYOUT_BACKENDS:
            spec = ",".join(part for part in (shards, f"backend={backend}") if part)
            try:
                plans.append(ExecutionPlan.from_spec(spec))
            except ValueError:
                continue  # e.g. a flat plan on a backend that needs shards
    return plans


@pytest.mark.parametrize("plan", composed_plans(), ids=lambda plan: plan.to_spec())
def test_every_plan_keeps_the_models_own_bags(plan):
    """No plan wraps or re-adopts a bag: the layout slices the model's
    own tables, through training, the flush and ``close``."""
    from repro.nn.layers import EmbeddingBag

    model, session = _layout_session(plan)
    bags = list(model.embeddings)
    with session:
        _step_and_flush(session)
        assert list(model.embeddings) == bags
    assert list(model.embeddings) == bags
    assert all(type(bag) is EmbeddingBag for bag in bags)


@pytest.mark.parametrize("plan", composed_plans(), ids=lambda plan: plan.to_spec())
def test_one_history_per_table_and_windows_are_slices_of_it(plan):
    from repro.lazydp.history import HistoryTable

    model, session = _layout_session(plan)
    with session:
        engine = session.trainer.engine
        for t, bag in enumerate(model.embeddings):
            history = engine.histories[t]
            assert type(history) is HistoryTable
            storage = history._last_updated
            assert storage.dtype == np.int32 and storage.shape == (bag.num_rows,)
            windows = [
                state.windows[t] for state in engine.states
                if hasattr(state, "windows")   # process workers hold theirs
            ]
            for window in windows:
                if window.history is not None:
                    assert np.shares_memory(window.history._last_updated, storage)
        assert engine.history_bytes() == sum(
            bag.num_rows for bag in model.embeddings
        ) * 4


@pytest.mark.parametrize("num_shards", [2, 7])
def test_the_cut_holds_no_per_row_array(num_shards):
    """At 8 x 250 000 rows the router holds ``num_shards + 1`` cut points
    per table: no per-row map of any kind."""
    from repro import configs
    from repro.shard import ShardRouter

    config = configs.small_dlrm(rows=250_000)
    router = ShardRouter(config.table_rows, num_shards)
    arrays = [
        value for value in vars(router).values() if isinstance(value, np.ndarray)
    ] + list(router.bounds)
    assert len(arrays) == config.num_tables
    assert max(array.size for array in arrays) == num_shards + 1


def _layout_session(plan):
    from repro import configs
    from repro.nn import DLRM
    from repro.session import TrainSession
    from repro.train import DPConfig

    model = DLRM(configs.tiny_dlrm(num_tables=2, rows=40, dim=4, lookups=2), seed=7)
    return model, TrainSession.build(model, DPConfig(), plan, noise_seed=3)


def _step_and_flush(session):
    from repro.data import LookaheadLoader
    from repro.testing import make_loader

    session.trainer.expected_batch_size = 8
    loader = make_loader(session.model.config, batch_size=8, num_batches=2)
    for index, batch, upcoming in LookaheadLoader(loader):
        session.train_step(index + 1, batch, upcoming)
    session.finalize(2)
