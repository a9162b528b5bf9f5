"""Structure guard: the lazy update has one spelling.

Reads the source tree and pins the counts the mechanism seam rests on,
so the next sample-stage mechanism (or schedule, or release path) cannot
quietly re-fork the update the way ``ScheduledLazyDPTrainer`` did: a new
mechanism touches ``repro/lazydp/ans.py`` and no engine file.  Likewise
the three hot kernels: one table, registered once, that no session
selects — compiled code lands under the reference kernels, not beside
them under a name.
"""

import pathlib
import re

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
