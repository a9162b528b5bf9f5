"""Tests for the command-line interface."""

import pathlib
import platform
import re

import pytest

from repro.cli import main


class TestTrainCommand:
    def test_trains_and_reports(self, capsys):
        code = main([
            "train", "--algorithm", "lazydp", "--rows", "512",
            "--batch", "32", "--iterations", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lazydp" in out
        assert "epsilon" in out
        assert "stage breakdown" in out

    def test_sgd_has_no_epsilon(self, capsys):
        main(["train", "--algorithm", "sgd", "--rows", "256",
              "--batch", "16", "--iterations", "2"])
        out = capsys.readouterr().out
        assert "epsilon" not in out

    def test_skewed_training(self, capsys):
        code = main([
            "train", "--algorithm", "eana", "--rows", "512",
            "--batch", "16", "--iterations", "2", "--skew", "high",
        ])
        assert code == 0

    def test_sharded_training(self, capsys):
        code = main([
            "train", "--rows", "512", "--batch", "32", "--iterations", "3",
            "--plan", "shards=3,partition=frequency,backend=threads",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded_lazydp" in out
        assert "per-shard model update" in out
        assert "shard_model_update" in out

    def test_one_shard_plan_is_the_flat_engine(self, capsys):
        code = main([
            "train", "--rows", "256", "--batch", "16", "--iterations", "2",
            "--plan", "shards=1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-shard model update" not in out
        assert "shard_model_update" not in out

    def test_pipelined_training(self, capsys):
        code = main([
            "train", "--rows", "512", "--batch", "32", "--iterations", "3",
            "--plan", "pipeline=2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipelined_lazydp" in out
        assert "noise prefetch pipeline (depth 2)" in out
        assert "hidden fraction" in out

    def test_pipelined_sharded_training(self, capsys):
        code = main([
            "train", "--rows", "512", "--batch", "32", "--iterations", "3",
            "--plan", "shards=2,pipeline=2,backend=threads",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipelined_sharded_lazydp" in out
        assert "per-shard model update" in out
        assert "noise prefetch pipeline" in out

    def test_no_ans_algorithm_is_the_ans_off_plan(self, capsys):
        code = main([
            "train", "--algorithm", "lazydp_no_ans", "--rows", "256",
            "--batch", "16", "--iterations", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lazydp_no_ans" in out
        assert "plan             : ans=off" in out

    @pytest.mark.parametrize("spec, message", [
        ("pipeline=-1", ">= 0"),
        ("async=strict,inflight=0", "max_in_flight"),
        ("shards=2,backend=threads:0", "worker count"),
    ])
    def test_rejects_bad_engine_values(self, capsys, spec, message):
        """A bad value is an error naming the field, never a traceback."""
        code = main([
            "train", "--rows", "256", "--batch", "16", "--iterations", "2",
            "--plan", spec,
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--num-shards", "--partition", "--executor", "--max-workers",
        "--pipeline", "--prefetch-depth", "--async", "--max-in-flight",
        "--staleness",
    ])
    def test_engine_flags_are_gone(self, capsys, flag):
        """Everything about *how* LazyDP executes is --plan."""
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--help"])
        assert excinfo.value.code == 0
        assert flag not in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--rows", "256", flag, "2"])
        assert excinfo.value.code == 2

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["train", "--algorithm", "adam"])


class TestPlanFlag:
    """The unified --plan spec: parse, run, reject, round-trip."""

    def test_plan_spec_trains_and_reports_canonically(self, capsys):
        code = main([
            "train", "--rows", "512", "--batch", "32", "--iterations", "3",
            "--plan", "shards=2,pipeline=2,backend=threads",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipelined_sharded_lazydp" in out
        assert ("plan             : ans=on,shards=2,partition=row_range,"
                "pipeline=2,backend=threads") in out
        assert "per-shard model update" in out
        assert "noise prefetch pipeline" in out

    def test_async_plan_spec(self, capsys):
        code = main([
            "train", "--rows", "512", "--batch", "32", "--iterations", "3",
            "--plan", "async=strict,inflight=2,ans=off",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "async_lazydp_no_ans" in out
        assert "async apply engine" in out

    def test_reported_plan_round_trips(self, capsys):
        """The canonical string the CLI prints parses back to the same
        plan — the spec <-> to_dict/from_dict <-> canonical loop."""
        from repro.session import ExecutionPlan

        main([
            "train", "--rows", "256", "--batch", "16", "--iterations", "2",
            "--plan", "shards=3,partition=hash,async=bounded:1,inflight=3",
        ])
        out = capsys.readouterr().out
        printed = next(
            line.split(":", 1)[1].strip() for line in out.splitlines()
            if line.startswith("plan ")
        )
        plan = ExecutionPlan.from_spec(printed)
        assert plan.canonical() == printed
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan

    def test_rejects_contradictory_spec(self, capsys):
        code = main([
            "train", "--rows", "256", "--batch", "16", "--iterations", "2",
            "--plan", "async=strict,pipeline=0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "contradictory" in err
        assert "pipeline=0" in err

    def test_rejects_unknown_spec_key(self, capsys):
        code = main([
            "train", "--rows", "256", "--batch", "16", "--iterations", "2",
            "--plan", "turbo=on",
        ])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm, spec", [
        ("lazydp_no_ans", "ans=off"),
        ("dpsgd_f", "shards=2"),
        ("dpsgd_f", "pipeline=2"),
    ])
    def test_rejects_plan_combined_with_algorithm(self, capsys, algorithm,
                                                  spec):
        """A plan is how *LazyDP* executes: baselines take none, and the
        ans axis lives inside the spec."""
        code = main([
            "train", "--algorithm", algorithm, "--rows", "256",
            "--batch", "16", "--iterations", "2", "--plan", spec,
        ])
        assert code == 2
        assert "ans" in capsys.readouterr().err


class TestAuditCommand:
    def test_audit_verdicts(self, capsys):
        code = main(["audit", "--rows", "512", "--batch", "32",
                     "--iterations", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LEAKS" in out       # EANA
        assert "protected" in out   # LazyDP


class TestBackendsCommand:
    def test_lists_the_registry_and_the_gaussian_kernel(self, capsys):
        assert main(["backends"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = [cell.strip() for cell in lines[1].split("|")]
        assert header == ["backend", "capabilities", "notes"]
        rows = [
            [cell.strip() for cell in line.split("|")][:2]
            for line in lines[3:6]
        ]
        assert rows == [
            ["numpy", "flat,shards,pipeline,async"],
            ["threads", "shards,pipeline,async,workers"],
            ["process", "shards,workers"],
        ]
        assert lines[6] == ""
        assert re.fullmatch(
            r"compiled kernels: (native \((avx512|scalar)\) \S+\.so|numpy \(.+\))",
            lines[7],
        )
        assert len(lines) == 8

    @staticmethod
    def _kernels_line(capsys):
        assert main(["backends"]) == 0
        return capsys.readouterr().out.splitlines()[-1]

    def test_the_instruction_set_is_the_cpus(self, native_lib, capsys):
        """AVX-512 bodies exactly where the CPU has AVX-512 F + DQ and the
        libm is glibc's (the window was measured against it)."""
        cpuinfo = pathlib.Path("/proc/cpuinfo")
        if not cpuinfo.is_file():
            pytest.skip("no /proc/cpuinfo to read the CPU's flags from")
        flags = set(re.search(r"^flags\s*:(.*)$", cpuinfo.read_text(), re.M)[1].split())
        vector = (
            {"avx512f", "avx512dq"} <= flags
            and platform.machine() == "x86_64"
            and platform.libc_ver()[0] == "glibc"
        )
        isa = "avx512" if vector else "scalar"
        assert self._kernels_line(capsys).startswith(f"compiled kernels: native ({isa}) ")

    def test_the_scalar_c_says_so(self, scalar_c, capsys):
        assert self._kernels_line(capsys).startswith("compiled kernels: native (scalar) ")


class TestArgumentValidation:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_four_commands(self, capsys):
        """The paper's figures are bench cases, not commands."""
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{train,audit,backends,serve}" in capsys.readouterr().out
