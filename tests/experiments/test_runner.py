"""Tests for the repro-experiments CLI."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.exec import SweepExecutor, config_digest
from repro.exec import executor as executor_module
from repro.experiments import runner
from repro.experiments.common import ExperimentScale
from repro.experiments.runner import build_executor, build_parser, main
from repro.sim.config import DEFAULT_FIDELITY

#: Every experiment of ``all`` in a few seconds: the planned-pass tests
#: check cell identity and report text, not the figures' shapes.
MICRO = ExperimentScale(
    name="micro",
    population=60,
    rounds=400,
    data_blocks=4,
    parity_blocks=4,
    time_scale=0.05,
    seeds=(0,),
)


class TestParser:
    def test_tables_command_parses(self):
        args = build_parser().parse_args(["tables"])
        assert args.experiment == "tables"

    def test_scale_and_seeds(self):
        args = build_parser().parse_args(
            ["fig1", "--scale", "quick", "--seeds", "1", "2", "--markdown"]
        )
        assert args.scale == "quick"
        assert args.seeds == [1, 2]
        assert args.markdown

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_executor_flags_default(self):
        args = build_parser().parse_args(["fig1"])
        assert args.workers == 1
        assert args.cache_dir == ".repro-cache"
        assert not args.no_cache

    def test_executor_flags_parse(self):
        args = build_parser().parse_args(
            ["fig1", "--workers", "4", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache

    def test_build_executor_honours_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["fig1", "--workers", "3", "--cache-dir", str(tmp_path)]
        )
        executor = build_executor(args)
        assert executor.workers == 3
        assert executor.cache is not None
        assert str(executor.cache.root) == str(tmp_path)

    def test_build_executor_no_cache(self):
        args = build_parser().parse_args(["fig1", "--no-cache"])
        assert build_executor(args).cache is None

    def test_all_experiments_registered(self):
        parser = build_parser()
        for name in (
            "fig1", "fig2", "fig3", "fig4", "fig-fidelity",
            "ablation-selection", "ablation-quota",
            "ablation-grace", "ablation-proactive",
            "tables", "all", "list", "run",
        ):
            assert parser.parse_args([name]).experiment == name

    def test_scenario_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--scenario", "flash_crowd",
             "--population", "100", "--rounds", "500"]
        )
        assert args.scenario == "flash_crowd"
        assert args.population == 100
        assert args.rounds == 500


class TestMain:
    def test_tables_exit_code(self, capsys):
        assert main(["tables"]) == 0
        output = capsys.readouterr().out
        assert "T1" in output and "C1" in output

    def test_csv_dir_option_parses(self):
        args = build_parser().parse_args(["fig1", "--csv-dir", "/tmp/x"])
        assert args.csv_dir == "/tmp/x"

    def test_tables_markdown(self, capsys):
        assert main(["tables", "--markdown"]) == 0
        assert "|" in capsys.readouterr().out

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            main(["fig1", "--scale", "cosmic"])


class TestListCommand:
    def test_lists_every_registry(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "scenarios:" in output
        assert "selection strategies:" in output
        assert "acceptance rules:" in output
        assert "codec backends:" not in output  # no byte-level codec left
        assert "churn mixes:" in output
        assert "execution backends:" in output
        assert "fidelity backends:" in output
        assert "link profiles:" in output
        assert "lifetime models:" in output
        assert "repair-policy presets:" in output
        for name in ("flash_crowd", "diurnal", "correlated_outage",
                     "heterogeneous_quota", "slow_decay",
                     "constrained_uplink", "unfair_freeriders"):
            assert name in output

    def test_lists_execution_and_fidelity_backend_names(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("serial", "process", "distributed"):
            assert f"  {name}" in output
        assert f"  {DEFAULT_FIDELITY} (default)" in output
        assert "  protocol\n" in output
        fidelities = output.split("fidelity backends:\n")[1].split("link profiles:")[0]
        assert fidelities.count("(default)") == 1
        assert "  paper-dsl" in output

    def test_closed_stdout_ends_without_traceback(self):
        """``repro-experiments list | head -1`` where ``head`` wins the
        race: the reader closes the pipe before the report is written.
        The command ends normally, with nothing on stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = pathlib.Path(runner.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.experiments.runner", "list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in completed.stderr, completed.stderr
        assert completed.stderr == ""
        assert completed.returncode == 0


class TestRunCommand:
    def test_scenario_flags_rejected_outside_run(self):
        for argv in (
            ["fig1", "--scenario", "flash_crowd"],
            ["tables", "--population", "100"],
            ["all", "--rounds", "500"],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_run_requires_scenario(self, capsys):
        assert main(["run", "--no-cache"]) == 2
        assert "flash_crowd" in capsys.readouterr().out

    def test_run_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            main(["run", "--scenario", "apocalypse", "--no-cache"])

    def test_run_scenario_end_to_end(self, capsys):
        code = main([
            "run", "--scenario", "flash_crowd",
            "--population", "60", "--rounds", "200", "--no-cache",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario flash_crowd" in output
        assert "repairs=" in output
        assert "[executor]" in output

    def test_profile_flags_rejected_outside_profile(self):
        for argv in (
            ["fig1", "--sort", "tottime"],
            ["run", "--scenario", "paper", "--limit", "5"],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_profile_requires_scenario(self, capsys):
        assert main(["profile"]) == 2
        assert "paper" in capsys.readouterr().out

    def test_profile_scenario_end_to_end(self, capsys):
        code = main([
            "profile", "--scenario", "paper",
            "--population", "50", "--rounds", "150",
            "--sort", "tottime", "--limit", "5",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario paper" in output
        assert "cumtime" in output  # pstats table header
        assert "[profile]" in output

    def test_profile_mem_reports_both_peaks(self, capsys):
        """``--mem`` is how the docs' memory figures are reproduced."""
        code = main([
            "profile", "--scenario", "paper",
            "--population", "50", "--rounds", "150",
            "--limit", "3", "--mem",
        ])
        assert code == 0
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("[profile] memory:")
        ]
        match = re.fullmatch(
            r"\[profile\] memory: tracemalloc peak ([0-9.]+) MiB, "
            r"peak RSS ([0-9.]+) MiB",
            line,
        )
        assert match, line
        traced, rss = (float(value) for value in match.groups())
        assert 0.0 < traced < rss

    @pytest.mark.parametrize("fidelity", ["abstract_soa", "protocol"])
    def test_profile_reports_per_kind_breakdown(self, capsys, fidelity):
        code = main([
            "profile", "--scenario", "paper",
            "--population", "50", "--rounds", "200",
            "--fidelity", fidelity, "--limit", "3",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "per-event-kind share" in output
        # The workload's staple kinds must be attributed on both
        # backends, with dispatch counts and a loop remainder line.
        assert "toggle" in output
        assert "check" in output
        assert "dispatches)" in output
        assert "(loop)" in output

    def test_profile_breakdown_includes_transfer_share(self, capsys):
        code = main([
            "profile", "--scenario", "paper",
            "--population", "60", "--rounds", "300",
            "--fidelity", "protocol", "--limit", "3",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "per-event-kind share" in output
        assert "transfer" in output

    def test_fidelity_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "--scenario", "paper", "--fidelity", "protocol"]
        )
        assert args.fidelity == "protocol"

    def test_unknown_fidelity_raises_with_choices(self):
        with pytest.raises(ValueError) as excinfo:
            main(["run", "--scenario", "paper", "--fidelity", "quantum",
                  "--population", "50", "--rounds", "100", "--no-cache"])
        assert "protocol" in str(excinfo.value)

    def test_run_scenario_protocol_fidelity_end_to_end(self, capsys):
        code = main([
            "run", "--scenario", "paper", "--fidelity", "protocol",
            "--population", "60", "--rounds", "200", "--no-cache",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "fidelity=protocol" in output
        assert "repairs=" in output

    def test_fidelity_flag_rejected_outside_scenario_commands(self):
        with pytest.raises(SystemExit):
            main(["fig1", "--fidelity", "protocol"])

    def test_run_scenario_uses_cache(self, capsys, tmp_path):
        argv = [
            "run", "--scenario", "slow_decay",
            "--population", "60", "--rounds", "200",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        second = capsys.readouterr().out.rsplit("[executor]", 1)[1]
        assert "1 from cache" in second


class TestDistributedCLI:
    def test_backend_flags_parse(self):
        args = build_parser().parse_args(
            ["all", "--backend", "distributed",
             "--worker-id", "host1", "--lease-ttl", "5"]
        )
        assert args.backend == "distributed"
        assert args.worker_id == "host1"
        assert args.lease_ttl == 5.0

    def test_backend_defaults_to_auto(self):
        args = build_parser().parse_args(["fig1"])
        assert args.backend is None
        assert args.worker_id is None
        assert args.lease_ttl is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["all", "--backend", "carrier-pigeon"])

    def test_build_executor_passes_backend(self, tmp_path):
        args = build_parser().parse_args(
            ["all", "--backend", "distributed", "--cache-dir", str(tmp_path)]
        )
        executor = build_executor(args)
        assert executor.backend_name == "distributed"

    def test_distributed_without_cache_rejected(self, tmp_path):
        # A clean CLI error, not a SweepExecutor traceback.
        args = build_parser().parse_args(
            ["all", "--backend", "distributed", "--no-cache"]
        )
        with pytest.raises(SystemExit) as error:
            build_executor(args)
        assert "--no-cache" in str(error.value)

    def test_run_scenario_distributed_end_to_end(self, capsys, tmp_path):
        code = main([
            "run", "--scenario", "slow_decay",
            "--population", "60", "--rounds", "200",
            "--cache-dir", str(tmp_path), "--backend", "distributed",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "1 simulated" in output
        # The distributed run published through the shared cache; a
        # serial re-run over the same cache resolves without simulating.
        code = main([
            "run", "--scenario", "slow_decay",
            "--population", "60", "--rounds", "200",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        assert "1 from cache" in capsys.readouterr().out


class TestWorkerCommand:
    def test_worker_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["worker", "--scale", "quick", "--cache-dir", str(tmp_path),
             "--worker-id", "w7", "--experiments", "fig3", "fig4",
             "--seeds", "0", "1", "--lease-ttl", "10", "--workers", "4"]
        )
        assert args.experiment == "worker"
        assert args.scale == "quick"
        assert args.worker_id == "w7"
        assert args.experiments == ["fig3", "fig4"]
        assert args.seeds == [0, 1]
        assert args.lease_ttl == 10.0
        assert args.workers == 4

    def test_worker_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "--experiments", "fig9"])

    def test_worker_has_no_no_cache_flag(self):
        # A worker without a shared cache cannot publish anything.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "--no-cache"])

    @pytest.mark.slow
    def test_worker_drains_and_second_worker_finds_nothing(
        self, capsys, tmp_path
    ):
        argv = [
            "worker", "--scale", "quick", "--experiments", "fig4",
            "--cache-dir", str(tmp_path), "--worker-id", "w1",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "fig4: 2 cells" in first
        assert "2 simulated" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 simulated" in second
        # The published cells now serve the coordinating sweep too.
        assert main([
            "fig4", "--scale", "quick", "--cache-dir", str(tmp_path),
        ]) == 0
        coordinated = capsys.readouterr().out.rsplit("[executor]", 1)[1]
        assert "0 simulated" in coordinated


class TestSubcommandHelp:
    def test_every_command_has_an_example_epilog(self, capsys):
        for name in (
            "fig1", "fig2", "fig3", "fig4", "fig-fidelity",
            "ablation-selection",
            "ablation-quota", "ablation-grace", "ablation-proactive",
            "ablation-adaptive", "tables", "all", "list", "run",
            "profile", "worker",
        ):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([name, "--help"])
            assert exit_info.value.code == 0
            output = capsys.readouterr().out
            assert "example:" in output
            assert f"repro-experiments {name}" in output


def _cell_digests(spec):
    return [config_digest(cell.config) for cell in spec.cells()]


def _report(stdout):
    """A CLI report minus its ``[executor]`` summary (it carries timings)."""
    return "".join(
        line for line in stdout.splitlines(keepends=True)
        if not line.startswith("[executor]")
    )


@pytest.fixture
def micro_scale(monkeypatch):
    monkeypatch.setattr(runner, "scale_by_name", lambda name: MICRO)


@pytest.fixture
def pools(monkeypatch):
    """Worker count of every process pool the executor opens."""
    opened = []

    pool = executor_module.Pool

    def counting_pool(processes=None, *args, **kwargs):
        opened.append(processes)
        return pool(processes, *args, **kwargs)

    monkeypatch.setattr(executor_module, "Pool", counting_pool)
    return opened


class TestPlannedCommands:
    def test_planned_specs_are_the_specs_each_runner_runs(
        self, micro_scale, monkeypatch, capsys
    ):
        planned, ran = [], []
        plan, run = SweepExecutor.plan, SweepExecutor.run

        def spy_plan(self, specs):
            specs = list(specs)
            planned.extend(_cell_digests(spec) for spec in specs)
            plan(self, specs)

        def spy_run(self, spec):
            ran.append(_cell_digests(spec))
            return run(self, spec)

        monkeypatch.setattr(SweepExecutor, "plan", spy_plan)
        monkeypatch.setattr(SweepExecutor, "run", spy_run)
        assert main(["all", "--no-check", "--no-cache"]) == 0
        capsys.readouterr()
        assert len(ran) == len(runner._SIMULATION_EXPERIMENTS)
        assert planned == ran

    def test_all_opens_one_pool_and_reports_as_unplanned(
        self, micro_scale, pools, monkeypatch, capsys, tmp_path
    ):
        argv = ["all", "--no-check", "--workers", "2"]
        cache = ["--cache-dir", str(tmp_path / "planned")]
        assert main(argv + cache) == 0
        cold = capsys.readouterr().out
        assert pools == [2]
        assert main(argv + cache) == 0  # warm: nothing left to simulate
        warm = capsys.readouterr().out
        assert pools == [2]
        assert " 0 simulated" not in cold.rsplit("[executor]", 1)[1]
        assert " 0 simulated" in warm.rsplit("[executor]", 1)[1]
        assert _report(warm) == _report(cold)

        # Without the plan each experiment opens its own pool; the
        # report and the summary counts stay the same.
        monkeypatch.setattr(SweepExecutor, "plan", lambda self, specs: None)
        assert main(
            argv + ["--cache-dir", str(tmp_path / "unplanned")]
        ) == 0
        unplanned = capsys.readouterr().out
        assert len(pools) > 2
        assert _report(unplanned) == _report(cold)
        counts = [
            out.rsplit("[executor]", 1)[1].split("(")[0]
            for out in (cold, unplanned)
        ]
        assert counts[0] == counts[1]
