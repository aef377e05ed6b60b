"""Tests for the experiment harness: configs, runner, tables, figures."""

import hashlib

import pytest

from repro.study import (
    CONFIGS,
    SUITE,
    ExperimentRunner,
    config,
    figure3,
    figure4_du_au,
    figure4_svm,
    format_figure3,
    format_table,
    format_table1,
    spec,
    table1,
)
from repro.study.report import format_series


def test_all_paper_configs_exist():
    assert {"baseline", "kernel_send", "interrupt_all", "no_combining",
            "fifo_1k", "fifo_32k", "du_queue_2", "no_au"} <= set(CONFIGS)


def test_config_materializes_nic_and_params():
    kernel = config("kernel_send")
    assert kernel.nic_config().user_level_dma is False
    fifo = config("fifo_1k")
    assert fifo.nic_config().fifo_capacity == 1024
    base = config("baseline")
    assert base.nic_config().user_level_dma is True
    assert base.params().page_size == 4096


def test_unknown_config_rejected():
    with pytest.raises(ValueError):
        config("overclocked")


def test_suite_covers_table1():
    assert set(SUITE) == {
        "Barnes-SVM", "Ocean-SVM", "Radix-SVM", "Radix-VMMC",
        "Barnes-NX", "Ocean-NX", "DFS-sockets", "Render-sockets",
    }
    for app_spec in SUITE.values():
        app = app_spec.factory("du")
        assert app.name == app_spec.name


def test_spec_lookup():
    assert spec("Radix-SVM").api == "SVM"
    with pytest.raises(ValueError):
        spec("Linpack")


def test_runner_caches_identical_runs():
    runner = ExperimentRunner()
    first = runner.run("Radix-VMMC", 2)
    second = runner.run("Radix-VMMC", 2)
    assert first is second
    third = runner.run("Radix-VMMC", 2, "kernel_send")
    assert third is not first


def test_runner_mode_and_protocol_selection():
    runner = ExperimentRunner()
    au = runner.run("Radix-VMMC", 2, mode="au")
    du = runner.run("Radix-VMMC", 2, mode="du")
    assert au is not du
    hlrc = runner.run("Radix-SVM", 2, protocol="hlrc")
    aurc = runner.run("Radix-SVM", 2, protocol="aurc")
    assert hlrc.elapsed_us != aurc.elapsed_us or hlrc is not aurc


def test_runner_protocol_rejected_for_non_svm():
    runner = ExperimentRunner()
    with pytest.raises(ValueError):
        runner.run("Radix-VMMC", 2, protocol="aurc")


def test_slowdown_percent_sign():
    runner = ExperimentRunner()
    slow = runner.slowdown_percent("Radix-VMMC", 2, "kernel_send", mode="du")
    assert slow > 0  # syscalls can only slow a run down


def test_speedup_definition():
    runner = ExperimentRunner()
    speedup = runner.speedup("Barnes-NX", 2, mode="du")
    assert speedup > 1.0


def test_table1_runs_at_small_scale():
    runner = ExperimentRunner()
    rows = table1(runner)
    assert {r["app"] for r in rows} == set(SUITE)
    assert all(r["seq_time_ms"] > 0 for r in rows)
    text = format_table1(rows)
    assert "Table 1" in text
    assert "Radix-VMMC" in text


def test_figure_generators_shape():
    runner = ExperimentRunner()
    curves = figure3(runner, node_counts=(1, 2))
    assert set(curves) == {
        "Ocean-NX", "Radix-VMMC", "Barnes-NX", "Radix-SVM", "Ocean-SVM",
        "Barnes-SVM",
    }
    for points in curves.values():
        assert [n for n, _s in points] == [1, 2]
    text = format_figure3(curves)
    assert "Figure 3" in text


def test_figure4_rows_structure():
    runner = ExperimentRunner()
    rows = figure4_svm(runner, nprocs=2)
    assert len(rows) == 9  # 3 apps x 3 protocols
    protocols = [r["protocol"] for r in rows[:3]]
    assert protocols == ["hlrc", "hlrc-au", "aurc"]
    assert rows[0]["normalized"] == pytest.approx(1.0)
    du_au = figure4_du_au(runner, nprocs=2)
    assert {r["app"] for r in du_au} == {"Radix-VMMC", "Ocean-NX", "Barnes-NX"}


def test_report_formatting():
    table = format_table("T", ["a", "bb"], [[1, 2.5], ["xx", "y"]])
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "2.50" in table
    series = format_series("S", "x", {"s1": [(1, 2.0)], "s2": [(1, 3.0), (2, 4.0)]})
    assert "s1" in series and "4.00" in series


def test_format_series_preserves_duplicate_x():
    # Regression: duplicate x values used to be collapsed via dict(),
    # silently keeping only the last y.  Every occurrence must render.
    series = format_series(
        "S", "x", {"s1": [(1, 2.0), (1, 9.0), (2, 5.0)], "s2": [(1, 3.0)]}
    )
    assert "2.00" in series and "9.00" in series
    x1_rows = [
        line for line in series.splitlines() if line.split("|")[0].strip() == "1"
    ]
    assert len(x1_rows) == 2


def test_family_registry_complete_and_documented():
    """Every family is registered with a one-line description; the
    growth-direction families are excluded from `all` and the --help
    epilog says so."""
    from repro.study.__main__ import FAMILIES, _epilog, main

    # Paper-grounded families run under `all`; growth directions do not.
    for name in (
        "micro", "table1", "table2", "table3", "table4",
        "figure3", "figure4", "combining", "fifo", "queueing",
        "reliability",
    ):
        description, in_all, emitter = FAMILIES[name]
        assert in_all, name
        assert description.strip(), name
        assert callable(emitter), name
    for name in ("serve", "coll"):
        description, in_all, _emitter = FAMILIES[name]
        assert not in_all, name
        assert "not in `all`" in description, name
    epilog = _epilog()
    for name, (description, _in_all, _emitter) in FAMILIES.items():
        assert name in epilog
        assert description in epilog
    assert "excludes the growth-direction families" in epilog
    # --help must render the registry and exit cleanly.
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
    assert excinfo.value.code == 0
    help_text = out.getvalue()
    for name in FAMILIES:
        assert name in help_text


def test_coll_study_cell_and_formatting():
    from repro.study import coll_cell, format_coll_study

    nic = coll_cell("tree-nic", nodes=4, ops=2)
    host = coll_cell("tree-host", nodes=4, ops=2)
    nx = coll_cell("nx", nodes=4, ops=2)
    assert nic["barrier_us"] < nx["barrier_us"]
    assert nic["coll_packets"] > 0
    assert nx["coll_packets"] == 0
    text = format_coll_study([nx, host, nic])
    assert "NIC-side barrier speedup" in text
    assert "tree-nic" in text and "tree-host" in text


#: sha256 of ``python -m repro.study coll``'s stdout.  ``coll`` is not
#: part of ``study all``, so this is the identity gate of ``coll_cell``.
STUDY_COLL_SHA256 = (
    "f597115cb2e347137adb16f8083a297b400ccec9f765bda5f582d4975c02f4af"
)


def test_cli_coll_output_matches_golden_hash(capsys):
    from repro.study.__main__ import main

    assert main(["coll"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STUDY_COLL_SHA256


def test_cli_list_prints_machine_readable_registry(capsys):
    """--list emits one name<TAB>description line per family, runs
    nothing, and exits 0 — the format the fleet catalog ingests."""
    from repro.study.__main__ import FAMILIES, main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == len(FAMILIES)
    for line, (name, (description, _in_all, _e)) in zip(
        lines, FAMILIES.items()
    ):
        family, _, text = line.partition("\t")
        assert family == name
        assert text == description


def test_cli_exits_nonzero_when_a_family_raises(capsys, monkeypatch):
    """A raising family is reported on stderr with a traceback and turns
    the exit status non-zero; the other families still run."""
    from repro.study import __main__ as cli

    def boom(runner, nodes):
        raise RuntimeError("synthetic family failure")

    families = {
        "micro": ("broken on purpose", True, boom),
        "okay": ("still healthy", True, lambda runner, nodes: "okay ran"),
    }
    monkeypatch.setattr(cli, "FAMILIES", families)
    assert cli.main(["all"]) == 1
    captured = capsys.readouterr()
    assert "family micro raised" in captured.err
    assert "synthetic family failure" in captured.err
    assert "FAILED family: micro" in captured.err
    # The healthy families still emitted their reports.
    assert "okay ran" in captured.out


def test_cli_single_family_success_exits_zero(capsys):
    from repro.study.__main__ import main

    assert main(["micro", "--nodes", "4"]) == 0
    assert "DU one-word latency" in capsys.readouterr().out
