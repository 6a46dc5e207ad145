"""CLI tests."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("table1", "figure2", "figure3", "figure4", "all",
                    "cluster", "latency", "receive", "transmit"):
        args = parser.parse_args(
            [command] if command in ("table1", "figure2", "figure3",
                                     "figure4", "all", "cluster")
            else [command, "--machine", "ds"])
        assert args.command == command


def test_latency_command_prints_result(capsys):
    assert main(["latency", "--machine", "ds", "--size", "1",
                 "--protocol", "atm"]) == 0
    out = capsys.readouterr().out
    assert "DECstation 5000/200" in out
    assert "us round trip" in out


def test_receive_command_with_double_cell(capsys):
    assert main(["receive", "--machine", "alpha", "--size", "4096",
                 "--dma", "double"]) == 0
    out = capsys.readouterr().out
    assert "Mbps" in out


def test_transmit_command(capsys):
    assert main(["transmit", "--machine", "ds", "--size", "8192"]) == 0
    assert "transmit" in capsys.readouterr().out


def test_table1_quick(capsys):
    assert main(["table1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Round-Trip Latencies" in out
    assert "(paper)" in out


def test_figure_custom_sizes(capsys):
    assert main(["figure4", "--sizes", "4,16"]) == 0
    out = capsys.readouterr().out
    assert "transmit-side throughput" in out
    assert "3000/600" in out


def test_unknown_machine_rejected():
    with pytest.raises(SystemExit):
        main(["latency", "--machine", "vax"])


CLUSTER_ARGS = ["cluster", "--hosts", "4", "--pattern", "pairs",
                "--messages", "2", "--size", "2048", "--rate", "40",
                "--seed", "1", "--json"]


def test_cluster_command_emits_valid_report(capsys):
    assert main(CLUSTER_ARGS) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_hosts"] == 4
    assert report["conservation"]["holds"] is True
    assert report["workload"]["messages_received"] == \
        report["workload"]["messages_sent"]
    assert len(report["hosts"]) == 4
    assert report["switches"][0]["ports"]


def test_cluster_json_is_deterministic(capsys):
    assert main(CLUSTER_ARGS) == 0
    first = capsys.readouterr().out
    assert main(CLUSTER_ARGS) == 0
    assert capsys.readouterr().out == first


CREDIT_ARGS = ["cluster", "--hosts", "4", "--pattern", "incast",
               "--messages", "3", "--size", "4096",
               "--backpressure", "credit", "--seed", "1", "--json"]


def test_cluster_credit_json_deterministic_and_lossless(capsys):
    """The acceptance run: credit-mode incast is deterministic for a
    fixed seed, reports zero queue-full drops, and the conservation
    identity holds with the stall/credit counters included."""
    assert main(CREDIT_ARGS) == 0
    first = capsys.readouterr().out
    assert main(CREDIT_ARGS) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["conservation"]["holds"] is True
    assert report["drops"]["queue_full"] == 0
    bp = report["backpressure"]
    assert bp["mode"] == "credit"
    assert all(h["credits_outstanding"] == 0 for h in bp["hosts"])


def test_cluster_sweep_renders_curve(capsys):
    assert main(["cluster", "--hosts", "4", "--pattern", "incast",
                 "--messages", "2", "--sweep", "10,40", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [p["offered_mbps_per_client"] for p in doc["points"]] == \
        [10.0, 40.0]
    assert all("goodput_mbps" in p for p in doc["points"])


def test_cluster_rpc_render(capsys):
    assert main(["cluster", "--hosts", "3", "--workload", "rpc",
                 "--messages", "2"]) == 0
    out = capsys.readouterr().out
    assert "conservation holds" in out
    assert "latency us" in out


def test_table1_json_output(capsys):
    assert main(["table1", "--quick", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["table"] == "table1"
    assert set(doc["measured"]) == set(doc["paper"])


def test_figure_json_output(capsys):
    assert main(["figure4", "--sizes", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unit"] == "Mbps"
    assert doc["sizes_kb"] == [4]
    assert doc["paper_peaks"]


@pytest.mark.parametrize("argv, flag", [
    (["--shards", "0"], "--shards"),
    (["--shards", "-2"], "--shards"),
    (["--window", "0", "--backpressure", "credit"], "--window"),
    (["--hosts", "4", "--messages", "2", "--size", "0"], "--size"),
    (["--rate", "-5"], "--rate"),
    (["--sweep", "1,abc"], "--sweep rate 'abc'"),
    (["--sweep=-5"], "--sweep rate '-5'"),
    (["--sweep", "10", "--shards", "2"], "--shards"),
    (["--sweep", "10", "--trace-out", "no-such-dir/hb.json"], "--trace-out"),
    (["--rate", "nan"], "--rate"),
    (["--rate", "inf"], "--rate"),
    (["--messages", "0"], "--messages"),
    (["--messages", "-1"], "--messages"),
    (["--regen-timeout", "-5"], "--regen-timeout"),
    (["--watchdog", "-1"], "--watchdog"),
    (["--hb-interval", "nan"], "--hb-interval"),
    (["--recovery", "detect", "--hb-interval", "0"], "--hb-interval"),
    (["--recovery", "detect", "--detect-timeout", "-3"], "--detect-timeout"),
    (["--detect-timeout", "inf"], "--detect-timeout"),
    (["--hosts", "0"], "--hosts"),
    (["--hosts", "1"], "--hosts"),
    (["--topology", "switched", "--switches", "0"], "--switches"),
    (["--topology", "clos", "--pods", "0"], "--pods"),
    (["--topology", "clos", "--oversub", "nan"], "--oversub"),
    (["--topology", "clos", "--oversub", "0"], "--oversub"),
    (["--switches", "100", "--hosts", "4"], "--switches"),
    (["--topology", "clos", "--pods", "100", "--hosts", "8"], "--pods"),
    (["--topology", "clos", "--hosts", "3"], "--pods"),
    (["--topology", "direct", "--hosts", "4"], "--hosts"),
    (["--topology", "direct", "--hosts", "2", "--shards", "2"], "--shards"),
    (["--topology", "direct", "--hosts", "2", "--trace-out",
      "no-such-dir/t.json"], "--trace-out"),
    (["--topology", "torus", "--dims", "0,2,2"], "--dims"),
], ids=("shards-zero", "shards-negative", "credit-window-zero",
        "size-zero", "rate-negative", "sweep-not-a-number",
        "sweep-negative", "sweep-sharded", "sweep-traced",
        "rate-nan", "rate-inf", "messages-zero", "messages-negative",
        "regen-timeout-negative", "watchdog-negative", "hb-interval-nan",
        "hb-interval-zero", "detect-timeout-negative",
        "detect-timeout-inf", "hosts-zero", "hosts-one",
        "switches-zero", "pods-zero", "oversub-nan", "oversub-zero",
        "switches-above-hosts", "pods-above-hosts",
        "default-pods-above-hosts", "direct-hosts-four",
        "direct-sharded", "direct-traced", "dims-zero"))
def test_cluster_rejects_bad_input_naming_the_flag(argv, flag):
    """Inputs the model would silently misread (no sharding, no
    pacing, a run that sends nothing), trip over mid-run or reject
    without naming the flag fail before anything is built, with a
    message naming the flag."""
    with pytest.raises(SystemExit) as exc:
        main(["cluster", *argv])
    assert str(exc.value).startswith(f"cluster: {flag} ")


@pytest.mark.parametrize("shards, token", [
    ("x", "x"), ("1,,2", ""), ("0", "0"), ("1,-2", "-2"),
], ids=("not-a-number", "empty-token", "zero", "negative"))
def test_chaos_rejects_bad_shard_counts_naming_the_flag(shards, token,
                                                         capsys):
    """A bad ``--shards`` token fails at parse time, before any
    scenario runs, with an argparse error naming the flag and the
    token."""
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--quick", "--shards", shards])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --shards: shard count {token!r} " in err


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for command in ("table1", "figure2", "figure3", "figure4", "all",
                    "cluster", "chaos", "lint", "check", "latency",
                    "receive", "transmit"):
        assert command in out


def test_lint_runs_the_linters_own_main(capsys):
    assert main(["lint", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"] == []
    assert doc["checked_files"] > 0


def test_check_runs_the_checkers_own_main(capsys):
    fixtures = Path(__file__).resolve().parent / "race_fixtures"
    assert main(["check", "--root", str(fixtures),
                 "--suppressions", "/dev/null"]) == 1
    assert "RACE2" in capsys.readouterr().out
