"""ClusterConfig: the one statement of a cluster run that ``repro
cluster`` and the chaos matrix share."""

import shlex
from dataclasses import replace

import pytest

from repro.cli import build_parser
from repro.cluster import ClusterConfig, ConfigError
from repro.faults.chaos import build_scenarios, run_scenario


def _parse(argv: list) -> ClusterConfig:
    args = build_parser().parse_args(["cluster", *argv])
    return ClusterConfig.from_args(args)


def test_default_config_round_trips_through_the_parser():
    assert ClusterConfig().to_argv() == []
    assert _parse([]) == ClusterConfig()


@pytest.mark.parametrize("quick", [True, False], ids=("quick", "full"))
@pytest.mark.parametrize("seed", [1, 9176])
def test_chaos_configs_round_trip_through_the_parser(seed, quick):
    for scenario in build_scenarios(seed=seed, quick=quick):
        config = scenario["config"]
        assert _parse(config.to_argv()) == config, scenario["name"]
        # The matrix's seed seeds routing too, as `repro cluster --seed`.
        assert config.fabric_kwargs()["routing_seed"] == seed


def test_failing_scenario_ends_with_its_reproducer():
    # loss-corrupt runs no recovery, so expecting one must fail.
    scenario = dict(build_scenarios(seed=1)[0], expect_recovery=True)
    result = run_scenario(scenario, shard_counts=(2,))
    assert not result["ok"]
    prefix = "reproduce: python -m repro cluster "
    line = result["failures"][-1]
    assert line.startswith(prefix)
    assert _parse(shlex.split(line[len(prefix):])) == replace(
        scenario["config"], shards=2)


@pytest.mark.parametrize("kw, flag", [
    ({"machine": "vax"}, "--machine"),
    ({"faults": "flap=9:0@1"}, "--faults"),
    ({"faults": "bogus"}, "--faults"),
    ({"topology": "ring"}, "--topology"),
    ({"dims": "2,x"}, "--dims"),
], ids=("machine", "faults-host", "faults-token", "topology", "dims"))
def test_config_errors_start_with_their_flag(kw, flag):
    with pytest.raises(ConfigError) as exc:
        ClusterConfig(**kw)
    assert str(exc.value).startswith(f"{flag} ")
