"""Ownership-checker tests: every RACE rule fires on its fixture at
the expected line, the shipped tree checks clean, the suppression
machinery behaves, a seeded SRSW violation against the real model is
caught, and the happens-before verifier accepts real sharded traces
while rejecting corrupted ones."""

import ast
import copy
import json
from pathlib import Path

import pytest

from repro.analysis import sanitize
from repro.analysis.causality import (
    build_trace_doc, verify_trace, verify_trace_file,
)
from repro.analysis.lint import parse_allowlist
from repro.analysis.ownership import (
    RULES, AnnotationError, OwnershipChecker, actor_root,
    check_source, check_tree, default_root, parse_annotations,
    _collect_files,
)
from repro.cluster import WorkloadSpec
from repro.cluster.sharded import run_cluster_sharded
from repro.hw.specs import DS5000_200

FIXTURES = Path(__file__).parent / "race_fixtures"

# fixture file -> (expected rule, expected lines), checked in
# isolation so each fixture documents exactly one discipline breach.
_CASES = {
    "race201.py": ("RACE201", (45,)),
    "race202.py": ("RACE202", (21,)),
    "race203.py": ("RACE203", (21,)),
    "race204.py": ("RACE204", (24,)),
}


# ---------------------------------------------------------------------------
# Static rules on the fixture corpus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture", sorted(_CASES))
def test_fixture_flags_rule_at_line(fixture):
    rule, lines = _CASES[fixture]
    findings = check_source((FIXTURES / fixture).read_text(), fixture)
    assert [f.rule for f in findings] == [rule] * len(lines)
    assert tuple(f.line for f in findings) == lines
    for finding in findings:
        assert finding.path == fixture
        assert finding.render().startswith(f"{fixture}:{finding.line}:")


def test_clean_fixture_has_no_findings():
    source = (FIXTURES / "clean.py").read_text()
    assert check_source(source, "clean.py") == []


def test_corpus_every_rule_fires_once():
    result = check_tree(root=FIXTURES, suppressions=[])
    assert sorted(f.rule for f in result.findings) \
        == ["RACE201", "RACE202", "RACE203", "RACE204"]
    assert result.checked_files == 5


def test_race201_names_both_actors():
    findings = check_source((FIXTURES / "race201.py").read_text(),
                            "race201.py")
    (finding,) = findings
    assert "rx-processor" in finding.message
    assert "tx-processor" in finding.message
    assert "DescriptorQueue.tail" in finding.message


def test_tree_checks_clean():
    # The shipped model tree carries no races and no stale
    # suppressions -- the CI gate's exact invocation.
    result = check_tree()
    assert result.findings == []
    assert result.unused_suppressions == []
    assert result.suppressed == 0


def test_seeded_srsw_violation_is_caught():
    # Acceptance scenario: introduce a second writer on the transmit
    # queue's tail pointer into the *real* model tree and the checker
    # must name both actors at the true pop sites.
    thief = (
        "class TailThief:\n"
        '    """Owner: host-thief"""\n'
        "\n"
        "    def __init__(self, channel: Channel):\n"
        "        self.channel = channel\n"
        "\n"
        "    def steal(self):\n"
        "        self.channel.tx_queue.pop(by_host=True)\n"
    )
    root = default_root()
    modules = [(rel, ast.parse(path.read_text(), filename=rel))
               for path, rel in _collect_files(root)]
    modules.append(("osiris/tail_thief.py", ast.parse(thief)))
    findings = OwnershipChecker(modules).run()
    race201 = [f for f in findings if f.rule == "RACE201"]
    assert race201, "seeded second writer went undetected"
    flagged = {(f.path, f.line) for f in race201}
    texts = " ".join(f.message for f in race201)
    assert "host-thief" in texts and "tx-processor" in texts
    assert any(p == "osiris/tx_processor.py" or
               p == "osiris/tail_thief.py" for p, _ in flagged)


def test_actor_hierarchy_dotted_labels():
    # 'boundary.train-fold' is the boundary dispatcher refined for
    # sanitizer attribution, not a second actor.
    assert actor_root("boundary.train-fold") == "boundary"
    assert actor_root("host") == "host"
    source = (FIXTURES / "race202.py").read_text()
    sub = source.replace(
        "        self.switch.input_cell(cell)  # RACE202",
        "        with maybe_actor('boundary.train-fold'):\n"
        "            self.switch.input_cell(cell)")
    assert check_source(sub, "race202.py") == []
    rogue = source.replace(
        "        self.switch.input_cell(cell)  # RACE202",
        "        with maybe_actor('rogue.train-fold'):\n"
        "            self.switch.input_cell(cell)")
    assert [f.rule for f in check_source(rogue, "race202.py")] \
        == ["RACE202"]


# ---------------------------------------------------------------------------
# Annotations and suppressions
# ---------------------------------------------------------------------------

def test_annotation_grammar():
    ann = parse_annotations(
        "Doc.\n\n"
        "Owner: driver\n"
        "Owner: _records -> boundary\n"
        "SRSW: tail via pop, pop_rr\n"
        "Boundary: apply_dead\n"
        "Fold: input_train\n"
        "Root: arm -> recovery\n"
        "Effect: refill\n",
        where="test")
    assert ann.class_actor == "driver"
    assert ann.owners == {"_records": "boundary"}
    assert ann.srsw == {"tail": ("pop", "pop_rr")}
    assert ann.boundary == ("apply_dead",)
    assert ann.fold == ("input_train",)
    assert ann.roots == {"arm": "recovery"}
    assert ann.effects == ("refill",)
    assert not ann.empty
    assert parse_annotations(None, where="test").empty


def test_annotation_errors_are_loud():
    with pytest.raises(AnnotationError):
        parse_annotations("X.\n\nSRSW: tail\n", where="test")
    with pytest.raises(AnnotationError):
        parse_annotations("X.\n\nRoot: arm\n", where="test")


def test_suppressions_filter_and_report_stale():
    entries = parse_allowlist(
        "RACE201 race201.py:45 -- fixture documents the breach\n"
        "RACE202 race202.py:21 -- fixture\n"
        "RACE203 race203.py:21 -- fixture\n"
        "RACE204 race204.py:24 -- fixture\n"
        "RACE201 nowhere.py:1 -- stale entry\n",
        rules=RULES)
    result = check_tree(root=FIXTURES, suppressions=entries)
    assert result.findings == []
    assert result.suppressed == 4
    assert [e.path for e in result.unused_suppressions] \
        == ["nowhere.py"]


def test_unknown_rule_in_suppression_file_rejected():
    with pytest.raises(ValueError):
        parse_allowlist("BOGUS x.py:1 -- why\n", rules=RULES)


# ---------------------------------------------------------------------------
# Happens-before replay
# ---------------------------------------------------------------------------

def _kwargs():
    return dict(machines=DS5000_200, n_hosts=4, n_switches=1,
                backpressure="credit", credit_window_cells=64,
                drain_policy="rr")


def _spec():
    return WorkloadSpec(pattern="all2all", kind="open", seed=1,
                        message_bytes=2048, messages_per_client=2,
                        requests_per_client=2)


def _trace(tmp_path, n_shards):
    path = tmp_path / f"hb{n_shards}.json"
    run_cluster_sharded(_kwargs(), _spec(), n_shards,
                        backend="inline", trace_path=path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("n_shards", (1, 2, 4))
def test_real_traces_verify_clean(tmp_path, n_shards):
    doc = _trace(tmp_path, n_shards)
    assert verify_trace(doc) == []
    if n_shards > 1:
        assert doc["events"], "sharded run recorded no boundary traffic"


def test_corrupted_trace_names_the_unordered_pair(tmp_path):
    doc = _trace(tmp_path, 2)

    # A send emitted inside the lookahead window.
    horizon = copy.deepcopy(doc)
    send = next(e for e in horizon["events"] if e["type"] == "send")
    send["emit"] = send["when"]
    violations = verify_trace(horizon)
    assert any("emission horizon" in v for v in violations)

    # Swap two sequence numbers on one channel: the verifier must
    # name both events of the unordered pair.
    swapped = copy.deepcopy(doc)
    by_chan = {}
    for e in swapped["events"]:
        if e["type"] == "send" and isinstance(e["key"][-1], int):
            by_chan.setdefault(tuple(e["key"][:-1]), []).append(e)
    chan = next(evs for evs in by_chan.values() if len(evs) >= 2)
    chan[0]["key"][-1], chan[1]["key"][-1] = \
        chan[1]["key"][-1], chan[0]["key"][-1]
    violations = verify_trace(swapped)
    assert any("unordered" in v and v.count("send(") == 2
               for v in violations)

    # A delivery whose send never happened.
    orphan = copy.deepcopy(doc)
    recv = next(e for e in orphan["events"] if e["type"] == "recv")
    recv["key"] = list(recv["key"][:-1]) + [10 ** 9]
    violations = verify_trace(orphan)
    assert any("without a boundary message" in v for v in violations)


def test_trace_file_roundtrip(tmp_path):
    doc = build_trace_doc([[{"type": "send", "shard": 0, "dest": 1,
                             "emit": 0.0, "when": 5.0,
                             "key": ["up", 0, 0, 0], "kind": "in"}],
                           [{"type": "recv", "shard": 1, "at": 4.0,
                             "when": 5.0, "key": ["up", 0, 0, 0],
                             "kind": "in"}]],
                          n_shards=2, lookahead_us=2.0)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert verify_trace_file(path) == []
    assert verify_trace_file(tmp_path / "missing.json") \
        != []


# ---------------------------------------------------------------------------
# Dynamic attribution (satellite: actor contexts in the fast paths)
# ---------------------------------------------------------------------------

@pytest.fixture
def sanitize_off():
    """Sanitizing off for the test (``pytest --sanitize`` turns it on
    for the whole run), restored afterwards."""
    was = sanitize.is_enabled()
    sanitize.disable()
    try:
        yield
    finally:
        if was:
            sanitize.enable()


def test_maybe_actor_is_free_when_disabled(sanitize_off):
    assert not sanitize.is_enabled()
    assert sanitize.maybe_actor("x") is sanitize.maybe_actor("y")
    with sanitize.maybe_actor("x"):
        assert sanitize.current_actor(by_host=False) == "board"


def test_maybe_actor_attributes_when_enabled(sanitize_off):
    with sanitize.enabled():
        with sanitize.maybe_actor("rx-processor"):
            assert sanitize.current_actor(by_host=False) \
                == "rx-processor"
    with sanitize.maybe_actor("rx-processor"):
        assert sanitize.current_actor(by_host=False) == "board"
