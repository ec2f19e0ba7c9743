"""The repo's own source tree must be clean under ``repro analyze``.

This is the self-check the CI gate relies on: every invariant the rule
packs encode holds at head, and every deliberate exception is a visible
in-place suppression, not a weakened rule.
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import run_analysis
from repro.cli import main

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def head_report():
    return run_analysis([SRC])


def test_src_tree_is_clean(head_report):
    assert head_report.ok, "\n" + head_report.render()


def test_the_deliberate_exceptions_stay_visible(head_report):
    # Suppressions are part of the contract: they mark audited
    # blocking-under-lock and whole-environment-copy sites.  New ones
    # need the same scrutiny — bump deliberately.
    assert head_report.suppressed == 7


def test_every_rule_pack_ran(head_report):
    assert set(head_report.rules) >= {
        "env-discipline",
        "lock-discipline",
        "lock-order",
        "protocol-conformance",
        "thread-hygiene",
    }


def test_cli_analyze_exits_zero_on_clean_tree(capsys):
    assert main(["analyze", str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_analyze_exits_one_on_findings(tmp_path, capsys):
    (tmp_path / "m.py").write_text(
        "import threading\nt = threading.Thread(target=print)\n"
    )
    assert main(["analyze", str(tmp_path)]) == 1
    assert "thread-hygiene" in capsys.readouterr().out


def test_cli_analyze_json_format(tmp_path, capsys):
    import json

    (tmp_path / "m.py").write_text("x = 1\n")
    assert main(["analyze", str(tmp_path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["files"] == 1


def test_cli_list_rules(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "env-discipline" in out and "lock-order" in out


def test_cli_rejects_unknown_rule_id():
    assert main(["analyze", "--rules", "nope", "src"]) == 2
