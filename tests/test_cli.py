"""Command-line surface: config roundtrip, exit codes, report determinism."""

import json
import math
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

from pearceygap import cli
from pearceygap.cache import CacheLock
from pearceygap.cli import StudyConfig, main, parse_config, run, serialize_config
from pearceygap.exceptions import DomainError
from pearceygap.fredholm import GapQuery, log_gap_probability


# ---------------------------------------------------------------------------
# configuration


def test_config_roundtrip_defaults():
    config = StudyConfig()
    assert parse_config(serialize_config(config)) == config


def test_config_roundtrip_customized():
    config = StudyConfig(
        kind="theorem",
        family="pearcey",
        times=(-0.3, 0.0, 0.7),
        windows=((-2.0, 2.0), None, (-1.5, 3.25)),
        nodes=24,
        certify=False,
        thm_tau1_grid=(30.0, 90.0, 270.0),
        thm_single_time=True,
        pde_mu=-0.75,
        out_csv="report.csv",
        cache_dir="/tmp/somewhere",
        cache_enabled=False,
    )
    text = serialize_config(config)
    assert parse_config(text) == config
    # a second serialize of the parsed result is byte-identical
    assert serialize_config(parse_config(text)) == text


def test_config_ignores_comments_and_blank_lines():
    text = "# comment\n\nstudy.kind = pde\npde.step = 0.025\n"
    config = parse_config(text)
    assert config.kind == "pde"
    assert config.pde_step == 0.025


@pytest.mark.parametrize(
    "line",
    [
        "study.kind = frobnicate",
        "no.such.key = 1",
        "gap.nodes 40",
        "gap.certify = perhaps",
        "gap.windows = 1..2",
        "gap.family = custom",
        "gap.family = pearcey-conjugated",
    ],
)
def test_config_rejects_malformed_input(line):
    with pytest.raises(DomainError):
        parse_config(line)


def test_windows_accept_none_placeholder():
    config = parse_config("gap.windows = none,-1.0:6.0\n")
    assert config.windows == (None, (-1.0, 6.0))


def test_docs_config_table_matches_study_config():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "output_formats.md").read_text()
    documented = re.findall(r"^\| `(\w+\.\w+)` \| (\w+) \|", doc, flags=re.MULTILINE)
    declared = [(f.metadata["key"], f.type.lower()) for f in fields(StudyConfig)]
    assert documented == declared


# ---------------------------------------------------------------------------
# run() and exit codes


def test_gap_prints_probability_and_matches_library(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "gap",
            "--family", "airy",
            "--times", "0",
            "--windows", "-1:4",
            "--nodes", "24",
            "--no-certify",
            "--no-cache",
        ]
    )
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    expected = math.exp(
        log_gap_probability(
            GapQuery(
                family="airy",
                times=(0.0,),
                windows=((-1.0, 4.0),),
                m=24,
                certify=False,
            )
        )
    )
    assert printed == expected


def test_failing_study_exits_1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "identities",
            "--x-grid", "0.5",
            "--y-grid", "-0.25",
            "--s-grid", "0.3",
            "--tolerance", "1e-30",
            "--no-cache",
        ]
    )
    assert code == 1


def test_inconclusive_study_exits_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = cli.StudyReport(
        name="gap", columns=("a",), rows=[(1.0,)], summary={}, passed=None
    )
    monkeypatch.setattr(cli, "_dispatch", lambda config: report)
    _, code = run(StudyConfig(cache_enabled=False))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--windows", "nonsense", "--no-cache"],
        ["gap", "--config", "/no/such/file.cfg"],
        ["prop21", "--t", "2.0", "--no-cache"],  # out-of-domain parameter
        ["pde", "--sigma", "-0.5", "--no-cache"],
        ["gap", "--bogus"],  # usage errors are configuration errors, not exit 2
        ["gap", "--nodes", "abc"],
        ["identities", "--x-grid=", "--no-cache"],  # empty grid
        ["theorem", "--tau1=", "--no-cache"],  # no points to fit
        ["theorem", "--windows", "none,-1:6", "--tau1", "30,60", "--no-cache"],
        ["pde", "--nodes-per-ray", "2"],
    ],
)
def test_configuration_errors_exit_3(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("pearceygap:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "change, key",
    [
        ({"family": "custom"}, "gap.family"),
        ({"family": "pearcey-conjugated"}, "gap.family"),
        ({"kind": "frobnicate"}, "study.kind"),
    ],
)
def test_run_rejects_values_outside_field_choices(change, key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = StudyConfig(cache_dir=str(tmp_path / "cache"), **change)
    with pytest.raises(DomainError, match=rf"^{re.escape(key)} must be one of"):
        run(config)
    assert os.listdir(tmp_path) == []  # rejected before the cache or any report


def test_locked_cache_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    root = str(tmp_path / "cache")
    with CacheLock(root):
        code = main(
            ["gap", "--times", "0", "--windows", "-1:4", "--nodes", "16",
             "--no-certify", "--cache-dir", root]
        )
    assert code == 3
    assert "locked" in capsys.readouterr().err


def test_config_file_plus_flag_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "study.cfg"
    cfg.write_text("gap.nodes = 16\ngap.windows = -1.0:4.0\ngap.certify = false\n")
    code = main(
        ["gap", "--config", str(cfg), "--nodes", "20", "--no-cache",
         "--json", "out.json"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["config"]["gap.nodes"] == "20"  # flag wins
    assert doc["config"]["gap.windows"] == "-1.0:4.0"  # file wins over default


# ---------------------------------------------------------------------------
# report files


def _run_twice(tmp_path, argv):
    outputs = []
    for _ in range(2):
        code = main(
            argv
            + ["--cache-dir", str(tmp_path / "cache"),
               "--csv", str(tmp_path / "out.csv"),
               "--json", str(tmp_path / "out.json")]
        )
        assert code == 0
        outputs.append(
            (
                (tmp_path / "out.csv").read_bytes(),
                json.loads((tmp_path / "out.json").read_text()),
            )
        )
    return outputs


def test_repeat_runs_are_byte_identical_modulo_metadata(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["gap", "--times", "0", "--windows", "-1:4", "--nodes", "24"]
    (csv1, doc1), (csv2, doc2) = _run_twice(tmp_path, argv)
    assert csv1 == csv2
    assert doc2["metadata"]["cache_hits"] > 0  # second run replayed the cache
    doc1.pop("metadata")
    doc2.pop("metadata")
    assert doc1 == doc2


def test_csv_has_header_and_full_precision(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["oracle-painleve", "--s-min", "-2", "--s-max", "2", "--step", "1",
         "--no-cache", "--csv", "oracle.csv", "--json", "oracle.json"]
    )
    assert code == 0
    lines = (tmp_path / "oracle.csv").read_text().strip().splitlines()
    assert lines[0] == "s,q,q_prime,f2"
    assert len(lines) == 1 + 5
    cells = lines[1].split(",")
    # repr round-trip: parsing the cell reproduces the float exactly
    for cell in cells:
        assert repr(float(cell)) == cell or float(cell) == int(float(cell))


def test_oracle_grid_stops_at_s_max(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["oracle-painleve", "--s-min", "-2", "--s-max", "2", "--step", "0.7",
         "--no-cache", "--csv", "oracle.csv", "--json", "oracle.json"]
    )
    assert code == 0
    rows = (tmp_path / "oracle.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 6
    assert float(rows[-1].split(",")[0]) <= 2.0


def test_json_separates_metadata_from_data(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["identities", "--x-grid", "0.0,0.5", "--y-grid", "0.25",
         "--s-grid", "0.3", "--no-cache", "--json", "ids.json"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "ids.json").read_text())
    assert doc["schema"] == "pearceygap-report-1"
    assert doc["verdict"] == "pass"
    assert set(doc) >= {"config", "inputs", "summary", "columns", "rows", "metadata"}
    assert "generated_at" in doc["metadata"]
    assert "elapsed_seconds" in doc["metadata"]
    assert len(doc["rows"]) == 2
    assert all(len(row) == len(doc["columns"]) for row in doc["rows"])


def test_default_output_paths_follow_study_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["gap", "--times", "0", "--windows", "-1:4", "--nodes", "16",
         "--no-certify", "--no-cache"]
    )
    assert code == 0
    assert (tmp_path / "gap.csv").exists()
    assert (tmp_path / "gap.json").exists()
    assert not (tmp_path / ".pearceygap-cache").exists()
