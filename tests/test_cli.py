"""Command-line surface: config roundtrip, exit codes, report determinism."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pearceygap import cli
from pearceygap.cache import CacheLock
from pearceygap.cli import StudyConfig, main, parse_config, run, serialize_config
from pearceygap.exceptions import DomainError
from pearceygap.fredholm import GapQuery, log_gap_probability

from test_acceptance import _CLI_CASES


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
    text = "# comment\n\nstudy.kind = pde\npde.nodes = 16\n"
    config = parse_config(text)
    assert config.kind == "pde"
    assert config.pde_nodes == 16


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


def test_docs_config_defaults_match_study_config():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "output_formats.md").read_text()
    rows = re.findall(r"^\| `(\w+\.\w+)` \| \w+ \| (.*?) \|", doc, flags=re.MULTILINE)
    defaults = {f.metadata["key"]: getattr(StudyConfig(), f.name) for f in fields(StudyConfig)}
    # rows whose default cell is prose (a description, or empty) are skipped
    literals = [(key, m[1]) for key, cell in rows if (m := re.fullmatch(r"`([^`]*)`", cell))]
    assert len(literals) >= 30
    for key, literal in literals:
        config = parse_config(f"{key} = {literal}")
        field_name = next(f.name for f in fields(config) if f.metadata["key"] == key)
        assert getattr(config, field_name) == defaults[key], key


def _python(code: str, cwd=None):
    """Run code in a fresh interpreter that imports the package from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_import_leaves_the_painleve_oracle_unloaded():
    code = "import sys, pearceygap.cli; print('pearceygap.painleve' in sys.modules)"
    assert _python(code).strip() == "False"


def test_only_the_painleve_oracle_loads_scipy(tmp_path):
    # the five other default studies run on numpy and mpmath alone; the
    # oracle integrates Painleve II with scipy
    code = """if True:
        import sys
        from pearceygap.cli import main

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        for study in ("gap", "identities", "prop21", "theorem", "pde"):
            assert main([study, "--no-cache"]) == 0, study
            assert not scipy_modules(), (study, scipy_modules()[:5])
        assert main(["oracle-painleve", "--no-cache"]) == 0
        assert "scipy.integrate" in scipy_modules()
    """
    _python(code, cwd=tmp_path)


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


def test_gap_with_windows_above_18(tmp_path, monkeypatch, capsys):
    # the lambda-rule's cut raised TypeError for lowest points above 18
    monkeypatch.chdir(tmp_path)
    assert main(["gap", "--times=-0.5,0.5", "--windows=20:25,20:25", "--no-cache"]) == 0
    capsys.readouterr()
    with open(tmp_path / "gap.json") as fh:
        assert json.load(fh)["summary"]["log_probability"] <= 0.0


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
        # non-finite numbers
        ["gap", "--family", "pearcey", "--times", "nan", "--windows", "-1:1", "--no-cache"],
        ["gap", "--family", "pearcey", "--times", "inf", "--windows", "-1:1", "--no-cache"],
        ["pde", "--tau", "nan", "--no-cache"],
        ["pde", "--mu", "nan", "--no-cache"],
        ["theorem", "--tau1", "30,nan", "--no-cache"],
        ["identities", "--tolerance", "nan", "--no-cache"],
        ["theorem", "--single-time", "--windows", "", "--no-cache"],  # no window to take
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


def test_non_finite_numbers_rejected_from_config_and_library(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DomainError, match=r"^config line 2: pde.tau must be finite"):
        parse_config("study.kind = pde\npde.tau = inf\n")
    with pytest.raises(DomainError, match=r"^gap.windows must be finite"):
        run(StudyConfig(windows=((-1.0, math.nan),), cache_dir=str(tmp_path / "cache")))
    assert os.listdir(tmp_path) == []  # rejected before the cache or any report


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["pde", "--nodes-per-ray", "2"], 3),  # rejected before any block
        (["oracle-painleve", "--s-min", "-2", "--s-max", "2", "--step", "1"], 0),
        (["identities", "--x-grid", "0.5", "--y-grid", "0.5", "--s-grid", "0.3"], 0),
    ],
)
def test_runs_that_read_no_block_leave_no_cache(argv, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PEARCEYGAP_CACHE", raising=False)
    assert main(argv) == expected
    assert not (tmp_path / ".pearceygap-cache").exists()


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


# each study's keyword names, in the order of its config section's fields
_STUDY_PARAMS = {
    "gap": ("family", "times", "windows", "nodes", "certify"),
    "identities": ("x_grid", "y_grid", "s_grid", "tolerance"),
    "prop21": ("t", "s", "z_grid"),
    "theorem": ("tau1_grid", "t1", "t2", "airy_windows", "m", "single_time", "ablate",
                "certify"),
    "pde": ("tau", "sigma", "xi", "eta", "mu", "nu", "m", "nodes_per_ray"),
    "oracle-painleve": ("s_min", "s_max", "step"),
}


@pytest.mark.parametrize("name, argv", _CLI_CASES, ids=[c[0] for c in _CLI_CASES])
def test_json_inputs_are_the_config_section_as_dispatched(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(argv + ["--no-cache", "--csv", "out.csv", "--json", "out.json"])
    assert code in (0, 1, 2)
    doc = json.loads((tmp_path / "out.json").read_text())
    kinds = {f.metadata["key"]: f.type for f in fields(StudyConfig)}
    section = {"oracle-painleve": "oracle"}.get(name, name)
    texts = [(key, text) for key, text in doc["config"].items()
             if key.startswith(section + ".")]
    assert len(texts) == len(_STUDY_PARAMS[name])
    expected = {param: cli._CODECS[kinds[key]][0](text)
                for param, (key, text) in zip(_STUDY_PARAMS[name], texts)}
    # the JSON text tells 1 from 1.0 and true, and keeps the key order
    assert json.dumps(doc["inputs"]) == json.dumps(expected)


def test_json_writes_numpy_numbers_as_plain_numbers(tmp_path, monkeypatch):
    # a library caller may configure numpy scalars, which json cannot encode by itself
    monkeypatch.chdir(tmp_path)
    config = StudyConfig(kind="gap", nodes=np.int64(20), cache_enabled=False,
                         out_csv="gap.csv", out_json="gap.json")
    _, code = run(config)
    assert code == 0
    doc = json.loads((tmp_path / "gap.json").read_text())
    values = (doc["summary"]["nodes"], doc["inputs"]["nodes"], doc["rows"][0][2])
    assert all(type(v) is int and v == 20 for v in values)


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
