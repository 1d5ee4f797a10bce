"""Command-line surface: study configuration, dispatch, report files.

Subcommands: gap, identities, prop21, theorem, pde, oracle-painleve.
Every study writes a CSV (one row per grid point, fixed column order, full
round-trip float formatting) and a JSON report whose volatile fields
(timestamps, wall-clock) live in a separate metadata block, so repeated runs
with an identical configuration produce byte-identical data rows.

Exit codes: 0 pass, 1 fail, 2 inconclusive, 3 configuration/usage/environment error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import inspect
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .analysis import (
    PdeGrid,
    StudyReport,
    identity_grid_study,
    pde_residual,
    proposition_slope,
    theorem_ratio_study,
)
from .cache import KernelCache, default_root
from .exceptions import ConcurrencyError, DomainError, PearceyGapError
from .fredholm import GapQuery, installed_block_cache, log_gap_probability, set_block_cache

__all__ = ["StudyConfig", "StudyReport", "run", "main"]

_TAU1_DEFAULT = (30.0, 60.0, 120.0, 240.0, 480.0, 960.0)

# frozen one-time GUE edge value from the Painleve II oracle, used as the
# oracle-painleve self-check
_F2_AT_ZERO = 0.9693728283552667
# oracle-painleve's cross-check: each row's F2(s) against the certified
# one-time Airy determinant on (s, s + span) at m nodes, which must agree in
# log to the tolerance (the table's worst, at s = -5, is 5.5e-7)
_FREDHOLM_SPAN = 14.0
_FREDHOLM_NODES = 40
_FREDHOLM_LOG_TOL = 1e-6

# value kinds that are tuples; a field's annotation names its kind
Floats = tuple[float, ...]  # config text "0.0,0.5"
Windows = tuple[tuple[float, float] | None, ...]  # config text "-1.0:6.0,none"


def _default(study, name: str):
    """The default the library function study declares for its parameter name."""
    return inspect.signature(study).parameters[name].default


def _gap_study(family: str, times, windows, nodes: int, certify: bool) -> StudyReport:
    logp = log_gap_probability(GapQuery(family=family, times=tuple(times),
                                        windows=tuple(windows), m=nodes, certify=certify))
    prob = math.exp(logp)
    return StudyReport(
        name="gap",
        columns=("probability", "log_probability", "nodes"),
        rows=[(prob, logp, nodes)],
        summary={"probability": prob, "log_probability": logp, "nodes": nodes},
        passed=True,
    )


def _oracle_study(s_min: float, s_max: float, step: float) -> StudyReport:
    # imported here, so that no other study pays for loading the oracle
    from .painleve import hastings_mcleod, tracy_widom_f2

    if step <= 0.0 or s_max <= s_min:
        raise DomainError("oracle grid must be ascending with positive step")
    # last point at or below s_max; the slack keeps an exact multiple that
    # division rounds just below an integer
    count = math.floor((s_max - s_min) / step + 1e-9)
    rows = []
    for s in s_min + step * np.arange(count + 1):
        q, qp = hastings_mcleod(float(s))
        rows.append((float(s), q, qp, tracy_widom_f2(float(s))))
    check = abs(tracy_widom_f2(0.0) - _F2_AT_ZERO)
    f2s = [r[3] for r in rows]
    # computed afresh, so that the oracle's run reads and writes no cached block
    with installed_block_cache(None):
        errors = [abs(math.log(f2) - log_gap_probability(GapQuery(
            family="airy", times=(0.0,), windows=((s, s + _FREDHOLM_SPAN),),
            m=_FREDHOLM_NODES))) for s, _, _, f2 in rows]
    worst = int(np.argmax(errors))
    summary = {
        "points": len(rows),
        "f2_at_zero_error": check,
        "monotone": bool(all(b >= a for a, b in zip(f2s, f2s[1:]))),
        "max_log_error_vs_fredholm": errors[worst],
        "max_log_error_at_s": rows[worst][0],
    }
    return StudyReport(
        name="oracle-painleve",
        columns=("s", "q", "q_prime", "f2"),
        rows=rows,
        summary=summary,
        passed=(check < 1e-6 and summary["monotone"]
                and errors[worst] <= _FREDHOLM_LOG_TOL),
    )


# subcommand (= study.kind) -> (config-key section whose flags it takes, help,
# the study, called with one keyword per field of the section)
_STUDIES = {
    "gap": ("gap", "one gap probability", _gap_study),
    "identities": ("identities", "kernel differential-identity residuals", identity_grid_study),
    "prop21": ("prop21", "kernel convergence order in z", proposition_slope),
    "theorem": ("theorem", "statistics convergence order in tau1", theorem_ratio_study),
    "pde": ("pde", "two-time gap-probability PDE residual",
            lambda **grid: pde_residual(PdeGrid(**grid))),
    "oracle-painleve": ("oracle", "build/refresh the Painleve II reference table", _oracle_study),
}
# config-key sections whose flags every subcommand takes
_SHARED_SECTIONS = ("output", "cache")


def _key(default, key: str, flag: str | None, help: str, choices: tuple = (),
         param: str | None = None):
    """A StudyConfig field with its dotted config key, the subcommand flag that
    sets it (None: no flag), its help text, its allowed values (empty: any) and
    the parameter it feeds of its section's study (default: the key's last part).
    The key's first part is the field's section."""
    section, _, name = key.partition(".")
    return field(default=default, metadata={
        "key": key, "flag": flag, "help": help, "choices": choices,
        "section": section, "param": param or name})


@dataclass
class StudyConfig:
    """Flat, fully-defaulted study configuration (see docs/output_formats.md).

    Each field is declared once, with `_key`: it is one dotted config key, one
    flag of the subcommand whose section starts the key (`output.` and `cache.`
    flags go to every subcommand) and one parameter of that subcommand's study.
    The annotation, a string under `from __future__ import annotations`, names
    the value kind in `_CODECS`.  The serialized form roundtrips to an
    identical value.
    """

    kind: str = _key("gap", "study.kind", None, "which study to run", tuple(_STUDIES))
    family: str = _key("airy", "gap.family", "family", "kernel family", ("airy", "pearcey"))
    times: Floats = _key((0.0,), "gap.times", "times", "strictly ascending process times")
    windows: Windows = _key(((-1.0, 6.0),), "gap.windows", "windows",
                            "one lo:hi window per time (or none)")
    nodes: int = _key(GapQuery.m, "gap.nodes", "nodes", "quadrature nodes per window")
    certify: bool = _key(GapQuery.certify, "gap.certify", "certify",
                         "the m -> 2m refinement certificate")
    id_x_grid: Floats = _key(_default(identity_grid_study, "x_grid"), "identities.x_grid",
                             "x-grid", "first kernel argument grid")
    id_y_grid: Floats = _key(_default(identity_grid_study, "y_grid"), "identities.y_grid",
                             "y-grid", "second kernel argument grid")
    id_s_grid: Floats = _key(_default(identity_grid_study, "s_grid"), "identities.s_grid",
                             "s-grid", "time-separation grid")
    id_tolerance: float = _key(_default(identity_grid_study, "tolerance"), "identities.tolerance",
                               "tolerance", "max allowed absolute residual")
    prop_t: float = _key(0.0, "prop21.t", "t", "mean Airy time")
    prop_s: float = _key(0.5, "prop21.s", "s", "half time-difference")
    prop_z_grid: Floats = _key(_default(proposition_slope, "z_grid"), "prop21.z_grid", "z",
                               "scaling parameter grid")
    thm_tau1_grid: Floats = _key(_TAU1_DEFAULT, "theorem.tau1_grid", "tau1",
                                 "Pearcey time grid (ascending)")
    thm_t1: float = _key(_default(theorem_ratio_study, "t1"), "theorem.t1", "t1",
                         "first Airy time")
    thm_t2: float = _key(_default(theorem_ratio_study, "t2"), "theorem.t2", "t2",
                         "second Airy time")
    thm_windows: Windows = _key(_default(theorem_ratio_study, "airy_windows"), "theorem.windows",
                                "windows", "Airy-coordinate lo:hi windows",
                                param="airy_windows")
    thm_nodes: int = _key(_default(theorem_ratio_study, "m"), "theorem.nodes", "nodes",
                          "quadrature nodes per window", param="m")
    thm_single_time: bool = _key(_default(theorem_ratio_study, "single_time"),
                                 "theorem.single_time", "single-time", "the one-time variant")
    thm_ablate: bool = _key(_default(theorem_ratio_study, "ablate"), "theorem.ablate", "ablate",
                            "the rerun with the time-matching cross term dropped")
    thm_certify: bool = _key(_default(theorem_ratio_study, "certify"), "theorem.certify",
                             "certify", "the node-refinement certificate per point")
    pde_tau: float = _key(PdeGrid.tau, "pde.tau", "tau", "base point: mean time")
    pde_sigma: float = _key(PdeGrid.sigma, "pde.sigma", "sigma",
                            "base point: half time-difference")
    pde_xi: float = _key(PdeGrid.xi, "pde.xi", "xi", "base point: mean endpoint")
    pde_eta: float = _key(PdeGrid.eta, "pde.eta", "eta", "base point: endpoint asymmetry")
    pde_mu: float = _key(PdeGrid.mu, "pde.mu", "mu", "base point: first window width (< 0)")
    pde_nu: float = _key(PdeGrid.nu, "pde.nu", "nu", "base point: second window width (< 0)")
    pde_nodes: int = _key(PdeGrid.m, "pde.nodes", "nodes", "quadrature nodes per window",
                          param="m")
    pde_nodes_per_ray: int = _key(PdeGrid.nodes_per_ray, "pde.nodes_per_ray", "nodes-per-ray",
                                  "contour nodes per ray (0: chosen once per study until "
                                  "the PDE terms settle; 48 at the defaults)")
    oracle_s_min: float = _key(-5.0, "oracle.s_min", "s-min",
                               "reference table lower end (the oracle floor is -5)")
    oracle_s_max: float = _key(6.0, "oracle.s_max", "s-max", "reference table upper end")
    oracle_step: float = _key(0.5, "oracle.step", "step", "reference table spacing")
    out_csv: str = _key("", "output.csv", "csv", "CSV path (empty: <study>.csv)")
    out_json: str = _key("", "output.json", "json", "JSON path (empty: <study>.json)")
    cache_dir: str = _key("", "cache.dir", "cache-dir", "cache root (overrides PEARCEYGAP_CACHE)")
    cache_enabled: bool = _key(True, "cache.enabled", "cache", "the kernel block cache")


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _windows(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.lower() == "none":
            out.append(None)
            continue
        lo, sep, hi = tok.partition(":")
        if not sep:
            raise ValueError(f"window must look like lo:hi, got {tok!r}")
        out.append((float(lo), float(hi)))
    return tuple(out)


# field annotation -> (decode config text, encode value as config text)
_CODECS = {
    "str": (str, str),
    "int": (int, lambda v: str(int(v))),
    "float": (float, lambda v: repr(float(v))),
    "bool": (_bool, lambda v: "true" if v else "false"),
    "Floats": (_floats, lambda v: ",".join(repr(float(x)) for x in v)),
    "Windows": (_windows, lambda v: ",".join(
        "none" if w is None else f"{w[0]!r}:{w[1]!r}" for w in v)),
}


def _encoded(config: StudyConfig) -> dict:
    """Dotted key -> config text of the value, for every field in order."""
    return {f.metadata["key"]: _CODECS[f.type][1](getattr(config, f.name))
            for f in fields(config)}


def serialize_config(config: StudyConfig) -> str:
    return "".join(f"{key} = {text}\n" for key, text in _encoded(config).items())


def _check_value(f, value) -> None:
    """Reject a value outside the field's allowed values (if it lists any), and
    a non-finite number in a float, Floats or Windows field."""
    choices = f.metadata["choices"]
    if choices and value not in choices:
        raise DomainError(f"{f.metadata['key']} must be one of {choices}, got {value!r}")
    if f.type in ("float", "Floats", "Windows"):
        numbers = [value] if f.type == "float" else [v for v in value if v is not None]
        if not np.all(np.isfinite(np.asarray(numbers, dtype=float))):
            text = _CODECS[f.type][1](value)
            raise DomainError(f"{f.metadata['key']} must be finite, got {text}")


def parse_config(text: str, base: StudyConfig | None = None) -> StudyConfig:
    by_key = {f.metadata["key"]: f for f in fields(StudyConfig)}
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"config line {lineno}: expected key = value")
        key = key.strip()
        if key not in by_key:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        f = by_key[key]
        try:
            updates[f.name] = _CODECS[f.type][0](value.strip())
            _check_value(f, updates[f.name])
        except (ValueError, DomainError) as exc:
            raise DomainError(f"config line {lineno}: {exc}") from exc
    return replace(base if base is not None else StudyConfig(), **updates)


# ---------------------------------------------------------------------------
# dispatch


def _params(config: StudyConfig) -> dict:
    """The keyword arguments of config's study: its section's fields, in order."""
    section = _STUDIES[config.kind][0]
    return {f.metadata["param"]: getattr(config, f.name) for f in fields(config)
            if f.metadata["section"] == section}


def _dispatch(config: StudyConfig) -> StudyReport:
    return _STUDIES[config.kind][2](**_params(config))


# ---------------------------------------------------------------------------
# report files


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(report: StudyReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_cell(v) for v in row])


def _write_json(report: StudyReport, path: str, config: StudyConfig) -> None:
    doc = {
        "schema": "pearceygap-report-1",
        "study": report.name,
        "verdict": report.verdict,
        "config": _encoded(config),
        "inputs": _params(config),
        "summary": report.summary,
        "columns": report.columns,
        "rows": report.rows,
        "metadata": report.metadata,
    }
    with open(path, "w") as fh:
        # json writes float subclasses (np.float64) as floats and tuples as
        # arrays; other numpy scalars (np.int64, np.bool_) become Python ones
        json.dump(doc, fh, indent=2, default=lambda v: v.item())
        fh.write("\n")


def run(config: StudyConfig) -> tuple[StudyReport, int]:
    """Execute one configured study and write its CSV/JSON reports."""
    for f in fields(config):
        _check_value(f, getattr(config, f.name))
    started = time.time()
    # the cache creates and locks its root at the study's first block lookup
    cache = KernelCache(default_root(config.cache_dir or None)) if config.cache_enabled else None
    set_block_cache(cache)
    try:
        report = _dispatch(config)
    finally:
        set_block_cache(None)
        if cache is not None:
            cache.close()
    report.metadata = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.time() - started,
        "package_version": __version__,
        "cache_hits": cache.hits if cache else 0,
        "cache_misses": cache.misses if cache else 0,
    }
    csv_path = config.out_csv or f"{report.name}.csv"
    json_path = config.out_json or f"{report.name}.json"
    _write_csv(report, csv_path)
    _write_json(report, json_path, config)
    if report.passed is None:
        code = 2
    else:
        code = 0 if report.passed else 1
    return report, code


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 3) rather than
    printing usage and exiting 2, which the exit-code contract reserves for
    inconclusive studies."""

    def error(self, message):
        raise DomainError(message)


def _flag_type(decode):
    def convert(text: str):
        try:
            return decode(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pearceygap",
        description="Gap probabilities of the Airy and Pearcey processes, "
                    "and the convergence/PDE studies built on them.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (section, summary, _) in _STUDIES.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument("--config", help="config file (flat dotted key = value)")
        for f in fields(StudyConfig):
            key, flag, help_text = f.metadata["key"], f.metadata["flag"], f.metadata["help"]
            if flag is None or f.metadata["section"] not in (section, *_SHARED_SECTIONS):
                continue
            if f.type == "bool":
                # default on: --no-<flag> turns it off; default off: --<flag> turns it on
                sub.add_argument(f"--no-{flag}" if f.default else f"--{flag}", dest=f.name,
                                 action="store_false" if f.default else "store_true",
                                 default=None,
                                 help=f"turn {'off' if f.default else 'on'} {help_text} [{key}]")
            else:
                choices = f.metadata["choices"] or None
                sub.add_argument(f"--{flag}", dest=f.name, type=_flag_type(_CODECS[f.type][0]),
                                 choices=choices, metavar=None if choices else f.type.upper(),
                                 help=f"{help_text} [{key}]")
    return parser


def _merge_negative_values(argv: list) -> list:
    """Merge a value-taking flag and a value that starts with "-" (negative
    numbers, windows like -1:6) into --flag=value, so argparse does not mistake
    the value for an option."""
    value_flags = {f"--{f.metadata['flag']}" for f in fields(StudyConfig)
                   if f.metadata["flag"] is not None and f.type != "bool"}
    out = []
    for tok in argv:
        if out and out[-1] in value_flags and re.match(r"-[\d.]", tok):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def _config_from_args(args: argparse.Namespace) -> StudyConfig:
    config = StudyConfig()
    if args.config:
        with open(args.config) as fh:
            config = parse_config(fh.read())
    flags = {f.name: getattr(args, f.name) for f in fields(config)
             if getattr(args, f.name, None) is not None}
    return replace(config, kind=args.command, **flags)


def _headline(report: StudyReport) -> str:
    s = report.summary
    if report.name == "gap":
        return repr(s["probability"])
    if report.name == "identities":
        return (f"identities: max|res| = {max(s['max_abs_identity1'], s['max_abs_identity2']):.3e}"
                f" (tolerance {s['tolerance']:g}) -> {report.verdict}")
    if report.name == "prop21":
        return (f"prop21: slope = {s['slope']:.4f} (expected {s['expected_slope']:g},"
                f" R^2 = {s['r2']:.6f}) -> {report.verdict}")
    if report.name == "theorem":
        return (f"theorem: slope = {s['slope']:.4f} (expected -4/3,"
                f" R^2 = {s['r2']:.6f}) -> {report.verdict}")
    if report.name == "pde":
        return (f"pde: normalized residual = {s['normalized_residual']:.3e}"
                f" (m -> 2m gap {s['certificate_gap']:.3e},"
                f" ablation {s['ablation_ratio']:.3g}x) -> {report.verdict}")
    return (f"oracle-painleve: {s['points']} points,"
            f" F2(0) error = {s['f2_at_zero_error']:.2e},"
            f" max log error vs Fredholm = {s['max_log_error_vs_fredholm']:.2e}"
            f" at s = {s['max_log_error_at_s']:g} -> {report.verdict}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_negative_values(list(argv)))
        config = _config_from_args(args)
    except (DomainError, OSError, ValueError) as exc:
        print(f"pearceygap: config error: {exc}", file=sys.stderr)
        return 3
    try:
        report, code = run(config)
    except (ConcurrencyError, OSError) as exc:
        print(f"pearceygap: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"pearceygap: config error: {exc}", file=sys.stderr)
        return 3
    except PearceyGapError as exc:
        print(f"pearceygap: study failed: {exc}", file=sys.stderr)
        return 1
    print(_headline(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
