"""Acceptance checklist: one test per criterion, one pass/fail line each
under ``pytest -v``.

1. Airy special function: ODE residual and closed-form values at 0.
2. Airy kernel representation equivalence (quotient vs lambda integral).
3. Kernel differential identities on the stated (x, y, s) grid.
4. Kernel convergence order in z (8 at t = 0, 4 at t = 0.5).
5. Statistics convergence order -4/3 in tau1 (two-time and one-time).
6. Two-time PDE residual: small, O(h^2), and ablation-sensitive.
7. Fredholm engine: rank-one exactness, GUE edge vs the independent
   Painleve II oracle, refinement certificates on study points.
8. Conjugation and contour-deformation invariance spot checks.
9. CLI determinism: byte-identical CSV data rows on warm-cache reruns.
"""

import math

import numpy as np
import pytest

from pearceygap.airy_process import extended_airy_grid
from pearceygap.analysis import (
    identity_grid_study,
    pde_residual,
    proposition_slope,
    theorem_ratio_study,
)
from pearceygap.cli import main
from pearceygap.fredholm import GapQuery, gap_probability, log_gap_probability
from pearceygap.painleve import tracy_widom_f2
from pearceygap.pearcey_process import PearceyContour, RecenterSpec, pearcey_block_grid
from pearceygap.scaling import ScalingParams
from pearceygap.specfun import airy, gauss_rule

from oracles import airy_deriv, airy_kernel, map_windows


def test_criterion_1_airy_ode_and_closed_forms():
    xs = np.arange(-10.0, 5.0 + 1e-9, 0.25)
    v = airy(xs)
    # pointwise residual of Ai'' - x Ai
    assert np.max(np.abs(airy_deriv(xs, 2) - xs * v.ai)) <= 1e-10
    # integral form of the ODE binds ai and aip jointly: over each panel,
    # Ai'(b) - Ai'(a) must equal the quadrature of x Ai(x)
    worst = 0.0
    for a, b in zip(xs, xs[1:]):
        rule = gauss_rule(32, float(a), float(b))
        node_vals = airy(rule.nodes)
        increment = float(np.dot(rule.weights, rule.nodes * node_vals.ai))
        va, vb = airy(float(a)), airy(float(b))
        worst = max(worst, abs((vb.aip - va.aip) - increment))
    assert worst <= 1e-10
    v0 = airy(0.0)
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    assert abs(v0.ai - ai0) <= 1e-12
    assert abs(v0.aip - aip0) <= 1e-12
    print(f"[criterion 1] ODE residual <= 1e-10 on [-10, 5]; "
          f"Ai(0), Ai'(0) within 1e-12 of Gamma closed forms")


def test_criterion_2_kernel_representation_equivalence():
    pts = np.linspace(-4.0, 4.0, 20)
    worst = 0.0
    for x in pts:
        for y in pts:
            if abs(x - y) < 1e-3:
                continue  # the quotient form degenerates on the diagonal
            worst = max(worst, abs(airy_kernel(x, y) - extended_airy_grid(0.0, 0.0, x, y)[0, 0]))
    assert worst <= 1e-9
    print(f"[criterion 2] representation gap {worst:.2e} <= 1e-9 on 20x20 grid")


def test_criterion_3_differential_identities():
    report = identity_grid_study()  # [-1, 1]^2 x s in {0.1, 0.3, 0.6}
    s = report.summary
    assert s["points"] == 75
    assert s["max_abs_identity1"] <= 1e-7
    assert s["max_abs_identity2"] <= 1e-7
    assert report.passed is True
    print(f"[criterion 3] identity residuals {s['max_abs_identity1']:.2e}, "
          f"{s['max_abs_identity2']:.2e} <= 1e-7")


def test_criterion_4_kernel_convergence_orders():
    at_zero = proposition_slope(0.0, 0.5)
    offset = proposition_slope(0.5, 0.3)
    for report, expected in ((at_zero, 8.0), (offset, 4.0)):
        s = report.summary
        assert abs(s["slope"] - expected) <= 0.5
        assert s["r2"] >= 0.99
        assert report.passed is True
        zs = [row[0] for row in report.rows]
        assert min(zs) >= 0.15 and max(zs) <= 0.35
    print(f"[criterion 4] slopes {at_zero.summary['slope']:.4f} (expect 8), "
          f"{offset.summary['slope']:.4f} (expect 4)")


def test_criterion_5_statistics_convergence_rate():
    grid = (30.0, 60.0, 120.0, 240.0, 480.0, 960.0)
    two_time = theorem_ratio_study(grid, -0.5, 0.5,
                                   airy_windows=((-1.0, 6.0), (-1.0, 6.0)))
    one_time = theorem_ratio_study(grid, -0.5, 0.5,
                                   airy_windows=((-1.0, 6.0), (-1.0, 6.0)),
                                   single_time=True)
    for report in (two_time, one_time):
        s = report.summary
        assert abs(s["slope"] - (-4.0 / 3.0)) <= 0.2
        assert s["r2"] >= 0.98
        assert s["untrusted_points"] == 0
        assert report.passed is True
    assert two_time.summary["ablation_detectability"] >= 5.0
    print(f"[criterion 5] slopes {two_time.summary['slope']:.4f} (two-time), "
          f"{one_time.summary['slope']:.4f} (one-time); expect -4/3 +/- 0.2")


def test_criterion_6_pde_residual():
    report = pde_residual()
    s = report.summary
    # exact derivatives of the Nystrom log det at 2m nodes per window: the
    # PDE holds at least 1e3 below the O(h^2) residual 2.35e-4 of central
    # differences, and no term moves by more than the study's tolerance from m
    assert s["normalized_residual"] <= 2.35e-7
    terms = [row[0] for row in report.rows[:-1]]
    assert s["certificate_gap"] == max(s[f"gap_{name}"] for name in terms)
    assert s["certificate_gap"] <= s["tolerance"] <= 2.35e-7
    assert s["ablation_ratio"] >= 10.0
    assert report.passed is True
    print(f"[criterion 6] residual {s['normalized_residual']:.2e}, m -> 2m gap "
          f"{s['certificate_gap']:.2e}; ablation x{s['ablation_ratio']:.3g}")


def test_criterion_7_fredholm_engine():
    # rank-one kernel phi(x) psi(y): det(I - K) = 1 - int phi psi, and the
    # polynomial integrand is exact under Gauss quadrature
    rank_one = GapQuery(
        family="custom",
        times=(0.0,),
        windows=((0.0, 1.0),),
        m=12,
        kernel=lambda i, j, xi, xj: np.outer(xi**2, xj**3 + 1.0),
    )
    assert abs(gap_probability(rank_one) - 0.5) <= 1e-12

    # GUE edge: window (0, 12) truncates (0, inf) far below 1e-6
    edge = GapQuery(family="airy", times=(0.0,), windows=((0.0, 12.0),), m=60)
    gue = math.exp(log_gap_probability(edge))
    oracle = tracy_widom_f2(0.0)
    assert abs(gue - oracle) <= 1e-6

    # refinement certificates at designated study points (criterion 5's
    # certified studies cover the tau1 grid; spot-check both families here)
    p = ScalingParams.for_theorem(30.0, -0.5, 0.5)
    certified = GapQuery(
        family="pearcey-conjugated",
        times=(p.t1, p.t2),
        windows=((-1.0, 6.0), (-1.0, 6.0)),
        m=30,
        z=p.z,
        certify=True,
    )
    log_gap_probability(certified)  # raises AccuracyError on failure
    pde_point = GapQuery(
        family="pearcey",
        times=(3.5, 4.5),
        windows=((1.75, 3.75), (2.25, 4.25)),
        m=24,
        certify=True,
    )
    log_gap_probability(pde_point)
    print(f"[criterion 7] rank-one exact; GUE edge vs oracle "
          f"{abs(gue - oracle):.2e} <= 1e-6; certificates pass")


def test_criterion_8_invariance_spot_checks():
    # conjugation invariance, direct contours (moderate tau)
    p = ScalingParams.from_z(0.60, 0.1, 0.45)
    w1x, w2x = (-0.5, 1.0), (-0.8, 0.7)
    wxi = map_windows([w2x, w1x], p.tau2, p.tau1)
    direct = GapQuery(family="pearcey", times=(p.tau2, p.tau1),
                      windows=tuple(wxi), m=30)
    conj = GapQuery(family="pearcey-conjugated", times=(p.t2, p.t1),
                    windows=(w2x, w1x), m=30, z=p.z)
    gap_conj = abs(gap_probability(direct) - gap_probability(conj))
    assert gap_conj <= 1e-8

    # conjugation invariance with recentred contours (large tau, huge factors)
    p2 = ScalingParams.from_z(0.45, 0.0, 0.5)
    w1x, w2x = (0.0, 0.7), (-0.2, 0.5)
    wxi2 = map_windows([w2x, w1x], p2.tau2, p2.tau1)
    rc = PearceyContour(recenter=RecenterSpec(z=p2.z))
    direct2 = GapQuery(family="pearcey", times=(p2.tau2, p2.tau1),
                       windows=tuple(wxi2), m=30, contour=rc)
    conj2 = GapQuery(family="pearcey-conjugated", times=(p2.t2, p2.t1),
                     windows=(w2x, w1x), m=30, z=p2.z)
    gap_conj2 = abs(gap_probability(direct2) - gap_probability(conj2))
    assert gap_conj2 <= 1e-8

    # contour-deformation invariance of the direct kernel
    # tau_i > tau_j, so the block is the double-contour part alone
    base = pearcey_block_grid(2.0, 1.5, 0.7, -0.4, PearceyContour(nodes_per_ray=128))[0, 0]
    moved = pearcey_block_grid(
        2.0, 1.5, 0.7, -0.4,
        PearceyContour(sigma1=0.48, sigma1p=1.05, sigma2=0.52, sigma2p=1.11,
                       tau_ang=1.27, tau_angp=1.82, nodes_per_ray=128),
    )[0, 0]
    gap_deform = abs(moved - base)
    assert gap_deform <= 1e-8
    print(f"[criterion 8] conjugation gaps {gap_conj:.2e}, {gap_conj2:.2e}; "
          f"deformation gap {gap_deform:.2e}; all <= 1e-8")


_CLI_CASES = (
    ("gap", ["gap", "--times", "0", "--windows", "-1:4", "--nodes", "24"]),
    ("identities", ["identities", "--x-grid", "-0.5,0.5", "--y-grid", "0.25",
                    "--s-grid", "0.3"]),
    ("prop21", ["prop21", "--z", "0.35,0.25,0.15"]),
    ("theorem", ["theorem", "--tau1", "30,60,120", "--nodes", "16",
                 "--no-certify"]),
    ("pde", ["pde", "--nodes", "12", "--nodes-per-ray", "96"]),
    ("oracle-painleve", ["oracle-painleve", "--s-min", "-3", "--s-max", "3",
                         "--step", "1"]),
)


@pytest.mark.parametrize("name, argv", _CLI_CASES, ids=[c[0] for c in _CLI_CASES])
def test_criterion_9_cli_determinism(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    csv_path = tmp_path / "out.csv"
    runs = []
    for _ in range(2):
        code = main(argv + ["--cache-dir", str(tmp_path / "cache"),
                            "--csv", str(csv_path),
                            "--json", str(tmp_path / "out.json")])
        assert code in (0, 1, 2)  # a report was produced either way
        runs.append((code, csv_path.read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert len(runs[0][1].splitlines()) >= 2  # header plus data
    print(f"[criterion 9] {name}: warm-cache rerun byte-identical "
          f"({len(runs[0][1])} CSV bytes)")
