"""Acceptance gate: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines, or
`ruledgeom verify` for the full per-check report (same suites, same
tolerances).
"""

import time

from ruledgeom import offsets, verify
from ruledgeom.cli import main
from ruledgeom.config import Tolerances
from ruledgeom.verify import (Analyses, run_all, suite_catalog_offsets,
                              suite_developability, suite_dual_algebra,
                              suite_line_correspondence,
                              suite_saddle_reproduction,
                              suite_theorem_offsets)

TOL = Tolerances()
SEED = 42


def _gate(num: int, description: str, checks, extra: str = ""):
    failed = [c for c in checks if not c.passed]
    worst = max(checks, key=lambda c: c.measured - c.tolerance)
    status = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {description} "
          f"(worst: {worst.name}: measured={worst.measured:.3e} "
          f"tol={worst.tolerance:.3e}){extra}")
    assert not failed, [f"{c.name}: measured={c.measured:.3e} "
                        f"tol={c.tolerance:.3e}" for c in failed]


def test_criterion_1_dual_algebra_laws():
    t0 = time.perf_counter()
    checks = suite_dual_algebra(TOL, SEED, Analyses())
    elapsed = time.perf_counter() - t0
    _gate(1, "dual algebra laws on 1000 seeded samples "
             "(nilpotency, lift vs finite differences, Lagrange identity)",
          checks, extra=f" runtime={elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_2_line_round_trip():
    _gate(2, "oriented-line round trip and dual-angle distance oracle "
             "on 1000 seeded lines",
          suite_line_correspondence(TOL, SEED, Analyses()))


def test_criterion_3_saddle_reproduction():
    _gate(3, "saddle reproduction: frame vector, invariants, dual ruling",
          suite_saddle_reproduction(TOL, SEED, Analyses()))


def test_criterion_4_catalog_offsets():
    _gate(4, "constant-angle saddle offsets land on the translated "
             "striction lines (1e-9)",
          suite_catalog_offsets(TOL, SEED, Analyses()))


def test_criterion_5_theorem_suite():
    checks = [c for c in suite_theorem_offsets(TOL, SEED, Analyses())
              if "d(theta" not in c.name]
    _gate(5, "theorem-consistent offsets on cone(pi/4) and "
             "small_circle(pi/6): Mannheim residual and all predicted "
             "invariants vs recomputation",
          checks)


def test_criterion_6_offset_angle_differential_law():
    checks = [c for c in suite_theorem_offsets(TOL, SEED, Analyses())
              if "d(theta" in c.name]
    assert len(checks) == 4
    _gate(6, "d(theta~)/d(s~) = -1 + eps*0 along every theorem-consistent "
             "offset (1e-6)",
          checks)


def test_criterion_7_developability():
    _gate(7, "developability both ways on the cone: constant offset "
             "distance and the flattening profile",
          suite_developability(TOL, SEED, Analyses()))


def test_criterion_8_verify_command_runtime(capsys):
    t0 = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        print(f"ACCEPTANCE 8: {'PASS' if code == 0 and elapsed < 10 else 'FAIL'}"
              f" - full verify command, exit={code}, {elapsed:.2f}s (< 10 s)")
    assert code == 0
    assert elapsed < 10.0
    assert out.splitlines()[-1].endswith("checks passed")


def test_verify_report_is_seed_deterministic():
    a, failed_a = run_all(TOL, SEED)
    b, failed_b = run_all(TOL, SEED)
    assert a == b and failed_a == failed_b == 0


def test_verify_builds_each_catalog_analysis_once(monkeypatch):
    """The saddle serves three suites and the theorem cone two, but each
    is analyzed once per run: 8 surfaces, plus the 5 offsets that
    verify_offset re-analyzes."""
    calls = []
    analyze = verify.analyze

    def counted(spec):
        calls.append((spec.name, spec.param_range))
        return analyze(spec)

    for module in (verify, offsets):
        monkeypatch.setattr(module, "analyze", counted)
    text, failed = run_all(TOL, SEED)
    assert failed == 0
    assert len(calls) == 13
    assert calls.count(("hyperbolic_paraboloid", verify.SADDLE[1])) == 1
    cone = verify.THEOREM_CONE
    assert calls.count((f"cone(alpha={cone[1]:g})", cone[2])) == 1
    monkeypatch.undo()
    assert run_all(TOL, SEED)[0] == text
