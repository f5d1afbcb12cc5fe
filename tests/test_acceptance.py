"""Acceptance suite: one test per criterion, one printed line each.

Criteria 1-10, 12 and 13 run the verification families of
``arthurcalc.testing`` at full size, each from its own seed;
``arthurcalc selftest`` runs the same families at compact size.  Every
criterion runs at its stated size and tolerance (all checks here are
exact sign identities, so the tolerance is literal equality, zero
failures allowed).
"""

import random
import time

from arthurcalc.testing import FAMILIES, FULL


def _report(criterion, checks, failures, started):
    elapsed = time.time() - started
    status = "PASS" if failures == 0 else "FAIL"
    print(f"[{status}] criterion {criterion}: {checks} checks, "
          f"{failures} failures, {elapsed:.1f}s")
    assert failures == 0


def test_criterion_1_sign_character_laws():
    started = time.time()
    checks, failures = FAMILIES["sign_laws"](random.Random(10**6 + 1), FULL)
    elapsed = time.time() - started
    assert elapsed < 10.0, f"criterion 1 overran: {elapsed:.1f}s"
    _report(1, checks, failures, started)


def test_criterion_2_endoscopic_transfer_sign():
    started = time.time()
    checks, failures = FAMILIES["transfer_sign"](
        random.Random(10**6 + 2), FULL)
    assert checks >= 1000
    _report(2, checks, failures, started)


def test_criterion_3_dominance_stability():
    started = time.time()
    checks, failures = FAMILIES["dominance"](random.Random(10**6 + 3), FULL)
    _report(3, checks, failures, started)


def test_criterion_4_eta_constraint_exhaustive():
    started = time.time()
    checks, failures = FAMILIES["eta_constraint"](
        random.Random(10**6 + 4), FULL)
    assert checks >= 150  # every cell with A <= 15/2
    _report(4, checks, failures, started)


def test_criterion_5_l_eta_census():
    started = time.time()
    checks, failures = FAMILIES["census"](random.Random(10**6 + 5), FULL)
    _report(5, checks, failures, started)


def test_criterion_6_aubert_beta_coherence():
    started = time.time()
    checks, failures = FAMILIES["flip_involution"](
        random.Random(10**6 + 6), FULL)
    _report(6, checks, failures, started)


def test_criterion_7_cuspidal_support_wellfounded():
    started = time.time()
    checks, failures = FAMILIES["cuspidal_support"](
        random.Random(10**6 + 7), FULL)
    _report(7, checks, failures, started)


def test_criterion_8_weyl_catalog():
    started = time.time()
    checks, failures = FAMILIES["weyl_catalog"](random.Random(10**6 + 8), FULL)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"criterion 8 overran: {elapsed:.1f}s"
    _report(8, checks, failures, started)


def test_criterion_9_endoscopic_recursion_bookkeeping():
    started = time.time()
    checks, failures = FAMILIES["bookkeeping"](random.Random(10**6 + 9), FULL)
    assert checks > 100
    _report(9, checks, failures, started)


def test_criterion_10_eps_m_mw_variant_agreement():
    started = time.time()
    checks, failures = FAMILIES["variant_agreement"](
        random.Random(10**6 + 10), FULL)
    assert checks >= 350  # full grid of bounded elementary shapes
    _report(10, checks, failures, started)


def test_criterion_11_cli_golden_corpus():
    import json
    import os
    from tests.test_cli import run_cli, _fix_paths, GOLDEN

    started = time.time()
    checks = failures = 0
    with open(os.path.join(GOLDEN, "invocations.json")) as fh:
        invocations = json.load(fh)
    for name, argv in invocations:
        rc, out = run_cli(_fix_paths(argv))
        with open(os.path.join(GOLDEN, f"{name}.out")) as fh:
            expected = fh.read()
        rc2, out2 = run_cli(_fix_paths(argv))
        if rc != 0 or out != expected or out2 != out:
            failures += 1
        checks += 1
    _report(11, checks, failures, started)


def test_criterion_12_full_expansion():
    started = time.time()
    checks, failures = FAMILIES["full_expansion"](
        random.Random(10**6 + 12), FULL)
    assert checks >= 100  # 60 stable expansions and their characters
    _report(12, checks, failures, started)


def test_criterion_13_m_w_translation():
    started = time.time()
    checks, failures = FAMILIES["m_w_translation"](
        random.Random(10**6 + 13), FULL)
    assert checks >= 2000  # every shifted character of 200 draws
    _report(13, checks, failures, started)
