"""Replayable mutants: each entry breaks one line of the package, and the
tests it names must fail.

    python tests/mutants.py [NAME ...]

For each mutant (all, or those named), the runner copies src, tests and
pyproject.toml to a temporary directory, replaces the entry's snippet, which
must occur exactly once in its file, and runs the named tests there with
pytest in a subprocess, one mutant at a time, under a timeout, with
hypothesis's seed fixed and its explain phase off (the `mutants` profile in
tests/conftest.py: explaining a failure can outlast the timeout).  It first
runs every named test on the unmutated copy, which must pass.  It prints one
JSON line per mutant, whose status is

    killed    every named test failed;
    timeout   the tests ran past TIMEOUT_S (the mutant may loop forever);
    survived  some named test passed (listed under "passed");
    error     a named test was not collected, or pytest could not run;
    stale     the snippet does not occur exactly once (the code moved);

and exits 1 unless every mutant is killed or timed out.  pytest does not
collect this file (it is not a test_*.py module).  A surviving mutant is a
missing test: add the test, never drop the mutant.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120

SBTREE = "src/qrationals/sbtree.py"
QDEFORM = "src/qrationals/qdeform.py"
CLOSEDFORMS = "src/qrationals/closedforms.py"
DEDEKIND = "src/qrationals/dedekind.py"
EXACT = "src/qrationals/exact.py"
T = "tests/test_sbtree.py::"
Q = "tests/test_qdeform.py::"
C = "tests/test_closedforms.py::"
D = "tests/test_dedekind.py::"

MUTANTS = [
    {
        "name": "mediant-xi-one-too-large",
        "file": SBTREE,
        "old": "    frame.xi = xi = _degree_gap(deg_l, deg_r)\n",
        "new": "    frame.xi = xi = _degree_gap(deg_l, deg_r) + 1\n",
        "tests": [T + "test_packed_walker_matches_deform",
                  T + "test_identity_sweep_small_depth"],
    },
    {
        "name": "mediant-denominator-degree-one-too-small",
        "file": SBTREE,
        "old": "dl + (dr << shift), deg_r + xi\n",
        "new": "dl + (dr << shift), deg_r + xi - 1\n",
        "tests": [T + "test_packed_walker_matches_deform",
                  T + "test_identity_sweep_small_depth"],
    },
    {
        "name": "gap-floored-at-0",
        "file": SBTREE,
        "old": "    return max(1, left_degree - right_degree + 1)\n",
        "new": "    return max(0, left_degree - right_degree + 1)\n",
        "tests": [T + "test_packed_walker_matches_deform",
                  T + "test_jet_walker_matches_polynomial_walker",
                  T + "test_identity_sweep_small_depth"],
    },
    {
        "name": "jet-digits-in-base-2-to-the-width",
        "file": SBTREE,
        "old": "    h = (1 << width) - 1\n",
        "new": "    h = 1 << width\n",
        "tests": [T + "test_jet_walker_matches_polynomial_walker",
                  T + "test_identity_sweep_small_depth"],
    },
    {
        "name": "jet-walk-at-the-polynomial-width",
        "file": SBTREE,
        "old": "    return bound.bit_length() + 1\n",
        "new": "    return _window_width(m, _largest_denominator(depth))\n",
        "tests": [T + "test_jet_walker_matches_polynomial_walker",
                  "tests/test_fit.py::test_plot_data_csv_pinned_digests"],
    },
    {
        "name": "jet-numerator-digits-not-negated-back",
        "file": SBTREE,
        "old": "    n = [-s for s in n] if frame.a < 0 else n\n",
        "new": "    n = n\n",
        "tests": [T + "test_jet_walker_matches_polynomial_walker"],
    },
    {
        "name": "shape-cache-keyed-on-order-alone",
        "file": SBTREE,
        "old": "            key = (m, parents)\n",
        "new": "            key = m\n",
        "tests": [T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "correction-term-s13-sign-flipped",
        "file": SBTREE,
        "old": "    return 6 * b * (b - a) - _s13_cleared(a, b)\n",
        "new": "    return 6 * b * (b - a) + _s13_cleared(a, b)\n",
        "tests": [T + "test_identity_correction_equals_the_literal_form",
                  T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        # the sweep builds the correction only for a failing record
        "name": "correction-lcm-replaced-by-last-denominator",
        "file": SBTREE,
        "old": "        return sum(c) - L, 2\n    B = math.lcm(*(fr.b for fr in frames))\n",
        "new": "        return sum(c) - L, 2\n    B = frames[-1].b\n",
        "tests": [T + "test_identity_correction_equals_the_literal_form",
                  T + "test_identity_sweep_reports_unscaled_failures",
                  T + "test_identity_sweep_fails_where_a_nodes_jets_are_wrong"],
    },
    {
        "name": "identity-e4-without-its-plus-one",
        "file": SBTREE,
        "old": "    frame.e4 = 2 * j1 + 1\n",
        "new": "    frame.e4 = 2 * j1\n",
        "tests": [T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "identity-e5-with-6-in-place-of-6b",
        "file": SBTREE,
        "old": "    frame.e5 = 6 * frame.b * j2 - _term(frame.a, frame.b)\n",
        "new": "    frame.e5 = 6 * j2 - _term(frame.a, frame.b)\n",
        "tests": [T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "identity-e5-read-from-j1",
        "file": SBTREE,
        "old": "    frame.e5 = 6 * frame.b * j2 - _term(frame.a, frame.b)\n",
        "new": "    frame.e5 = 6 * frame.b * j1 - _term(frame.a, frame.b)\n",
        "tests": [T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "identity-order-5-values-not-scaled-by-lcm-over-b",
        "file": SBTREE,
        "old": "values = [fr.e5 * (B // fr.b) for fr in frames]",
        "new": "values = [fr.e5 for fr in frames]",
        "tests": [T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "jet-digit-0-guard-deleted",
        "file": SBTREE,
        "old": "    if n[0] != frame.a or d[0] != frame.b:\n",
        "new": "    if False:\n",
        "tests": [T + "test_identity_sweep_rejects_a_node_that_is_not_its_parents_mediant"],
    },
    {
        "name": "run-length-jump-off-by-one",
        "file": SBTREE,
        "old": "        k = min(u - (i == 0), top - d)",
        "new": "        k = min(u, top - d)",
        "tests": [T + "test_lineage_extract_matches_the_farey_step_search",
                  T + "test_lineage_order4_fixtures"],
    },
    {
        "name": "packed-mask-guard-deleted",
        "file": SBTREE,
        "old": "    if (num ^ nl) & word or (den ^ dl) & word:\n",
        "new": "    if False:\n",
        "tests": [T + "test_equivalence_sweep_rejects_a_pair_that_is_not_canonical_as_built",
                  T + "test_corrupted_member_is_rejected_where_the_products_reject_it",
                  T + "test_identity_sweep_rejects_a_node_that_is_not_its_parents_mediant"],
    },
    {
        "name": "packed-check-on-denominator-word-alone",
        "file": SBTREE,
        "old": "    if (num ^ nl) & word or (den ^ dl) & word:\n",
        "new": "    if (den ^ dl) & word:\n",
        "tests": [T + "test_equivalence_sweep_rejects_a_pair_that_is_not_canonical_as_built"],
    },
    {
        "name": "packed-width-one-byte-short",
        "file": SBTREE,
        "old": "    width = _window_width(m, _largest_denominator(depth))\n",
        "new": "    width = _window_width(m, _largest_denominator(depth)) - 8\n",
        "tests": [T + "test_packed_walker_matches_deform"],
    },
    {
        "name": "lineage-weight-shift-in-degrees",
        "file": SBTREE,
        "old": "    F, G = _weights(parents, [fr.xi * width for fr in frames[2:]])\n",
        "new": "    F, G = _weights(parents, [fr.xi for fr in frames[2:]])\n",
        "tests": [T + "test_lineage_weight_polynomials",
                  T + "test_walker_lineage_weights_rebuild_members_by_products",
                  T + "test_lineage_extract_weights_rebuild_members_by_products"],
    },
    {
        "name": "lineage-weight-q-power-on-smaller-parent",
        "file": SBTREE,
        "old": "            w.append(w[small - 1] + (w[big - 1] << shift))\n",
        "new": "            w.append((w[small - 1] << shift) + w[big - 1])\n",
        "tests": [T + "test_lineage_weight_polynomials",
                  T + "test_walker_lineage_weights_rebuild_members_by_products",
                  T + "test_lineage_extract_weights_rebuild_members_by_products"],
    },
    {
        "name": "lineage-weight-width-fixed-at-8-bits",
        "file": SBTREE,
        "old": "    width = _packed_width(max(f[-1], g[-1]))\n",
        "new": "    width = 8\n",
        "tests": [T + "test_lineage_extract_weights_rebuild_members_by_products"],
    },
    {
        "name": "tail-parities-swapped",
        "file": SBTREE,
        "old": "            odd = _step(a, ne, de, width, True)\n"
               "            table[p, a * p + r] = odd[1] >> strip, odd[0] >> strip\n"
               "            if s + a < top:\n"
               "                even = _step(a, no, do, width, False)\n",
        "new": "            odd = _step(a, ne, de, width, False)\n"
               "            table[p, a * p + r] = odd[1] >> strip, odd[0] >> strip\n"
               "            if s + a < top:\n"
               "                even = _step(a, no, do, width, True)\n",
        "tests": [T + "test_cfrac_table_is_the_tower_on_every_node"],
    },
    {
        "name": "negative-numerator-not-negated-back",
        "file": QDEFORM,
        "old": "    return RatFunc(-num if negated else num, _unpack(D, width))\n",
        "new": "    return RatFunc(num, _unpack(D, width))\n",
        "tests": [Q + "test_packed_pair_is_the_canonical_pair_for_either_head_sign",
                  Q + "test_deform_pinned_pairs",
                  T + "test_packed_walker_matches_deform"],
    },
    {
        "name": "negative-head-as-d-minus-qint",
        "file": QDEFORM,
        "old": "        N, D = _times_qint(N, k, width) - D, N << k * width\n",
        "new": "        N, D = D - _times_qint(N, k, width), N << k * width\n",
        "tests": [Q + "test_packed_pair_is_the_canonical_pair_for_either_head_sign",
                  Q + "test_packed_tower_matches_intpoly_tower",
                  T + "test_packed_walker_matches_deform"],
    },
    {
        "name": "q-integer-two-as-a-shift",
        "file": QDEFORM,
        "old": "    if a == 2:\n        new += t\n",
        "new": "    if a == 2:\n        new += 0\n",
        "tests": [Q + "test_step_writes_out_small_q_integers_as_times_qint",
                  Q + "test_deform_pinned_pairs"],
    },
    {
        "name": "odd-step-without-q",
        "file": QDEFORM,
        "old": "        t = N << width\n",
        "new": "        t = N\n",
        "tests": [Q + "test_step_writes_out_small_q_integers_as_times_qint",
                  Q + "test_deform_pinned_pairs",
                  Q + "test_packed_tower_matches_intpoly_tower"],
    },
    {
        "name": "odd-step-top-one-word-short",
        "file": QDEFORM,
        "old": "top = t << (a - 1) * width if a > 1 else t",
        "new": "top = t << (a - 2) * width if a > 1 else t",
        "tests": [Q + "test_step_writes_out_small_q_integers_as_times_qint",
                  Q + "test_packed_tower_matches_intpoly_tower"],
    },
    {
        "name": "wide-unpack-words-in-reverse-order",
        "file": QDEFORM,
        "old": "        words = [buf[i:i + w] for i in range(0, size, w)]\n",
        "new": "        words = [buf[i:i + w] for i in range(size - w, -1, -w)]\n",
        "tests": [Q + "test_unpack_splits_wide_words_literally",
                  Q + "test_packed_tower_pinned_wide_cases"],
    },
    {
        "name": "wide-unpack-words-read-big-endian",
        "file": QDEFORM,
        "old": "repeat(\"little\")",
        "new": "repeat(\"big\")",
        "tests": [Q + "test_unpack_splits_wide_words_literally",
                  Q + "test_packed_tower_pinned_wide_cases"],
    },
    {
        "name": "strip-tests-numerator-word-alone",
        "file": QDEFORM,
        "old": "    while not (N & word or D & word) and (N or D):\n",
        "new": "    while not N & word and (N or D):\n",
        "tests": [Q + "test_packed_pair_is_the_canonical_pair_for_either_head_sign",
                  Q + "test_deform_pinned_pairs"],
    },
    {
        "name": "walker-right-child-first",
        "file": SBTREE,
        "old": "            pending.append((k, k, hi, path + \"R\"))\n"
               "            hi, d, path = k, d + 1, path + \"L\"\n",
        "new": "            pending.append((k, lo, k, path + \"L\"))\n"
               "            lo, d, path = k, d + 1, path + \"R\"\n",
        "tests": [T + "test_walk_yields_each_node_once_in_increasing_value"],
    },
    {
        "name": "d2-thomae-part-sign-flipped",
        "file": CLOSEDFORMS,
        "old": "6 * b * (b - a)",
        "new": "6 * b * (a - b)",
        "tests": [C + "test_closed_forms_equal_their_literal_form",
                  C + "test_d2_closed_fixtures",
                  C + "test_closed_forms_match_exact_jets_on_long_expansions"],
    },
    {
        "name": "d1-minus-one-dropped",
        "file": CLOSEDFORMS,
        "old": "b * b - 1, 2 * b * b)",
        "new": "b * b, 2 * b * b)",
        "tests": [C + "test_closed_forms_equal_their_literal_form",
                  C + "test_d1_closed_fixtures",
                  C + "test_closed_forms_match_exact_jets_on_long_expansions"],
    },
    {
        "name": "d2-denominator-b-cubed",
        "file": CLOSEDFORMS,
        "old": "6 * b ** 4)",
        "new": "6 * b ** 3)",
        "tests": [C + "test_closed_forms_equal_their_literal_form",
                  C + "test_d2_closed_fixtures",
                  C + "test_closed_forms_match_exact_jets_on_long_expansions"],
    },
    {
        "name": "s13-a-not-reduced-mod-b",
        "file": DEDEKIND,
        "old": "    a, b = a // g % top, top\n",
        "new": "    a, b = a // g, top\n",
        "tests": ["tests/test_dedekind.py::test_s13_cleared_is_the_literal_sum",
                  "tests/test_dedekind.py::test_s13_descent_matches_literal_sum",
                  C + "test_closed_forms_equal_their_literal_form"],
    },
    {
        "name": "bracket-sum-2r-plus-b",
        "file": CLOSEDFORMS,
        "old": "- b) * n * n * (b - n)",
        "new": "+ b) * n * n * (b - n)",
        "tests": [D + "test_bracket_weight_sum_is_the_literal_sum",
                  D + "test_bracket_weight_sum_fixture",
                  D + "test_bridge_mismatches_all_empty"],
    },
    {
        "name": "bracket-sum-with-a-for-its-inverse",
        "file": CLOSEDFORMS,
        "old": "    inv = mod_inverse(a, b)\n    return Fraction(",
        "new": "    inv = a\n    return Fraction(",
        "tests": [D + "test_bracket_weight_sum_is_the_literal_sum",
                  D + "test_bracket_weight_sum_fixture",
                  D + "test_bridge_mismatches_all_empty"],
    },
    {
        "name": "bracket-sum-weight-n-not-n-squared",
        "file": CLOSEDFORMS,
        "old": "* n * n * (b - n)",
        "new": "* n * (b - n)",
        "tests": [D + "test_bracket_weight_sum_is_the_literal_sum",
                  D + "test_bracket_weight_sum_is_the_literal_sum_at_wider_moduli",
                  D + "test_bridge_mismatches_all_empty"],
    },
    {
        "name": "bracket-sum-over-2b-cubed",
        "file": CLOSEDFORMS,
        "old": "2 * b ** 4)",
        "new": "2 * b ** 3)",
        "tests": [D + "test_bracket_weight_sum_is_the_literal_sum",
                  D + "test_bracket_weight_sum_fixture",
                  D + "test_bridge_mismatches_all_empty"],
    },
    {
        "name": "zero-sum-pass-replaced-by-0",
        "file": CLOSEDFORMS,
        "old": "            zero = sum((2 * (inv * n % b) - b) * n * (b - n) for n in range(1, b))\n",
        "new": "            zero = 0\n",
        "tests": [D + "test_zero_sum_bridge_reports_a_multiplier_that_is_not_a_unit"],
    },
    {
        "name": "bernoulli-row-scaled-by-b-to-the-i-minus-k",
        "file": DEDEKIND,
        "old": "* b ** k for k, t in enumerate(row)]",
        "new": "* b ** (i - k) for k, t in enumerate(row)]",
        "tests": [D + "test_bernoulli_poly_is_the_literal_polynomial",
                  D + "test_bernoulli_poly_fixtures",
                  D + "test_s_sum_matches_literal_sum"],
    },
    {
        # no rank changes: a new row is still reduced against every kept row.
        "name": "echelon-back-elimination-skipped",
        "file": EXACT,
        "old": "            if k[col]:\n",
        "new": "            if False:\n",
        "tests": ["tests/test_exact.py::test_solver_handles_zero_leading_pivots",
                  "tests/test_exact.py::test_solver_inverts_matrix_action",
                  "tests/test_crosscheck_cas.py::test_linear_solver_matches_cas",
                  "tests/test_fit.py::test_fit_d1_recovers_coefficients"],
    },
]


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(REPO / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(REPO / "pyproject.toml", dest)


def _run_tests(root: Path, tests: list[str]) -> tuple[str, dict, list[str]]:
    """Run the tests under root; (outcome, per-test verdicts, pytest tail).
    A named test fails if any of its parametrized cases fails or errors."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", {}, []
    reported: dict[str, list[str]] = {}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            test_id = rest.split(" - ")[0]
            reported.setdefault(test_id.split("[")[0], []).append(word)
    verdicts = {t: ("missing" if t not in reported
                    else "passed" if set(reported[t]) == {"PASSED"} else "failed")
                for t in tests}
    return "ran", verdicts, proc.stdout.splitlines()[-3:] + proc.stderr.splitlines()[-3:]


def _run_mutant(mutant: dict) -> dict:
    record = {"mutant": mutant["name"], "file": mutant["file"]}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qrat-mutant-") as tmp:
        root = Path(tmp)
        _copy(root)
        path = root / mutant["file"]
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant["old"])
        if count != 1:
            return {**record, "status": "stale", "occurrences": count}
        path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        outcome, verdicts, tail = _run_tests(root, mutant["tests"])
    record["seconds"] = round(time.perf_counter() - start, 2)
    if outcome == "timeout":
        return {**record, "status": "timeout"}
    if "missing" in verdicts.values():
        return {**record, "status": "error", "missing": [t for t, v in verdicts.items()
                                                         if v == "missing"], "pytest": tail}
    passed = [t for t, v in verdicts.items() if v == "passed"]
    return {**record, "status": "survived" if passed else "killed", "passed": passed}


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m["name"] in argv]
    unknown = set(argv) - {m["name"] for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    tests = sorted({t for m in chosen for t in m["tests"]})
    with tempfile.TemporaryDirectory(prefix="qrat-mutant-") as tmp:
        _copy(Path(tmp))
        outcome, verdicts, tail = _run_tests(Path(tmp), tests)
    broken = [t for t, v in verdicts.items() if v != "passed"]
    if outcome != "ran" or broken:
        print(json.dumps({"mutant": None, "status": "baseline failed",
                          "tests": broken or tests, "pytest": tail}))
        return 1
    ok = True
    for mutant in chosen:
        record = _run_mutant(mutant)
        print(json.dumps(record), flush=True)
        ok &= record["status"] in ("killed", "timeout")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
