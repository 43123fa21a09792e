"""Replayable mutants: each entry breaks one line of the package, and the
tests it names must fail.

    python tests/mutants.py [NAME ...]

For each mutant (all, or those named), the runner copies src, tests,
pyproject.toml and README.md (tests/test_cli.py reads it) to a temporary
directory, replaces the entry's snippet, which must occur exactly once in
its file, and runs the named tests there with pytest in a subprocess, under
a timeout, with hypothesis's seed fixed and its explain phase off (the
`mutants` profile in tests/conftest.py: explaining a failure can outlast the
timeout).  It first runs every named test on the unmutated copy, which must
pass.  Then it runs up to os.cpu_count() mutants at a time and prints one
JSON line per mutant, in the list's order, whose status is

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
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120

SBTREE = "src/qrationals/sbtree.py"
QDEFORM = "src/qrationals/qdeform.py"
PACKED = "src/qrationals/packed.py"
CLOSEDFORMS = "src/qrationals/closedforms.py"
DEDEKIND = "src/qrationals/dedekind.py"
EXACT = "src/qrationals/exact.py"
SWEEPS = "src/qrationals/sweeps.py"
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
        "file": PACKED,
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
        "old": "    if a < 0:\n        n0, n1, n2 = -n0, -n1, -n2\n",
        "new": "",
        "tests": [T + "test_jet_walker_matches_polynomial_walker"],
    },
    {
        # digit 0 still meets the guard; a negative window's jets are wrong
        "name": "jet-numerator-digits-1-2-not-negated",
        "file": SBTREE,
        "old": "        n0, n1, n2 = -n0, -n1, -n2\n",
        "new": "        n0 = -n0\n",
        "tests": [T + "test_jet_frames_are_the_series_quotient_of_their_digits",
                  T + "test_jet_walker_matches_polynomial_walker"],
    },
    {
        "name": "jet-t2-without-its-d1-t1-term",
        "file": SBTREE,
        "old": "2 * ((n2 * b - d2 * a) * b - d1 * t1)]",
        "new": "2 * ((n2 * b - d2 * a) * b)]",
        "tests": [T + "test_jet_frames_are_the_series_quotient_of_their_digits",
                  T + "test_jet_walker_matches_polynomial_walker",
                  T + "test_identity_sweep_small_depth"],
    },
    {
        "name": "jet-j2-without-its-factor-2",
        "file": SBTREE,
        "old": "2 * ((n2 * b - d2 * a) * b - d1 * t1)]",
        "new": "((n2 * b - d2 * a) * b - d1 * t1)]",
        "tests": [T + "test_jet_frames_are_the_series_quotient_of_their_digits",
                  T + "test_jet_walker_matches_polynomial_walker",
                  T + "test_identity_sweep_small_depth"],
    },
    {
        "name": "shape-cache-keyed-on-order-alone",
        "file": SBTREE,
        "old": "            key = m, node.path[2 - m:]\n",
        "new": "            key = m\n",
        "tests": [T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "shape-key-one-letter-short",
        "file": SBTREE,
        "old": "node.path[2 - m:]",
        "new": "node.path[3 - m:]",
        "tests": [T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "correction-term-s13-sign-flipped",
        "file": CLOSEDFORMS,
        "old": "    return 6 * b * (b - a) - _s13_cleared(a, b, memo)\n",
        "new": "    return 6 * b * (b - a) + _s13_cleared(a, b, memo)\n",
        "tests": [T + "test_identity_correction_equals_the_literal_form",
                  T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        # the edit of d2-thomae-part-sign-flipped: the lineage side sees it too
        "name": "correction-term-thomae-part-sign-flipped",
        "file": CLOSEDFORMS,
        "old": "    return 6 * b * (b - a) - _s13_cleared(a, b, memo)\n",
        "new": "    return 6 * b * (a - b) - _s13_cleared(a, b, memo)\n",
        "tests": [T + "test_identity_correction_equals_the_literal_form",
                  T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        # the sweep builds the correction only for a failing record
        "name": "correction-lcm-replaced-by-last-denominator",
        "file": SBTREE,
        "old": "        return sum(c) - L, 2\n"
               "    B = math.lcm(*(x.denominator for x in values))\n",
        "new": "        return sum(c) - L, 2\n    B = values[-1].denominator\n",
        "tests": [T + "test_identity_correction_equals_the_literal_form",
                  T + "test_identity_sweep_reports_unscaled_failures",
                  T + "test_identity_sweep_fails_where_a_nodes_jets_are_wrong"],
    },
    {
        # the sweep builds the correction only for a failing record
        "name": "correction-term-scaled-over-the-numerator",
        "file": SBTREE,
        "old": " * (B // x.denominator)",
        "new": " * (B // x.numerator)",
        "tests": [T + "test_identity_correction_equals_the_literal_form",
                  T + "test_identity_delta_and_derivative_forms_differ_at_order5",
                  T + "test_identity_sweep_reports_unscaled_failures"],
    },
    {
        "name": "lagrange-lcm-over-the-numerators",
        "file": SBTREE,
        "old": "    L = math.lcm(*(ci.denominator for ci in C))\n",
        "new": "    L = math.lcm(*(ci.numerator for ci in C))\n",
        # not the identity sweep: every order-4 and order-5 lineage's C_i are
        # integers, so L = 1 and the lcm over the numerators scales c and L alike
        "tests": [T + "test_lagrange_coefficients_with_a_common_denominator",
                  T + "test_moment_identities_hold_for_any_weights"],
    },
    {
        "name": "identity-e4-without-its-plus-one",
        "file": SBTREE,
        "old": "    frame.e = 2 * j1 + 1, e5\n",
        "new": "    frame.e = 2 * j1, e5\n",
        "tests": [T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "identity-e5-with-6-in-place-of-6b",
        "file": SBTREE,
        "old": "    jets, term = 6 * frame.b * j2, _term(frame.a, frame.b, memo)\n",
        "new": "    jets, term = 6 * j2, _term(frame.a, frame.b, memo)\n",
        "tests": [T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "identity-e5-read-from-j1",
        "file": SBTREE,
        "old": "    jets, term = 6 * frame.b * j2, _term(frame.a, frame.b, memo)\n",
        "new": "    jets, term = 6 * frame.b * j1, _term(frame.a, frame.b, memo)\n",
        "tests": [T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "identity-e5-stored-undivided",
        "file": SBTREE,
        "old": "    frame.e = 2 * j1 + 1, e5\n",
        "new": "    frame.e = 2 * j1 + 1, jets - term\n",
        "tests": [T + "test_identity_values_are_the_literal_sides",
                  T + "test_identity_sweep_small_depth",
                  T + "test_identity_sweep_matches_the_per_lineage_sweep"],
    },
    {
        "name": "identity-e5-division-remainder-ignored",
        "file": SBTREE,
        "old": "    if rem:\n        raise ArithmeticError(",
        "new": "    if False:\n        raise ArithmeticError(",
        "tests": [T + "test_identity_sweep_raises_where_b_does_not_divide_e5",
                  "tests/test_cli.py::test_check_delta_fails_where_b_does_not_divide_e5"],
    },
    {
        # both branches pick member 2, so member 1 becomes a copy of it; not
        # the walker/lineage_extract comparison, nor the per-lineage oracle
        # sweep: both sides read member 1 through _member_one
        "name": "lineage-member-1-read-as-the-wrong-parent",
        "file": SBTREE,
        "old": "return (third.hi if third.lo == first else third.lo), first",
        "new": "return (third.lo if third.lo == first else third.hi), first",
        "tests": [T + "test_member_1_is_member_3s_other_stern_brocot_parent",
                  T + "test_lineage_json_shape",
                  T + "test_lineage_order4_fixtures",
                  T + "test_identity_sweep_small_depth"],
    },
    {
        # not the identity sweep: the weights at q = 1 are symmetric in the
        # two parents; nor the walker/lineage_extract comparison (both swap)
        "name": "mediant-parents-lo-hi-swapped",
        "file": SBTREE,
        "old": "stack[lo].b + stack[hi].b, lo, hi)",
        "new": "stack[lo].b + stack[hi].b, hi, lo)",
        "tests": [T + "test_walk_yields_each_node_once_in_increasing_value",
                  T + "test_walker_matches_deform_and_build_qtree",
                  T + "test_walker_lineage_weights_rebuild_members_by_products",
                  T + "test_shape_key_gives_the_parent_pattern"],
    },
    {
        # the (1 + q)-weighted mediant L + q·R at every node
        "name": "mediant-xi-fixed-at-1",
        "file": SBTREE,
        "old": "    frame.xi = xi = _degree_gap(deg_l, deg_r)\n",
        "new": "    frame.xi = xi = 1\n",
        "tests": [T + "test_packed_walker_matches_deform",
                  T + "test_jet_walker_matches_polynomial_walker",
                  T + "test_identity_sweep_small_depth"],
    },
    {
        "name": "jet-digit-0-guard-deleted",
        "file": SBTREE,
        "old": "    if n0 != a or b != frame.b:\n",
        "new": "    if False:\n",
        "tests": [T + "test_identity_sweep_rejects_a_node_that_is_not_its_parents_mediant"],
    },
    {
        "name": "run-length-jump-off-by-one",
        "file": SBTREE,
        "old": "        k = min(u - (i == 0), top - d)",
        "new": "        k = min(u, top - d)",
        # not the order-4 fixtures: each stops its descent within the first run
        "tests": [T + "test_lineage_extract_matches_the_farey_step_search",
                  T + "test_lineage_order2"],
    },
    {
        # m ≥ 3 still finds member 1 among member 2's interval ends; at m = 2
        # the target's deeper parent is not on the stack
        "name": "lineage-extract-from-member-2s-own-depth",
        "file": SBTREE,
        "old": "    top = max(depth - m + 1, 0)  # the first node built\n",
        "new": "    top = depth - m + 2  # the first node built\n",
        "tests": [T + "test_lineages_off_the_walker_match_lineage_extract",
                  T + "test_lineage_order2",
                  T + "test_lineage_extract_matches_the_farey_step_search",
                  T + "test_lineage_extract_checks_members_1_and_2_as_built"],
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
        "name": "equivalence-record-sides-swapped",
        "file": SBTREE,
        "old": "            bad.append((frame.value, unpack((num, den)), unpack(cfrac)))\n",
        "new": "            bad.append((frame.value, unpack(cfrac), unpack((num, den))))\n",
        "tests": ["tests/test_cli.py::test_check_equivalence_fail_names_the_node_and_both_polynomials",
                  "tests/test_cli.py::test_check_equivalence_fail_names_a_node_that_one_side_lacks"],
    },
    {
        "name": "negative-numerator-not-negated-back",
        "file": PACKED,
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
        "file": PACKED,
        "old": "        words = map(itemgetter(0), struct.iter_unpack(f\"{w}s\", buf))\n",
        "new": "        words = reversed([*map(itemgetter(0),"
               " struct.iter_unpack(f\"{w}s\", buf))])\n",
        "tests": [Q + "test_unpack_splits_wide_words_literally",
                  Q + "test_packed_tower_pinned_wide_cases"],
    },
    {
        "name": "wide-unpack-words-read-big-endian",
        "file": PACKED,
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
        # the empty tower as N/D = 1/1 in place of 1/0
        "name": "tower-started-at-1-1",
        "file": QDEFORM,
        "old": "    N, D = 1, 0\n    for i in range(len(terms) - 1, -1, -1):\n",
        "new": "    N, D = 1, 1\n    for i in range(len(terms) - 1, -1, -1):\n",
        "tests": [Q + "test_packed_tower_matches_intpoly_tower",
                  Q + "test_deform_pinned_pairs",
                  T + "test_packed_walker_matches_deform"],
    },
    {
        # the steps applied from a_0 down instead of from the last term up
        "name": "tower-folded-top-down",
        "file": QDEFORM,
        "old": "    for i in range(len(terms) - 1, -1, -1):\n        N, D = _step(",
        "new": "    for i in range(len(terms)):\n        N, D = _step(",
        "tests": [Q + "test_packed_tower_matches_intpoly_tower",
                  Q + "test_deform_pinned_pairs",
                  T + "test_packed_walker_matches_deform"],
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
        # not s_sum's (1, 3) path, which reduces a mod b before the descent
        "name": "s13-a-not-reduced-mod-b",
        "file": DEDEKIND,
        "old": "    a, b = a // g % top, top\n",
        "new": "    a, b = a // g, top\n",
        "tests": [D + "test_s13_cleared_is_the_literal_sum",
                  C + "test_closed_forms_equal_their_literal_form"],
    },
    {
        "name": "s13-memo-entry-stored-under-b-a",
        "file": DEDEKIND,
        "old": "            memo[a, b] = u\n",
        "new": "            memo[b, a] = u\n",
        "tests": [D + "test_s13_cleared_with_a_memo_is_the_descent",
                  T + "test_identity_frames_fold_one_reciprocity_step_per_node"],
    },
    {
        "name": "s13-descent-b-squared-u-sign-flipped",
        "file": DEDEKIND,
        "old": "- b * b * u, a * a)",
        "new": "+ b * b * u, a * a)",
        "tests": [D + "test_s13_cleared_is_the_literal_sum",
                  D + "test_s13_descent_matches_literal_sum",
                  T + "test_identity_values_are_the_literal_sides",
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
        "old": "[c * b ** k for k, c in enumerate(row)]",
        "new": "[c * b ** (i - k) for k, c in enumerate(row)]",
        "tests": [D + "test_bernoulli_poly_is_the_literal_polynomial",
                  D + "test_bernoulli_poly_fixtures",
                  D + "test_s_sum_matches_literal_sum"],
    },
    {
        "name": "bernoulli-row-without-binomial",
        "file": DEDEKIND,
        "old": "tuple(math.comb(i, k) * t.numerator * (d // t.denominator)",
        "new": "tuple(t.numerator * (d // t.denominator)",
        "tests": [D + "test_bernoulli_poly_is_the_literal_polynomial",
                  D + "test_bernoulli_poly_fixtures",
                  D + "test_s_sum_matches_literal_sum"],
    },
    {
        "name": "h-completion-also-at-index-one",
        "file": DEDEKIND,
        "old": "s_sum(i, j, a, b) if i == 1 or j == 1 else _s_inclusive",
        "new": "s_sum(i, j, a, b) if False else _s_inclusive",
        "tests": [D + "test_h_fixtures",
                  D + "test_reciprocity_residual_is_the_literal_formula",
                  D + "test_battery_rows_are_the_literal_identities"],
    },
    {
        "name": "h-sign-from-i-alone",
        "file": DEDEKIND,
        "old": "return (-1) ** (i + j) * s /",
        "new": "return (-1) ** i * s /",
        # not the battery: (−1)^i and (−1)^{i+j} differ by (−1)^j, which is
        # common to both sides of each of its h rows
        "tests": [D + "test_h_fixtures",
                  D + "test_reciprocity_residual_is_the_literal_formula"],
    },
    {
        "name": "reciprocity-halves-sign-swapped",
        "file": DEDEKIND,
        "old": "return half(j, i, q, p) - half(i, j, p, q) -",
        "new": "return half(i, j, p, q) - half(j, i, q, p) -",
        "tests": [D + "test_reciprocity_fixtures",
                  D + "test_reciprocity_sweep_is_empty",
                  D + "test_reciprocity_residual_is_the_literal_formula"],
    },
    {
        "name": "battery-shift-row-against-minus-p",
        "file": DEDEKIND,
        "old": "add(\"shift\", (i, j, p, q), h_val(i, j, p + q, q) - h)",
        "new": "add(\"shift\", (i, j, p, q), h_val(i, j, -p, q) - h)",
        "tests": [D + "test_check_identities_shape_and_success",
                  D + "test_battery_sweep_is_empty",
                  D + "test_battery_rows_are_the_literal_identities"],
    },
    {
        # s_sum's a read modulo b − 1: values in [0, b − 1), so no recursion
        "name": "s-sum-a-reduced-by-the-wrong-modulus",
        "file": DEDEKIND,
        "old": "        return s_sum(i, j, a % b, b)\n",
        "new": "        return s_sum(i, j, a % (b - 1), b)\n",
        "tests": [D + "test_s_sum_matches_literal_sum",
                  D + "test_s_sum_runs_one_loop_per_residue"],
    },
    {
        "name": "bernoulli-bound-one-too-high",
        "file": DEDEKIND,
        "old": "    if i > BERNOULLI_BOUND:\n",
        "new": "    if i > BERNOULLI_BOUND + 1:\n",
        "tests": [D + "test_bernoulli_number_takes_indices_0_to_the_bound",
                  D + "test_bernoulli_poly_fixtures"],
    },
    {
        "name": "bridges-fail-line-sides-swapped",
        "file": SWEEPS,
        "old": "f\"lhs {rat_to_str(lhs)}\",\n                         f\"rhs {rat_to_str(rhs)}\")",
        "new": "f\"lhs {rat_to_str(rhs)}\",\n                         f\"rhs {rat_to_str(lhs)}\")",
        "tests": ["tests/test_cli.py::test_check_bridges_fail_names_the_bridge_and_both_sides"],
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
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(REPO / name, dest)


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
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for record in pool.map(_run_mutant, chosen):
            print(json.dumps(record), flush=True)
            ok &= record["status"] in ("killed", "timeout")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
