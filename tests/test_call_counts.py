"""``tools/call_counts.py`` on this checkout's seed-1 small campaign."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import call_counts  # noqa: E402


def test_seed_1_small_campaign_counts():
    checks, calls = call_counts.counts(ROOT)
    assert checks == 2544
    # one stack per (suite, dim), its three windows mixed: 13 suites x 4
    # dims, plus a second d = 6 stack for corollary_2_2's 180 instances (a
    # d = 6 stack holds 113); each stack is placed in one call, a relative
    # pair's A and C together
    assert calls["generator stack draws"] == calls["generators._place_in_window"] == 53
    # every operand decomposed once, every chain's links in one eigvalsh
    assert calls["np.linalg.eigh"] == 1446
    assert calls["np.linalg.eigvalsh"] == 2626
    # a generated map is certified with its stack, never alone: once per
    # map stack, one for each of the 5 suites with maps x 4 dims
    assert calls["map normalization (one map)"] == 0
    assert calls["map normalization (one stack)"] == 20
    # links and certificates are built without a LoewnerVerdict, and the
    # checks' stacks without np.stack
    assert calls["LoewnerVerdict"] == 0
    assert calls["np.stack"] < checks / 10
    # every stack's generators are seeded in one pass, 53 pair and family
    # stacks and 16 map stacks (4 suites with maps beside their pairs x 4
    # dims); no stack holds fewer than two seeds, so none is seeded alone
    assert calls["seedings (one seed)"] == 0
    assert calls["seedings (one stack)"] == 69
    # 368 scans; each reads t^q on the grid from a cache of the last four
    # (window, q) scanned, so the grid powers are evaluated 101 times in
    # the campaign's order of scans, and g on nothing else
    assert calls["oracle scans"] == 368
    assert calls["oracle g on the grid"] == 101
    assert calls["oracle g on the probe"] == 0
    # every K and K2 goes through kantorovich_K2 and every C, C2 and beta
    # through beta_power_closed; the baseline for constants computed ahead
    # of the campaign
    assert calls["constants.kantorovich_K2"] == 594
    assert calls["constants.beta_power_closed"] == 1368


def test_benchmark_shaped_sweep_counts():
    rows, calls = call_counts.sweep_counts(ROOT)
    assert rows == 14400
    # every scan of a window refined in one lockstep pass, and each f's
    # endpoint values made once per window: 40 powers x 2 x 3 windows
    assert calls["constants._golden_max"] == 0
    assert calls["constants._eval_one"] == 240
    # 3 windows x (40 + 40 x 30) chords x (ratio, gap), with each of a
    # window's 40 + 30 powers evaluated on the grid once
    assert calls["oracle scans"] == 7440
    assert calls["oracle g on the grid"] == 210
    assert calls["oracle g on the probe"] == 0
