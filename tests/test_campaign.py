import collections
import csv
import dataclasses
import gc
import hashlib
import inspect
import itertools
import json
import sys
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from kantcheck import campaign, constants, generators, hunt, verifiers
from kantcheck.campaign import (
    ALL_SUITES,
    SUITES,
    Block,
    CampaignConfig,
    CampaignSummary,
    OracleScans,
    SuiteStats,
    enumerate_cells,
    load_config,
    run_campaign,
    run_cell,
    summarize_report_file,
    validate_config,
)
from kantcheck.cli import main as cli_main
from kantcheck.constants import (
    alpha_ratio,
    beta_generic,
    chord_coefficients,
    grid_max_1d,
    kantorovich_K2,
    power_fun,
)
from kantcheck.errors import ConfigError, DomainError, GenerationError, ParameterError
from kantcheck.generators import POSITIVITY_MARGIN_FACTOR, gen_weighted_family
from kantcheck.hermitian import SpectralWindow, loewner_leq, matrix_power
from kantcheck.hunt import hunt_sharpness
from kantcheck.sweep import sweep_constants
from kantcheck.verifiers import check_theorem_4_1


def read_bytes_tree(out_dir):
    out = Path(out_dir)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


def assert_matches_recorded_digests(out_dir, record):
    """Every file under ``out_dir``, and no other, has the SHA-256 digest
    recorded for its path in ``tests/data/<record>`` (``sha256sum`` format)."""
    recorded = (Path(__file__).parent / "data" / record).read_text()
    expected = {path: digest for digest, path in
                (line.split("  ") for line in recorded.splitlines())}
    written = {path.replace("\\", "/"): hashlib.sha256(data).hexdigest()
               for path, data in read_bytes_tree(out_dir).items()}
    assert written == expected


def test_oracle_scans_are_the_fresh_public_scans_bit_for_bit():
    w = SpectralWindow(1.0, 2.0)
    inputs = [(-1.0, -0.5), (-2.0, -0.5), (-1.0, -0.25), (-3.0, -0.25), (-2.0, -0.5)]
    fresh = [(alpha_ratio(power_fun(p), power_fun(q), w).value,
              beta_generic(power_fun(p), power_fun(q), 2.0, w).value) for p, q in inputs]
    scans = OracleScans()
    got = [(scans.ratio(w, p, q), scans.gap(w, p, q, 2.0)) for p, q in inputs]
    assert np.array(got).tobytes() == np.array(fresh).tobytes()


EXPONENT_GRIDS = ["p_grid", "q_grid", "r_grid", "alpha_grid", "p_grid_theorem_1_1"]


class TestConfig:
    def test_defaults_are_valid(self):
        validate_config(CampaignConfig())

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            validate_config(CampaignConfig(suites=["theorem_9_9"]))

    def test_a_suite_listed_twice(self):
        with pytest.raises(ConfigError, match="^suite 'corollary_2_3' is listed twice$"):
            validate_config(CampaignConfig(suites=["corollary_2_3", "lemma_3_1",
                                                   "corollary_2_3"]))

    def test_regime_violations_name_the_cell(self):
        with pytest.raises(ConfigError, match="q=-2.0"):
            validate_config(CampaignConfig(q_grid=[-2.0]))
        with pytest.raises(ConfigError, match="p=-0.01"):
            validate_config(CampaignConfig(p_grid=[-0.01]))
        with pytest.raises(ConfigError, match="alpha=-1.0"):
            validate_config(CampaignConfig(alpha_grid=[-1.0]))
        with pytest.raises(ConfigError, match=r"window \(2.0, 1.0\)"):
            validate_config(CampaignConfig(windows=[(2.0, 1.0)]))
        with pytest.raises(ConfigError, match="samples_per_cell"):
            validate_config(CampaignConfig(samples_per_cell=0))

    def test_negative_base_seed(self):
        with pytest.raises(ConfigError, match="base_seed must be >= 0, got -1"):
            validate_config(CampaignConfig(base_seed=-1))

    def test_fuzz_samples_and_dim_bounds(self):
        with pytest.raises(ConfigError, match="fuzz_samples must be >= 1, got -5"):
            validate_config(CampaignConfig(fuzz_samples=-5))
        with pytest.raises(ConfigError, match=r"dim 65 outside \[1, 64\]"):
            validate_config(CampaignConfig(dims=[65]))

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(ConfigError, match="windows must be a list of finite"):
            validate_config(CampaignConfig(windows=[(1, 10 ** 400)]))

    @pytest.mark.parametrize("fields, named", [
        ({"windows": [(0.001, 1.0)], "p_grid": [-400.0]}, r"window \(0.001, 1.0\): p=-400.0 "),
        ({"windows": [(1e-310, 1.0)], "p_grid": [-0.5], "q_grid": [-1.0]}, r"window \(1e-310, 1.0\): q=-1.0 "),
        ({"windows": [(0.01, 1.0)], "p_grid": [-153.9], "r_grid": [-1.0]}, r"p \+ r=-154.9 "),
        ({"windows": [(1.0, 10.0)], "p_grid_theorem_1_1": [400.0]}, r"theorem_1_1 p=400.0 "),
    ])
    def test_overflowing_power_names_window_and_exponent(self, fields, named):
        with pytest.raises(ConfigError, match=named + "overflows"):
            validate_config(CampaignConfig(**fields))

    def test_underflowing_power_names_window_and_exponent(self):
        # a positive exponent underflows on a tiny m
        with pytest.raises(ConfigError, match=r"window \(1e-200, 1.0\): theorem_1_1 p=2.0 "
                                              r"underflows 1e-200\*\*2.0 to 0.0"):
            validate_config(CampaignConfig(windows=[(1e-200, 1.0)], p_grid=[-0.5],
                                           p_grid_theorem_1_1=[2.0]))

    @pytest.mark.parametrize("window, named", [
        # 1e-14 wide; 2 delta = 2 * 8 * 6 eps at m = 1 is 2.13e-14
        ((1.0, 1.00000000000001), r"M - m must exceed 2\.13\d*e-14$"),
        # wide enough for [m, M] (2 delta = 2.13e-12), not for [log m, log M]
        ((100.0, 100.0 + 5e-12), r"log M - log m must exceed 9\.8\d*e-14$"),
    ])
    def test_a_window_narrower_than_the_placement_margin(self, window, named):
        with pytest.raises(ConfigError, match=rf"^window \({window[0]}, {window[1]}\) is too "
                                              rf"narrow to place a spectrum at dim 6: {named}"):
            validate_config(CampaignConfig(windows=[window], dims=[2, 6]))

    @pytest.mark.parametrize("window, generate", [
        ((1.0, 1.00000000000001), generators.gen_dominated_pair),
        # the chaotic pair places log B first, in [log m, log M]
        ((100.0, 100.0 + 5e-12), generators.gen_chaotic_pair),
    ])
    def test_the_placement_limit_is_twice_the_generators_first_margin(self, monkeypatch,
                                                                      window, generate):
        real, first_margins = generators._placement_margin, []

        def spy(lo, hi, dim):
            margin = real(lo, hi, dim)
            first_margins.append(float(margin[0]))
            return margin

        monkeypatch.setattr(generators, "_placement_margin", spy)
        with pytest.raises(GenerationError, match="could not place a spectrum"):
            generate(6, SpectralWindow(*window), 1)
        with pytest.raises(ConfigError) as raised:
            validate_config(CampaignConfig(windows=[window], dims=[2, 6]))
        assert str(raised.value).endswith(f" must exceed {2.0 * first_margins[0]!r}")

    def test_a_window_just_above_the_placement_margin_runs_every_suite(self, tmp_path):
        # 2.01 delta at d = 64 and m = 1, where the log window's limit is the same
        upper = 1.0 + 2.01 * 8 * 64 * sys.float_info.epsilon
        cfg = CampaignConfig(windows=[(1.0, upper)], dims=[64], p_grid=[-1.0], q_grid=[-0.5],
                             r_grid=[-0.5], alpha_grid=[1.0], p_grid_theorem_1_1=[2.0],
                             samples_per_cell=1, output_dir=str(tmp_path / "narrow"))
        summary = run_campaign(cfg)
        assert list(summary.suites) == ALL_SUITES and summary.exit_code == 0
        assert all(stats.checks >= 1 for stats in summary.suites.values())

    @pytest.mark.parametrize("field", EXPONENT_GRIDS)
    def test_an_empty_grid_is_rejected_before_anything_is_written(self, tmp_path, field):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"^{field} must be nonempty$"):
            run_campaign(CampaignConfig(**{field: []}, output_dir=str(out)))
        assert not out.exists()

    def test_load_config_round_trip(self, tmp_path):
        cfg = CampaignConfig(suites=["corollary_2_3"], samples_per_cell=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.semantic_dict()))
        loaded = load_config(path)
        assert loaded.suites == ["corollary_2_3"]
        assert loaded.samples_per_cell == 3
        assert loaded.config_hash() == cfg.config_hash()

    def test_load_config_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"sample_count": 3}')
        with pytest.raises(ConfigError, match="unknown config fields"):
            load_config(path)

    def test_hash_ignores_output_dir(self):
        a = CampaignConfig(output_dir="x")
        b = CampaignConfig(output_dir="y")
        assert a.config_hash() == b.config_hash()


class TestEnumeration:
    def test_default_cell_counts(self):
        cells = enumerate_cells(CampaignConfig())
        by_suite = {}
        for cell in cells:
            by_suite[cell.suite] = by_suite.get(cell.suite, 0) + 1
        assert by_suite == {
            "theorem_1_1": 9, "theorem_2_1": 60, "corollary_2_2": 180,
            "corollary_2_3": 60, "corollary_2_4": 60, "lemma_3_1": 45,
            "corollary_3_2": 45, "corollary_3_3": 45, "theorem_4_1": 60,
            "theorem_4_2": 15, "corollary_4_3": 15, "corollary_4_4": 30,
            "theorem_4_5": 12,
        }
        assert [c.global_index for c in cells] == list(range(len(cells)))


class TestRunCampaign:
    def test_small_run_zero_failures(self, small_config):
        summary = run_campaign(small_config)
        assert summary.total_failures == 0
        assert summary.total_checks > 0
        assert set(summary.suites) == set(ALL_SUITES)
        assert summary.exit_code == 0
        assert summary.max_constant_deviation < 1e-9

    def test_outputs_exist_and_are_complete(self, small_config):
        run_campaign(small_config)
        out = Path(small_config.output_dir)
        assert (out / "summary.csv").exists()
        with open(out / "summary.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["theorem_id"] for r in rows] == list(ALL_SUITES)
        for suite in ALL_SUITES:
            report = out / "reports" / f"{suite}.jsonl"
            lines = report.read_text().splitlines()
            header = json.loads(lines[0])
            assert header["suite"] == suite
            assert header["base_seed"] == small_config.base_seed
            assert header["config_hash"] == small_config.config_hash()
            body = [json.loads(line) for line in lines[1:]]
            assert all(rec["overall"] for rec in body)
            assert all(rec["theorem_id"] == suite for rec in body)

    def test_deterministic_reports(self, small_config, tmp_path):
        run_campaign(small_config)
        second = CampaignConfig(**{**small_config.__dict__,
                                   "output_dir": str(tmp_path / "again")})
        run_campaign(second)
        assert read_bytes_tree(small_config.output_dir) == read_bytes_tree(second.output_dir)

    def test_reports_match_recorded_digests(self, small_config):
        """Every file the small config writes is byte-identical to the run
        recorded in ``tests/data/small_config_digests.txt`` (``sha256sum``
        format), so a refactor that changes report bytes fails here.  The
        record was last rewritten when window placements started nudging
        their endpoint targets inside the window."""
        run_campaign(small_config)
        assert_matches_recorded_digests(small_config.output_dir, "small_config_digests.txt")

    def test_phi_reports_at_large_dim_match_recorded_digests(self, tmp_path):
        """The five Phi suites write at d = 16 and 64 exactly the files
        recorded in ``tests/data/phi_large_dim_digests.txt``, so stacked map
        products are pinned where BLAS blocks them.  The record was made from
        a checkout's ``src`` with

            cd "$(mktemp -d)" && PYTHONPATH=<checkout>/src OPENBLAS_NUM_THREADS=1 python3 -c '
            from kantcheck.campaign import CampaignConfig, run_campaign
            run_campaign(CampaignConfig(suites=["theorem_4_1", "theorem_4_2", "corollary_4_3",
                "corollary_4_4", "theorem_4_5"], dims=[16, 64], windows=[(1.0, 2.0), (0.5, 4.0)],
                p_grid=[-1.0], q_grid=[-0.5], samples_per_cell=2, output_dir="out"))'
            cd out && find . -type f | sort | sed 's|^\\./||' | xargs sha256sum
        """
        cfg = CampaignConfig(suites=["theorem_4_1", "theorem_4_2", "corollary_4_3",
                                     "corollary_4_4", "theorem_4_5"],
                             dims=[16, 64], windows=[(1.0, 2.0), (0.5, 4.0)], p_grid=[-1.0],
                             q_grid=[-0.5], samples_per_cell=2, output_dir=str(tmp_path / "out"))
        assert run_campaign(cfg).total_checks == 24
        assert_matches_recorded_digests(cfg.output_dir, "phi_large_dim_digests.txt")

    def test_replay_from_report_header(self, small_config, tmp_path):
        run_campaign(small_config)
        header_line = (Path(small_config.output_dir) / "reports" /
                       "corollary_2_3.jsonl").read_text().splitlines()[0]
        header = json.loads(header_line)
        replay_cfg = dataclasses.replace(CampaignConfig.from_dict(header["config"]),
                                         output_dir=str(tmp_path / "replay"))
        run_campaign(replay_cfg)
        assert read_bytes_tree(small_config.output_dir) == read_bytes_tree(replay_cfg.output_dir)

    def test_empty_suites_is_a_config_error(self, tmp_path):
        """A campaign of no suites would pass with no check made."""
        out = tmp_path / "empty"
        with pytest.raises(ConfigError, match="^suites must be nonempty$"):
            run_campaign(CampaignConfig(suites=[], output_dir=str(out)))
        assert not out.exists()

    def test_exit_code_reflects_failures(self):
        stats = {"x": SuiteStats(suite="x", checks=3, passed=2, failed=1)}
        summary = CampaignSummary(suites=stats, config_hash="", output_dir="", wall_seconds=0.0)
        assert summary.exit_code == 1

    @pytest.mark.parametrize("suite", ["theorem_2_1", "theorem_4_1", "theorem_4_2"])
    def test_gap_oracle_runs_once_per_cell(self, monkeypatch, suite):
        calls = []

        # the campaign scans t^p against t^q by ``_power_gap``, a check that
        # makes its own beta by ``beta_generic``
        for module, name in ((campaign, "_power_gap"), (verifiers, "beta_generic")):
            real = getattr(constants, name)

            def counted(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cfg = CampaignConfig(suites=[suite], dims=[2, 3], windows=[(1.0, 2.0)],
                             p_grid=[-1.0], q_grid=[-0.5], samples_per_cell=4)
        (cell,) = enumerate_cells(cfg)
        reports, _ = run_cell(cfg, cell, Block(cfg, [cell], OracleScans()))
        assert len(reports) == 4 and all(report.overall for report in reports)
        assert len(calls) == 1

    def test_tight_gap_oracles_scan_once_per_window_p_q(self, monkeypatch, tmp_path):
        """theorem_2_1 and theorem_4_1 share each cell's alpha and beta; a run
        scans them once, and a second run scans them again."""
        calls = []
        for name in ("_power_ratio", "_power_gap"):
            real = getattr(constants, name)

            def counted(w, p, q, *args, name=name, real=real):
                calls.append((name, w, p, q))
                return real(w, p, q, *args)

            monkeypatch.setattr(campaign, name, counted)
        cfg = CampaignConfig(suites=["theorem_2_1", "theorem_4_1"], dims=[2],
                             windows=[(1.0, 2.0), (0.5, 4.0)], p_grid=[-1.0, -2.0],
                             q_grid=[-0.5, -1.0], samples_per_cell=1,
                             output_dir=str(tmp_path / "gap"))
        assert run_campaign(cfg).total_failures == 0
        per_kind = len(cfg.windows) * len(cfg.p_grid) * len(cfg.q_grid)
        assert len(calls) == len(set(calls)) == 2 * per_kind
        run_campaign(cfg)
        assert len(calls) == 4 * per_kind

    @pytest.mark.parametrize("suite", ["theorem_1_1", "corollary_2_3", "lemma_3_1",
                                       "corollary_4_3"])
    def test_generation_stacks_stay_within_the_element_budget(self, monkeypatch, suite):
        eigh = np.linalg.eigh
        shapes = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(np.shape(a)) or eigh(a))
        grid = dict(suites=[suite], windows=[(1.0, 2.0)], q_grid=[-0.5], r_grid=[-0.5],
                    p_grid_theorem_1_1=[2.0, 3.0])
        # a relative pair places its A and its C in one window test
        placed = 2 if suite == "corollary_4_3" else 1
        cfg = CampaignConfig(dims=[64], p_grid=[-1.0], samples_per_cell=2, **grid)
        cell = enumerate_cells(cfg)[0]
        reports, _ = run_cell(cfg, cell, Block(cfg, [cell], OracleScans()))
        assert len(reports) == 2 and all(report.overall for report in reports)
        assert shapes and all(len(shape) == 2 or shape[0] <= placed for shape in shapes)
        shapes.clear()
        cfg = CampaignConfig(dims=[2], p_grid=[-1.0, -0.5], samples_per_cell=3, **grid)
        cells = enumerate_cells(cfg)
        block = Block(cfg, cells, OracleScans())
        assert [len(run_cell(cfg, cell, block)[0]) for cell in cells] == [3, 3]
        # one window test for all six samples of the block's two cells
        assert max(shape[0] for shape in shapes if len(shape) == 3) == 6 * placed

    def test_each_block_builds_at_most_one_scan_arena(self, small_config):
        """A block holds all of a suite's cells, but its cells run window by
        window, and the scans of one window's cells share its scan arena: a
        run misses the arena's cache at most once per (suite, window) run
        of cells."""
        blocks = len(list(itertools.groupby(enumerate_cells(small_config),
                                            key=lambda c: (c.suite, c.params["window"]))))
        constants._scan_arena.cache_clear()
        run_campaign(small_config)
        assert 0 < constants._scan_arena.cache_info().misses <= blocks

    def test_a_checked_block_is_freed_without_the_cycle_collector(self):
        """A block's streams hold no reference back to the block, so a run
        frees each block's instances as soon as it moves on to the next."""
        cfg = CampaignConfig(suites=["corollary_2_3"], dims=[2, 3], windows=[(1.0, 2.0)],
                             p_grid=[-1.0], q_grid=[-0.5], samples_per_cell=2)
        (cell,) = enumerate_cells(cfg)
        gc.disable()
        try:
            block = Block(cfg, [cell], OracleScans())
            assert len(run_cell(cfg, cell, block)[0]) == 2
            freed = weakref.ref(block)
            del block
            assert freed() is None
        finally:
            gc.enable()

    def test_a_suite_draws_one_stack_per_dim_across_its_windows(self, monkeypatch, tmp_path):
        """A 2-window run of one suite calls its generator once per dim, with
        every cell's seeds of that dim in enumeration order, each with its
        cell's window, and writes the reports of a run that draws one
        instance per call."""
        real = campaign.gen_chaotic_pairs
        calls = []

        def counted(dim, windows, seeds):
            calls.append((dim, [(w.m, w.M) for w in windows], list(seeds)))
            return real(dim, windows, seeds)

        monkeypatch.setattr(campaign, "gen_chaotic_pairs", counted)
        cfg = CampaignConfig(suites=["lemma_3_1"], dims=[2, 3], windows=[(1.0, 2.0), (0.5, 4.0)],
                             p_grid=[-1.0, -0.5], r_grid=[-0.5], samples_per_cell=4,
                             output_dir=str(tmp_path / "stacked"))
        assert run_campaign(cfg).total_failures == 0
        # cells 0-1 are in (1, 2), cells 2-3 in (0.5, 4); seeds 1 + 4 i + j
        windows = [(1.0, 2.0)] * 4 + [(0.5, 4.0)] * 4
        assert calls == [(2, windows, [1, 3, 5, 7, 9, 11, 13, 15]),
                         (3, windows, [2, 4, 6, 8, 10, 12, 14, 16])]
        monkeypatch.setattr(campaign, "gen_chaotic_pairs",
                            lambda dim, windows, seeds: [pair for w, seed in zip(windows, seeds)
                                                         for pair in real(dim, [w], [seed])])
        one_by_one = dataclasses.replace(cfg, output_dir=str(tmp_path / "one_by_one"))
        run_campaign(one_by_one)
        assert read_bytes_tree(cfg.output_dir) == read_bytes_tree(one_by_one.output_dir)

    def test_each_cell_runs_in_its_own_run_cell_call(self, monkeypatch, tmp_path):
        """Blocks share generation, but every cell is still one ``run_cell``
        call taking the cell as its second argument, in enumeration order."""
        seen = []
        real = campaign.run_cell

        def counted(cfg, cell, *rest):
            seen.append(cell.global_index)
            return real(cfg, cell, *rest)

        monkeypatch.setattr(campaign, "run_cell", counted)
        cfg = CampaignConfig(suites=["corollary_2_3", "lemma_3_1"], dims=[2, 3],
                             windows=[(1.0, 2.0), (0.5, 4.0)], p_grid=[-1.0, -0.5],
                             q_grid=[-0.5], r_grid=[-0.5], samples_per_cell=2,
                             output_dir=str(tmp_path / "cells"))
        assert run_campaign(cfg).total_failures == 0
        assert seen == list(range(len(enumerate_cells(cfg))))

    def test_a_raising_check_leaves_the_files_written_before_it_whole(self, monkeypatch,
                                                                      tmp_path):
        """A check that raises in the second suite's second cell ends the run
        with its error; the first suite's file is whole (header and every
        report) and the second's holds its header and first cell, each
        byte for byte as in a clean run."""
        cfg = CampaignConfig(suites=["corollary_2_3", "lemma_3_1"], dims=[2, 3],
                             windows=[(1.0, 2.0)], p_grid=[-1.0, -0.5], q_grid=[-0.5],
                             r_grid=[-0.5], samples_per_cell=2,
                             output_dir=str(tmp_path / "clean"))
        run_campaign(cfg)
        clean = read_bytes_tree(cfg.output_dir)
        real = verifiers.check_lemma_3_1_forward
        error = RuntimeError("check failed")
        calls = []

        def raising(*args, **kwargs):
            calls.append(args)
            if len(calls) > cfg.samples_per_cell:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(verifiers, "check_lemma_3_1_forward", raising)
        cfg.output_dir = str(tmp_path / "broken")
        with pytest.raises(RuntimeError) as info:
            run_campaign(cfg)
        assert info.value is error
        written = read_bytes_tree(cfg.output_dir)
        assert set(written) == {"reports/corollary_2_3.jsonl", "reports/lemma_3_1.jsonl"}
        first = written["reports/corollary_2_3.jsonl"]
        assert first == clean["reports/corollary_2_3.jsonl"]
        assert first.count(b"\n") == 1 + 2 * cfg.samples_per_cell
        second = clean["reports/lemma_3_1.jsonl"].splitlines(keepends=True)
        assert written["reports/lemma_3_1.jsonl"] == b"".join(second[:1 + cfg.samples_per_cell])

    def test_every_report_is_one_unnested_public_check_call(self, monkeypatch, tmp_path):
        """A traced run counts one span per public ``verifiers.check_*`` call
        and sums links from the spans; that agrees with the reports only if
        each report comes from one call and no public check calls another.
        Every check is wrapped in each namespace that binds it, as the
        tracer does."""
        calls = collections.Counter()
        nested = []
        running = []
        links = collections.Counter()

        def wrap(name, fn):
            def wrapped(*args, **kwargs):
                if running:
                    nested.append((running[-1], name))
                running.append(name)
                try:
                    report = fn(*args, **kwargs)
                finally:
                    running.pop()
                calls[name] += 1
                links["links"] += len(report.links)
                links["tight"] += sum(lk.tight for lk in report.links)
                links["failed"] += sum(not lk.holds for lk in report.links)
                return report
            return wrapped

        namespaces = [module for name, module in sys.modules.items()
                      if name == "kantcheck" or name.startswith("kantcheck.")]
        for name, fn in list(vars(verifiers).items()):
            if (name.startswith("check_") and inspect.isfunction(fn)
                    and fn.__module__ == verifiers.__name__):
                wrapper = wrap(name, fn)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            monkeypatch.setattr(namespace, attr, wrapper)
        cfg = CampaignConfig(dims=[2, 3], samples_per_cell=2, output_dir=str(tmp_path / "all"))
        summary = run_campaign(cfg)
        assert nested == []
        written = collections.Counter()
        for suite, stats in summary.suites.items():
            lines = (Path(cfg.output_dir) / "reports" / f"{suite}.jsonl").read_text().splitlines()
            assert calls[SUITES[suite].check] == stats.checks == len(lines) - 1
            for record in map(json.loads, lines[1:]):
                written["links"] += len(record["links"])
                written["tight"] += sum(lk["tight"] for lk in record["links"])
                written["failed"] += sum(not lk["holds"] for lk in record["links"])
        assert sum(calls.values()) == summary.total_checks
        assert links == written
        assert links["tight"] == sum(s.tight_links for s in summary.suites.values())

    @pytest.mark.parametrize("closed_form, suites", [
        ("kantorovich_K2", ["corollary_2_3"]),
        ("kantorovich_K", ["theorem_1_1", "corollary_3_2", "corollary_4_4", "theorem_4_5"]),
        ("kantorovich_C", ["corollary_3_3", "corollary_4_4", "theorem_4_5"]),
        ("kantorovich_C2", ["corollary_2_4"]),
        # corollary_4_3's beta is about 0, so a relative error has no absolute size
        ("beta_power_closed", ["corollary_2_2"]),
    ])
    def test_the_deviation_reads_the_constant_each_check_used(self, monkeypatch, tmp_path,
                                                              closed_form, suites):
        """A closed form scaled by (1 - 1e-6) where the checks call it moves
        the deviation of every suite whose check uses it."""
        real = getattr(verifiers, closed_form)
        monkeypatch.setattr(verifiers, closed_form, lambda *args: real(*args) * (1.0 - 1e-6))
        cfg = CampaignConfig(suites=suites, dims=[2, 3], samples_per_cell=2,
                             output_dir=str(tmp_path / closed_form))
        summary = run_campaign(cfg)
        assert {suite: stats.max_constant_dev > 1e-9
                for suite, stats in summary.suites.items()} == dict.fromkeys(suites, True)

    def test_theorem_4_1_line_regenerates_from_its_seed(self, tmp_path):
        cfg = CampaignConfig(suites=["theorem_4_1"], dims=[2, 3], windows=[(1.0, 2.0)],
                             p_grid=[-1.0], q_grid=[-0.5], samples_per_cell=3, base_seed=5,
                             output_dir=str(tmp_path / "t41"))
        run_campaign(cfg)
        lines = (tmp_path / "t41" / "reports" / "theorem_4_1.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        assert [rec["seed"] for rec in records] == [5, 6, 7]
        w = SpectralWindow(1.0, 2.0)
        for rec in records:
            family = gen_weighted_family(3, rec["dim"], max(1, rec["dim"] - 1), w, rec["seed"])
            assert family.seed == rec["seed"]
            report = check_theorem_4_1(family, power_fun(-1.0), power_fun(-0.5),
                                       rec["params"]["alpha"], cfg.rel_tol)
            assert json.loads(json.dumps(report.to_json_dict())) == rec

    def test_show_summarizes_both_formats(self, small_config):
        run_campaign(small_config)
        out = Path(small_config.output_dir)
        csv_digest = summarize_report_file(out / "summary.csv")
        assert "theorem_id" in csv_digest and "corollary_2_3" in csv_digest
        jsonl_digest = summarize_report_file(out / "reports" / "theorem_4_5.jsonl")
        assert "theorem_4_5" in jsonl_digest and "failed: 0" in jsonl_digest

    def test_show_agrees_with_summary_csv(self, small_config):
        """Each suite's report digest has the checks, passes, failures and
        worst slack of its summary.csv row."""
        run_campaign(small_config)
        out = Path(small_config.output_dir)
        with open(out / "summary.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["theorem_id"] for row in rows] == ALL_SUITES
        for row in rows:
            shown = summarize_report_file(out / "reports" / f"{row['theorem_id']}.jsonl")
            lines = dict(line.split(":", 1) for line in shown.splitlines())
            assert lines["checks"].split() == [row["checks"], "passed:", row["pass_count"],
                                               "failed:", row["fail_count"]]
            assert lines["worst_slack"].strip() == f"{float(row['worst_slack']):.6e}"


class TestSweep:
    def test_row_count_and_accuracy(self, tmp_path):
        windows = [(1.0, 2.0), (0.5, 4.0)]
        p_grid = [-2.0, -1.0]
        q_grid = [-1.0, -0.5, -0.25]
        result = sweep_constants(windows, p_grid, q_grid, tmp_path)
        assert len(result.rows) == len(windows) * len(p_grid) * len(q_grid) * 4
        assert result.max_abs_diff < 1e-6
        with open(result.csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.rows)
        assert set(rows[0]) == {"m", "M", "p", "q", "constant_name",
                                "closed_form", "oracle", "abs_diff"}

    def test_oracle_column_equals_the_public_oracles(self, tmp_path):
        # -1.0 is in both grids: numpy's array ** -1.0 takes a reciprocal
        # path whose last bit can differ from other ways of raising a power.
        # Each value must also equal grid_max_1d on the objective written
        # out, which evaluates chord and g afresh on the grid.
        windows = [(1.0, 2.0), (0.5, 4.0), (0.05, 20.0)]
        result = sweep_constants(windows, [-2.0, -1.0, -0.3], [-1.0, -0.6, -0.05], tmp_path)
        for row in result.rows:
            w = SpectralWindow(row["m"], row["M"])
            name, f = row["constant_name"], power_fun(row["p"])
            g = power_fun(row["p"] if name in ("K", "C") else row["q"])
            chord = chord_coefficients(f, w)
            if name in ("K", "K2"):
                public = alpha_ratio(f, g, w).value
                generic = grid_max_1d(lambda t: chord.at(t) / g(t), w).value
            else:
                public = beta_generic(f, g, 1.0, w).value
                generic = grid_max_1d(lambda t: chord.at(t) - 1.0 * g(t), w).value
            assert row["oracle"] == public == generic, row

    def test_each_power_is_evaluated_on_the_grid_once_per_window(self, tmp_path, monkeypatch):
        dense = []

        def counted_power(e):
            f = power_fun(e)

            def g(t):
                if np.size(t) == constants.GRID_RESOLUTION + 1:
                    dense.append(e)
                return f(t)
            return g

        monkeypatch.setattr("kantcheck.constants.power_fun", counted_power)
        windows, p_grid, q_grid = [(1.0, 2.0), (0.5, 4.0)], [-2.0, -1.0, -0.5], [-1.0, -0.25]
        sweep_constants(windows, p_grid, q_grid, tmp_path)
        assert len(dense) == len(windows) * (len(p_grid) + len(q_grid))

    def test_benchmark_shaped_grid_equals_the_lone_scans_bit_for_bit(self, tmp_path):
        # the benchmark's sweep shape: three windows, 40 p and 30 q from a seed
        rng = np.random.default_rng(17301)
        p_grid = sorted(float(p) for p in rng.uniform(-3.0, -0.05, 40))
        q_grid = sorted(float(q) for q in rng.uniform(-1.0, -0.05, 30))
        windows = [(1.0, 2.0), (0.5, 4.0), (2.0, 3.0)]
        result = sweep_constants(windows, p_grid, q_grid, tmp_path)
        lone = {}
        got, want = [], []
        for row in result.rows:
            name = row["constant_name"]
            e = row["p"] if name in ("K", "C") else row["q"]
            key = (row["m"], row["M"], row["p"], e, name in ("K", "K2"))
            if key not in lone:
                w, f, g = SpectralWindow(row["m"], row["M"]), power_fun(row["p"]), power_fun(e)
                scan = alpha_ratio(f, g, w) if key[-1] else beta_generic(f, g, 1.0, w)
                lone[key] = scan.value
            got.append(row["oracle"])
            want.append(lone[key])
        assert len(lone) == 3 * (40 + 40 * 30) * 2
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_a_failing_window_raises_the_lone_scans_error(self, tmp_path):
        # f(m) = (1e-200)^-3 overflows: the first scan of the window raises
        w = SpectralWindow(1e-200, 1.0)
        with pytest.raises(DomainError) as lone:
            alpha_ratio(power_fun(-3.0), power_fun(-3.0), w)
        assert str(lone.value).startswith("function undefined at t=1e-200: ")
        with pytest.raises(DomainError) as swept:
            sweep_constants([(1e-200, 1.0)], [-3.0, -1.0], [-0.5], tmp_path)
        assert str(swept.value) == str(lone.value)

    @pytest.mark.parametrize("windows, q, error", [
        # f(m) = (1e-200)^-3 overflows in the second window's scans
        ([(1.0, 2.0), (1e-200, 1.0)], -0.5, DomainError),
        # the scans pass, and C2 rejects q > 0 as the file is written
        ([(1.0, 2.0)], 0.5, ParameterError),
    ], ids=["window", "closed_form"])
    def test_a_failing_sweep_leaves_no_file(self, tmp_path, windows, q, error):
        with pytest.raises(error):
            sweep_constants(windows, [-3.0], [q], tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("windows, p_grid, q_grid, field", [
        ([(1.0, 2.0)], [], [-0.5], "p_grid"),
        ([(1.0, 2.0)], [-1.0], [], "q_grid"),
        ([], [-1.0], [-0.5], "windows"),
    ], ids=["p_grid", "q_grid", "windows"])
    def test_an_empty_grid_raises_before_any_file_is_written(self, tmp_path, windows, p_grid,
                                                              q_grid, field):
        with pytest.raises(ParameterError, match=f"^{field} must be nonempty$"):
            sweep_constants(windows, p_grid, q_grid, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_grid_values_are_still_checked(self, tmp_path):
        with pytest.raises(DomainError, match=r"^scalar function non-finite at t=0\.001$"):
            sweep_constants([(1e-3, 1.0)], [-0.5], [-400.0], tmp_path)

    def test_csv_is_the_repr_of_every_row_field(self, tmp_path):
        # p = -1e-9 on the narrow window takes C's endpoint branch, C = 0.0
        windows = [(1.0, 2.0), (1.0, 1.000001)]
        result = sweep_constants(windows, [-1e-9, -1.0, -0.3], [-1.0, -0.6], tmp_path / "sweep")
        assert any(row["constant_name"] == "C" and row["closed_form"] == 0.0
                   for row in result.rows)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["m", "M", "p", "q", "constant_name", "closed_form", "oracle",
                             "abs_diff"])
            for row in result.rows:
                writer.writerow([row["constant_name"] if key == "constant_name" else repr(value)
                                 for key, value in row.items()])
        assert Path(result.csv_path).read_bytes() == expected.read_bytes()

    def test_ratio_constant_stays_above_one(self, tmp_path):
        # K2(1,2,-1,q) >= 1 across the admissible q range
        w = SpectralWindow(1.0, 2.0)
        for q in [-1.0 + 0.05 * k for k in range(20)]:
            assert kantorovich_K2(w, -1.0, q) >= 1.0 - 1e-12

    def test_svg_charts_are_valid_xml(self, tmp_path):
        result = sweep_constants([(1.0, 2.0)], [-1.0, -0.5], [-1.0, -0.5], tmp_path)
        assert len(result.svg_paths) == 1
        root = ET.parse(result.svg_paths[0]).getroot()
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2


@pytest.fixture(scope="module")
def hunt_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("hunt")
    cfg = CampaignConfig(fuzz_samples=200)
    return hunt_sharpness(cfg, out), out


class TestHunt:
    def test_report_file_written(self, hunt_report):
        report, out = hunt_report
        on_disk = json.loads((out / "hunt_report.json").read_text())
        assert set(on_disk["modes"]) == set(report["modes"])

    def test_regime_fuzz_logs_without_asserting(self, hunt_report):
        report, _ = hunt_report
        mode = report["modes"]["corollary_2_3_q_beyond_regime"]
        assert mode["samples"] == 200
        assert mode["violations"] >= 0  # either outcome is legitimate

    def test_dropping_domination_breaks_the_chain(self, hunt_report):
        report, _ = hunt_report
        mode = report["modes"]["corollary_2_2_without_domination"]
        assert mode["violations"] > 0
        assert mode["witness"] is not None
        assert mode["max_violation"] < -1e-3

    def test_non_log_convex_f_breaks_the_interpolant(self, hunt_report):
        report, _ = hunt_report
        mode = report["modes"]["theorem_2_1_non_log_convex_f"]
        assert mode["violations"] > 0

    def test_non_log_convex_constants_scanned_once_per_window(self, monkeypatch):
        # every oracle scan, whichever route built its grid values, ends in
        # one refinement
        scans = []
        real = constants._refine

        def counted(*args, **kwargs):
            scans.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(constants, "_refine", counted)
        cfg = CampaignConfig()
        mode = hunt._hunt_non_log_convex(cfg, 6)
        assert mode.samples == 6
        # alpha and beta for each of the three windows
        assert len(cfg.windows) == 3 and len(scans) == 6

    def test_squared_order_control(self, hunt_report):
        report, _ = hunt_report
        mode = report["modes"]["squared_order_negative_control"]
        assert mode["violations"] == 1
        assert mode["max_violation"] <= -0.1

    def test_unweighted_difference_constant_witnessed(self, hunt_report):
        report, _ = hunt_report
        mode = report["modes"]["corollary_3_3_unweighted_constant"]
        assert mode["violations"] >= 1
        assert mode["witness"] is not None
        assert mode["max_violation"] < -1e-3

    def test_lemma_exponent_variants_recorded(self, hunt_report):
        report, _ = hunt_report
        notes = report["modes"]["lemma_3_1_exponent_variants"]["notes"]
        stated = next(n for n in notes if n.startswith("exponent r/(p+r)"))
        variant = next(n for n in notes if n.startswith("exponent p/(p+r)"))
        # the stated exponent holds on the whole corpus; the variant fails
        assert "held" in stated
        total = int(stated.split("/")[2].split(",")[0])
        held_stated = int(stated.split("held ")[1].split("/")[0])
        held_variant = int(variant.split("held ")[1].split("/")[0])
        assert held_stated == total
        assert held_variant < total

    # the links of each witnessed mode's check, rerun on a witness's pair
    # with the witness's params
    REPLAYS = {
        "theorem_2_1_non_log_convex_f": lambda pair, prm, tol: verifiers.check_theorem_2_1(
            pair, np.sqrt, power_fun(-1.0), prm["alpha"], tol, beta=prm["beta"]).links,
        "corollary_2_2_without_domination": lambda pair, prm, tol: verifiers.check_corollary_2_2(
            pair, prm["p"], prm["q"], prm["alpha"], tol).links,
        "squared_order_negative_control": lambda pair, prm, tol: verifiers._links(
            tol, ("A <= B", pair.A, pair.B),
            ("A^2 <= B^2", matrix_power(pair.A, prm["power"]), matrix_power(pair.B, prm["power"]))),
        "lemma_3_1_exponent_variants": lambda pair, prm, tol: verifiers.lemma_3_1_exponent_slacks(
            pair, prm["p"], prm["r"], tol).links,
        "corollary_3_3_unweighted_constant": lambda pair, prm, tol:
            verifiers.corollary_3_3_unweighted_slack(pair, prm["p"], prm["r"], tol).links,
    }

    def test_every_witness_replays_bit_for_bit(self, hunt_report):
        """A witness's pair and params, read back from hunt_report.json and
        rerun through its mode's check, give its failing links and its
        min_slack bit for bit."""
        _, out = hunt_report
        modes = json.loads((out / "hunt_report.json").read_text())["modes"]
        witnessed = {name for name, mode in modes.items() if mode["witness"] is not None}
        assert witnessed == set(self.REPLAYS)
        for name in witnessed:
            witness = modes[name]["witness"]
            links = self.REPLAYS[name](generators.pair_from_json(witness["pair"]),
                                       witness["params"], CampaignConfig().rel_tol)
            failing = [lk for lk in links if not lk.holds]
            assert [lk.label for lk in failing] == witness["failing_links"], name
            assert min(lk.min_slack for lk in failing) == witness["min_slack"], name


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CampaignConfig(
            suites=["corollary_2_3", "lemma_3_1"],
            dims=[2, 3], windows=[[1.0, 2.0]],
            p_grid=[-1.0], q_grid=[-0.5], r_grid=[-0.5],
            samples_per_cell=3).semantic_dict()))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out"), "--seed", "2"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "corollary_2_3" in captured and "failures 0" in captured
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_run_suite_override(self, tmp_path, capsys):
        code = cli_main(["run", "--suite", "corollary_2_4", "--samples", "2",
                         "--out", str(tmp_path / "only")])
        assert code == 0
        out = capsys.readouterr().out
        assert "corollary_2_4" in out and "theorem_2_1" not in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"q_grid": [-3.0]}')
        assert cli_main(["run", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    # the non-finite cases run one small suite, so that a wrongly accepted
    # config fails fast instead of running the full default campaign
    @pytest.mark.parametrize("body", ['{"dims": ["x"]}', '{"samples_per_cell": "4"}',
                                      '{"windows": [[1.0]]}', '{"windows": [1.0]}',
                                      '{"q_grid": -0.5}'] + [
        '{"suites": ["corollary_2_2"], "samples_per_cell": 1, ' + field + "}"
        for field in ('"rel_tol": NaN', '"p_grid": [NaN]', '"alpha_grid": [NaN]',
                      '"windows": [[1.0, Infinity]]')])
    def test_wrongly_typed_config_field(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.json"
        bad.write_text(body)
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_infinite_tolerance_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--suite", "corollary_2_3", "--samples", "2", "--tol", "inf",
                "--out", str(out)]
        assert cli_main(argv) == 2
        assert "rel_tol must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["1", "1.5"])
    def test_a_tolerance_of_one_or_more_is_a_config_error(self, tmp_path, capsys, tol):
        """At rel_tol >= 1 no link could fail, so the gate would pass anything."""
        out = tmp_path / "out"
        argv = ["run", "--suite", "corollary_2_3", "--samples", "1", "--tol", tol,
                "--out", str(out)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"config error: rel_tol must lie in (0, 1), got {float(tol)}\n"
        assert not out.exists()

    def test_a_tolerance_below_one_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--suite", "corollary_2_3", "--samples", "1", "--tol", "0.5",
                "--out", str(out)]
        assert cli_main(argv) == 0
        header = json.loads((out / "reports" / "corollary_2_3.jsonl").read_text().splitlines()[0])
        assert header["config"]["rel_tol"] == 0.5

    @pytest.mark.parametrize("rel_tol, fails_above", [(0.5, 1.0), (1.0 - 2.0 ** -20, 2.0 ** 20 - 1.0)])
    def test_below_one_a_rank_one_difference_still_fails(self, rel_tol, fails_above):
        """D = -c v v* fails exactly when c > rel_tol / (1 - rel_tol)."""
        v = np.array([[1.0], [1.0j]]) / np.sqrt(2.0)
        for c, holds in ((fails_above * (1 - 1e-9), True), (fails_above * (1 + 1e-9), False)):
            assert loewner_leq(c * (v @ v.conj().T), np.zeros((2, 2)), rel_tol).holds is holds

    @pytest.mark.parametrize("command", ["run", "sweep", "hunt"])
    def test_an_empty_suite_list_is_a_config_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"suites": []}')
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: suites must be nonempty\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["run", "--suite", "corollary_2_3", "--samples", "1"],
                                      ["sweep"], ["hunt", "--samples", "1"]])
    def test_an_output_path_that_is_a_file_is_a_config_error(self, tmp_path, capsys,
                                                             monkeypatch, argv):
        """The output directory is made before any work: hunt runs no mode."""

        def no_mode_runs(*args):
            raise AssertionError("a hunt mode ran")

        monkeypatch.setattr(hunt, "_hunt_q_beyond_regime", no_mode_runs)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert cli_main([*argv, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        # run names the reports directory it makes inside the output path
        assert err.startswith(f"config error: output directory '{taken}")
        assert "cannot be created" in err and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    @pytest.mark.parametrize("argv, taken", [
        (["run", "--suite", "corollary_2_3", "--samples", "1"], "reports/corollary_2_3.jsonl"),
        (["run", "--suite", "corollary_2_3", "--samples", "1"], "summary.csv"),
        (["sweep"], "constants.csv"),
        (["sweep"], "k2_vs_q_window_2.svg"),
        (["hunt", "--samples", "1"], "hunt_report.json"),
    ])
    def test_an_output_file_path_that_is_a_directory_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, argv, taken):
        """Each file a command writes is tested before any work: hunt runs no mode."""

        def no_mode_runs(*args):
            raise AssertionError("a hunt mode ran")

        monkeypatch.setattr(hunt, "_hunt_q_beyond_regime", no_mode_runs)
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert cli_main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"config error: output file {str(out / taken)!r} "
                                           "exists and is not a regular file\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["run", "sweep", "hunt"])
    def test_a_window_narrower_than_the_placement_margin_is_a_config_error(
            self, tmp_path, capsys, command):
        bad = tmp_path / "narrow.json"
        bad.write_text('{"windows": [[1.0, 1.00000000000001]], "dims": [6], '
                       '"suites": ["corollary_2_3"], "samples_per_cell": 2}')
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: window (1.0, 1.00000000000001) is too narrow to place a spectrum "
            "at dim 6: M - m must exceed 2.131628207280322e-14\n")
        assert not out.exists()

    def test_a_failing_run_counts_its_failures_end_to_end(self, tmp_path, capsys,
                                                          monkeypatch):
        """K2 halved where the check calls it: the run exits 1, and summary.csv,
        the report file and ``show`` agree on the number of failed checks."""
        real = verifiers.kantorovich_K2
        monkeypatch.setattr(verifiers, "kantorovich_K2", lambda *args: real(*args) * 0.5)
        out = tmp_path / "failing"
        assert cli_main(["run", "--suite", "corollary_2_3", "--samples", "2",
                         "--out", str(out)]) == 1
        with open(out / "summary.csv") as handle:
            (row,) = csv.DictReader(handle)
        lines = (out / "reports" / "corollary_2_3.jsonl").read_text().splitlines()
        failed = sum(not json.loads(line)["overall"] for line in lines[1:])
        # K2 is loose on some cells, so halving it leaves those passing
        assert 0 < failed < len(lines) - 1 == int(row["checks"])
        assert int(row["fail_count"]) == failed
        assert float(row["worst_slack"]) < 0.0
        capsys.readouterr()
        assert cli_main(["show", str(out / "reports" / "corollary_2_3.jsonl")]) == 0
        assert f"failed: {failed}\n" in capsys.readouterr().out + "\n"

    def test_a_huge_alpha_gives_finite_tolerances(self, tmp_path, capsys):
        """alpha A^q at alpha = 1e300 has entries whose squares overflow; each
        link's tolerance stays finite, so the report holds no Infinity."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["corollary_2_2"], "alpha_grid": [1e300],
                                   "dims": [2], "samples_per_cell": 2}))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "reports" / "corollary_2_2.jsonl").read_text()
        assert "Infinity" not in text
        tolerances = [link["tolerance"] for line in text.splitlines()[1:]
                      for link in json.loads(line)["links"]]
        assert len(tolerances) == 360 and max(tolerances) > 1e290

    @pytest.mark.parametrize("alpha", [1e307, 1e308])
    def test_an_alpha_whose_chain_overflows_is_a_config_error(self, tmp_path, capsys, alpha):
        """At 1e307 a link of alpha A^q + beta read NaN, and at 1e308 the
        oracle's g was infinite; both are now rejected before anything runs."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["corollary_2_2"], "alpha_grid": [alpha],
                                   "dims": [2], "samples_per_cell": 2}))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"config error: alpha_grid cell alpha={alpha!r} "
                                           "overflows alpha A^q for window (1.0, 2.0) and q=-1.0\n")
        assert not out.exists()

    def test_the_alpha_limit_follows_the_positivity_margin(self):
        """The largest alpha accepted is float max / (2 (c m)^q) at the
        window and q that maximize (c m)^q: on the default grid, m = 0.5
        and q = -1, which the default grid's alphas stay far below."""
        cfg = CampaignConfig()
        validate_config(cfg)
        limit = sys.float_info.max / (2.0 / (POSITIVITY_MARGIN_FACTOR * 0.5))
        validate_config(dataclasses.replace(cfg, alpha_grid=[0.5, limit * (1 - 1e-15)]))
        with pytest.raises(ConfigError, match=r"window \(0\.5, 4\.0\) and q=-1\.0$"):
            validate_config(dataclasses.replace(cfg, alpha_grid=[limit * (1 + 1e-15)]))

    def test_hunt_rejects_negative_samples(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["hunt", "--samples", "-5", "--out", str(out)]) == 2
        assert "fuzz_samples must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["run", "--suite", "corollary_2_3", "--samples", "1"],
                                      ["hunt", "--samples", "1"]])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli_main([*argv, "--seed", "-5", "--out", str(out)]) == 2
        assert "base_seed must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "hunt"])
    def test_sweep_and_hunt_validate_config(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"windows": [[2.0, 1.0]]}')
        assert cli_main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, cfg, named", [
        (["sweep"], {"windows": [[0.001, 1.0]], "p_grid": [-400.0]}, "window (0.001, 1.0): p=-400.0"),
        (["run", "--suite", "corollary_2_3"], {"windows": [[0.001, 1.0]], "p_grid": [-400.0]},
         "window (0.001, 1.0): p=-400.0"),
        # validate_config checks the whole config, whatever the command or
        # its suites use, as it does for every other field
        (["sweep"], {"windows": [[1.0, 10.0]], "p_grid_theorem_1_1": [400.0]}, "theorem_1_1 p=400.0"),
        (["run", "--suite", "theorem_1_1"], {"windows": [[1e-310, 1.0]], "p_grid": [-0.5], "q_grid": [-1.0]},
         "q=-1.0"),
    ])
    def test_overflowing_power_is_a_config_error(self, tmp_path, capsys, argv, cfg, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli_main([*argv, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: window (") and f"{named} overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sweep"],
                                      ["run", "--suite", "corollary_2_3", "--samples", "1"]])
    def test_underflowing_power_is_a_config_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"windows": [[1000.0, 10000.0]], "p_grid": [-200.0]}))
        out = tmp_path / "out"
        assert cli_main([*argv, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: window (1000.0, 10000.0): p=-200.0 underflows")
        assert not out.exists()

    @pytest.mark.parametrize("field", EXPONENT_GRIDS)
    @pytest.mark.parametrize("command", ["sweep", "run"])
    def test_an_empty_grid_is_a_config_error(self, tmp_path, capsys, command, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({field: []}))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {field} must be nonempty\n"
        assert not out.exists()

    def test_a_suite_listed_twice_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--suite", "corollary_2_3", "--suite", "lemma_3_1",
                "--suite", "corollary_2_3", "--samples", "1", "--out", str(out)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "config error: suite 'corollary_2_3' is listed twice\n"
        assert not out.exists()

    def test_show_rejects_unreadable_reports(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "empty.jsonl").write_text("")
        (tmp_path / "broken.jsonl").write_text("{not json\n")
        for name in ("missing.jsonl", "empty.csv", "empty.jsonl", "broken.jsonl"):
            assert cli_main(["show", str(tmp_path / name)]) == 2, name
            assert "cannot read report" in capsys.readouterr().err

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(CampaignConfig(
            windows=[[1.0, 2.0]], p_grid=[-1.0], q_grid=[-0.5]).semantic_dict()))
        code = cli_main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path / "sweep")])
        assert code == 0
        assert (tmp_path / "sweep" / "constants.csv").exists()
        assert "max |closed_form - oracle|" in capsys.readouterr().out

    def test_sweep_and_hunt_match_recorded_digests(self, tmp_path, capsys):
        """Every file ``sweep`` and ``hunt --seed 1`` write for a small
        config is byte-identical to the run recorded in
        ``tests/data/sweep_hunt_digests.txt``.  Window (2, 3) has m > 1, so
        hunt's unweighted-constant mode runs on it.  The record was made
        from a checkout's ``src`` with

            cd "$(mktemp -d)" && echo '{"dims": [2, 3], "windows": [[1.0, 2.0], [2.0, 3.0]],
              "p_grid": [-1.0, -0.5], "q_grid": [-1.0, -0.5], "r_grid": [-0.5],
              "fuzz_samples": 40}' > cfg.json
            PYTHONPATH=<checkout>/src python3 -m kantcheck.cli sweep --config cfg.json --out out/sweep
            PYTHONPATH=<checkout>/src python3 -m kantcheck.cli hunt --config cfg.json --seed 1 --out out/hunt
            cd out && find . -type f | sort | sed 's|^\\./||' | xargs sha256sum
        """
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dims": [2, 3], "windows": [[1.0, 2.0], [2.0, 3.0]], "p_grid": [-1.0, -0.5],
            "q_grid": [-1.0, -0.5], "r_grid": [-0.5], "fuzz_samples": 40}))
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out / "sweep")]) == 0
        assert cli_main(["hunt", "--config", str(cfg_path), "--seed", "1",
                         "--out", str(out / "hunt")]) == 0
        assert_matches_recorded_digests(out, "sweep_hunt_digests.txt")

    def test_hunt_subcommand(self, tmp_path, capsys):
        code = cli_main(["hunt", "--samples", "60", "--out", str(tmp_path / "hunt")])
        assert code == 0
        assert (tmp_path / "hunt" / "hunt_report.json").exists()
        assert "squared_order_negative_control" in capsys.readouterr().out

    def test_show_subcommand(self, tmp_path, capsys):
        cfg = CampaignConfig(suites=["corollary_2_3"], dims=[2], windows=[(1.0, 2.0)],
                             p_grid=[-1.0], q_grid=[-0.5], samples_per_cell=2,
                             output_dir=str(tmp_path / "show"))
        run_campaign(cfg)
        assert cli_main(["show", str(tmp_path / "show" / "summary.csv")]) == 0
        assert "corollary_2_3" in capsys.readouterr().out
