"""The benchmark's workloads: inputs made from a seed, the main call, and
the checks that its outputs are correct.

Each workload drives kantcheck's public API only.  ``prepare`` is the
set-up a user pays before the main call (config or grid, validation,
cell enumeration); ``Prepared.run`` is the main call; ``Prepared.verify``
reads what the call returned and wrote and says which gates hold.
"""

from __future__ import annotations

import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kantcheck
from kantcheck.campaign import enumerate_cells, validate_config

ORACLE_REL_TOL = 1e-6
SWEEP_WINDOWS = [(1.0, 2.0), (0.5, 4.0), (2.0, 3.0)]


@dataclass(frozen=True)
class CampaignSpec:
    """The default grid with the given dims and samples per cell."""

    dims: tuple
    samples_per_cell: int


@dataclass(frozen=True)
class SweepSpec:
    """A (window, p, q) grid of ``p_points`` x ``q_points`` per window."""

    p_points: int
    q_points: int


# samples_per_cell must be at least len(dims): samples cycle through the
# dims, so fewer samples would silently drop the largest dims.
WORKLOADS = {
    "campaign_small": CampaignSpec(dims=(2, 3, 4, 6), samples_per_cell=4),
    "campaign_large_dim": CampaignSpec(dims=(16, 32, 64), samples_per_cell=3),
    "constants_sweep": SweepSpec(p_points=40, q_points=30),
}


def rel_close(a: float, b: float, tol: float = ORACLE_REL_TOL) -> bool:
    """The acceptance suite's closed-form-vs-oracle agreement test."""
    return abs(a - b) <= max(tol * max(1.0, abs(a), abs(b)), 1e-9)


def tree_digest(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and the total size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0" + data)
    return digest.hexdigest(), size


def _failed(gates: dict, counted_gate: str, counted: int, expected: int) -> int:
    """Failed items: the counted failures, or every item when a gate that
    no count captures (missing output, wrong header, missing dim) breaks."""
    if all(ok for name, ok in gates.items() if name != counted_gate):
        return counted
    return expected


@dataclass
class Outcome:
    """What one repetition produced: work done, failures, gates and counts."""

    attempted: int
    failed: int
    gates: dict
    digest: str = ""
    output_bytes: int = 0
    counts: dict = field(default_factory=dict)


class PreparedCampaign:
    def __init__(self, spec: CampaignSpec, seed: int, out_dir: Path):
        self.cfg = kantcheck.CampaignConfig(dims=list(spec.dims),
                                            samples_per_cell=spec.samples_per_cell,
                                            base_seed=seed, output_dir=str(out_dir))
        validate_config(self.cfg)
        self.expected = len(enumerate_cells(self.cfg)) * self.cfg.samples_per_cell

    def run(self):
        return kantcheck.run_campaign(self.cfg)

    def verify(self, summary) -> Outcome:
        cfg = self.cfg
        out_dir = Path(cfg.output_dir)
        per_dim = Counter()
        suite_dims = {}
        links = tight = failed_links = failed_checks = lines = 0
        headers_ok = True
        for suite in cfg.suites:
            with open(out_dir / "reports" / f"{suite}.jsonl", encoding="utf-8") as handle:
                header = json.loads(handle.readline())
                headers_ok &= (header["suite"] == suite and header["base_seed"] == cfg.base_seed
                               and header["config_hash"] == summary.config_hash)
                dims = set()
                for raw in handle:
                    record = json.loads(raw)
                    lines += 1
                    dims.add(record["dim"])
                    per_dim[record["dim"]] += 1
                    links += len(record["links"])
                    tight += sum(lk["tight"] for lk in record["links"])
                    failed_links += sum(not lk["holds"] for lk in record["links"])
                    failed_checks += not record["overall"]
                suite_dims[suite] = dims
        missing = {suite: sorted(set(cfg.dims) - dims)
                   for suite, dims in suite_dims.items() if set(cfg.dims) - dims}
        digest, size = tree_digest(out_dir)
        gates = {
            "exit_code_0": summary.exit_code == 0,
            "constants_within_1e-6": summary.max_constant_deviation <= ORACLE_REL_TOL,
            "all_checks_ran": summary.total_checks == self.expected == lines,
            "summary_matches_reports": summary.total_failures == failed_checks,
            "report_headers": headers_ok,
            "every_dim_present": not missing,
        }
        return Outcome(attempted=self.expected,
                       failed=_failed(gates, "exit_code_0", failed_checks, self.expected),
                       gates=gates, digest=digest,
                       output_bytes=size,
                       counts={"checks": lines, "links": links, "tight_links": tight,
                               "failed_links": failed_links,
                               "checks_per_dim": {str(d): per_dim[d] for d in sorted(per_dim)},
                               "missing_dims": missing,
                               "max_constant_deviation": summary.max_constant_deviation})


class PreparedSweep:
    def __init__(self, spec: SweepSpec, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.windows = list(SWEEP_WINDOWS)
        self.p_grid = sorted(float(p) for p in rng.uniform(-3.0, -0.05, spec.p_points))
        self.q_grid = sorted(float(q) for q in rng.uniform(-1.0, -0.05, spec.q_points))
        self.out_dir = out_dir
        self.expected = len(self.windows) * spec.p_points * spec.q_points * 4

    def run(self):
        return kantcheck.sweep_constants(self.windows, self.p_grid, self.q_grid, self.out_dir)

    def verify(self, result) -> Outcome:
        bad_rows = sum(not rel_close(row["closed_form"], row["oracle"]) for row in result.rows)
        worst = max((row["abs_diff"] for row in result.rows), default=0.0)
        with open(result.csv_path, encoding="utf-8", newline="") as handle:
            csv_rows = list(csv.DictReader(handle))
        svgs_ok = len(result.svg_paths) == len(self.windows) and all(
            ET.parse(path).getroot().tag.endswith("svg") for path in result.svg_paths)
        digest, size = tree_digest(self.out_dir)
        gates = {
            "all_rows_ran": len(result.rows) == self.expected == len(csv_rows),
            "rows_within_1e-6": bad_rows == 0,
            "max_abs_diff_consistent": result.max_abs_diff == worst,
            "svg_charts": svgs_ok,
        }
        return Outcome(attempted=self.expected,
                       failed=_failed(gates, "rows_within_1e-6", bad_rows, self.expected),
                       gates=gates, digest=digest,
                       output_bytes=size,
                       counts={"rows": len(result.rows), "bad_rows": bad_rows,
                               "max_abs_diff": result.max_abs_diff})


def prepare(workload: str, seed: int, out_dir: Path):
    spec = WORKLOADS[workload]
    if isinstance(spec, CampaignSpec):
        return PreparedCampaign(spec, seed, out_dir)
    return PreparedSweep(spec, seed, out_dir)
