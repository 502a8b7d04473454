"""Catalog builders and the committed specs under studies/."""

import json
import pathlib

import pytest

from repro.ablation import build_study, expand, study_names
from repro.ablation.spec import study_spec_from_dict, study_spec_to_dict
from repro.experiments.runconfig import STANDARD

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
STUDIES_DIR = REPO_ROOT / "studies"


class TestBuilders:
    def test_names_are_stable(self):
        assert study_names() == (
            "core",
            "stale-info",
            "disk-organization",
            "update-fraction",
            "heterogeneity",
            "subnet-scaling",
            "smoke",
            "table8",
            "table9",
            "table10",
            "table11",
            "table12",
            "msg",
            "failures",
            "open",
        )

    @pytest.mark.parametrize("name", study_names())
    def test_every_study_builds_and_expands(self, name):
        spec = build_study(name, STANDARD)
        grid = expand(spec)
        assert spec.name == name
        assert len(grid.cells) >= 1
        # Run IDs are unique across the grid: no two cells alias.
        ids = [rid for _, cell_ids in grid.run_ids() for rid in cell_ids]
        assert len(ids) == len(set(ids))

    def test_unknown_study(self):
        with pytest.raises(KeyError):
            build_study("nonexistent")

    def test_core_study_covers_a1_to_a4(self):
        spec = build_study("core")
        assert [c.name for c in spec.components] == [
            "disk-organization",
            "load-info-staleness",
            "estimator",
            "allocation-information",
        ]
        assert spec.policy == "LERT"

    def test_smoke_ignores_scale_settings(self):
        from repro.ablation.catalog import SMOKE_SETTINGS

        assert build_study("smoke", STANDARD).settings == SMOKE_SETTINGS


class TestCommittedSpecs:
    """studies/*.json is generated from the catalog; the two must agree.

    On drift, run ``python tools/gen_studies.py`` and commit the result.
    """

    @pytest.mark.parametrize("name", study_names())
    def test_committed_spec_matches_catalog(self, name):
        path = STUDIES_DIR / f"{name}.json"
        assert path.exists(), f"missing {path}; run tools/gen_studies.py"
        committed = json.loads(path.read_text(encoding="utf-8"))
        assert committed == study_spec_to_dict(build_study(name, STANDARD))

    @pytest.mark.parametrize("name", study_names())
    def test_committed_spec_loads(self, name):
        data = json.loads(
            (STUDIES_DIR / f"{name}.json").read_text(encoding="utf-8")
        )
        spec = study_spec_from_dict(data)
        assert spec == build_study(name, STANDARD)

    def test_no_orphan_spec_files(self):
        committed = {p.stem for p in STUDIES_DIR.glob("*.json")}
        assert committed == set(study_names())
