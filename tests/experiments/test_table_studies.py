"""Every simulated table is a catalog grid study that runs pinned cells.

``golden_table_run_ids.json`` holds each table's sorted task keys at the
``quick`` and ``standard`` presets, recorded from the table modules as
they were when each assembled its own ``(config, policy)`` list.  A
table study — built by the catalog and sent through a JSON round trip,
as ``studies/<name>.json`` is — must expand to exactly those keys: the
same simulations, answered by the same cache entries.
"""

import json
import pathlib

import pytest

from repro.ablation import build_study, expand
from repro.ablation.catalog import GridOutcome, grid_study
from repro.ablation.spec import study_spec_from_dict, study_spec_to_dict
from repro.ablation.study import run_study
from repro.experiments.runconfig import QUICK, STANDARD, RunSettings
from repro.model.config import paper_defaults

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_table_run_ids.json"
TABLES = ("table8", "table9", "table10", "table11", "table12", "msg", "failures", "open")
SCALES = {"quick": QUICK, "standard": STANDARD}


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("name", TABLES)
def test_table_study_expands_to_the_pinned_run_ids(name, scale):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    spec = study_spec_from_dict(
        json.loads(json.dumps(study_spec_to_dict(build_study(name, SCALES[scale]))))
    )
    keys = sorted({task.key() for task in expand(spec).all_tasks()})
    assert keys == golden[name][scale]


def test_golden_file_covers_every_table():
    assert set(json.loads(GOLDEN.read_text(encoding="utf-8"))) == set(TABLES)


TINY = RunSettings(warmup=50.0, duration=200.0, replications=1, base_seed=3)


def _think_grid(policies, values=(40.0, 80.0)):
    return grid_study(
        "think",
        config=paper_defaults(num_sites=3, mpl=4, think_time=50.0),
        settings=TINY,
        points=[
            (f"{v:g}", {"config_patches": (("site.think_time", v),)}) for v in values
        ],
        policies=policies,
    )


class TestGridStudy:
    def test_baseline_is_first_point_under_first_policy(self):
        spec = _think_grid(("LOCAL", "BNQ"))
        assert spec.baseline.policy == "LOCAL"
        assert spec.config.site.think_time == 40.0
        (component,) = spec.components
        assert component.name == "think"
        assert [v.name for v in component.variants] == ["40-BNQ", "80-LOCAL", "80-BNQ"]

    def test_lookup_covers_every_cell_once(self):
        grid = GridOutcome(run_study(_think_grid(("LOCAL", "BNQ"))))
        assert grid.points == ("40", "80")
        assert grid.policies == ("LOCAL", "BNQ")
        cells = [grid.cell(p, q) for p in grid.points for q in grid.policies]
        assert cells[0] is grid.outcome.baseline
        assert list(cells[1:]) == list(grid.outcome.cells)
        with pytest.raises(KeyError):
            grid.cell("60", "LOCAL")
        with pytest.raises(KeyError):
            grid.cell("40", "LERT")

    def test_one_policy_grid_finds_its_baseline(self):
        grid = GridOutcome(run_study(_think_grid(("LOCAL",))))
        assert grid.points == ("baseline", "80")
        assert grid.cell("40", "LOCAL") is grid.outcome.baseline
        assert grid.cell("80", "LOCAL") is grid.outcome.cells[0]
        assert grid.config("baseline").site.think_time == 40.0
        assert grid.config("80").site.think_time == 80.0

    def test_points_must_set_what_the_first_point_sets(self):
        with pytest.raises(ValueError, match="first point"):
            grid_study(
                "bad",
                config=paper_defaults(),
                settings=TINY,
                points=[("a", {"config_patches": (("site.mpl", 5),)}), ("b", {})],
                policies=("LOCAL",),
            )

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown overrides"):
            grid_study(
                "bad",
                config=paper_defaults(),
                settings=TINY,
                points=[("a", {"policy": "BNQ"})],
                policies=("LOCAL",),
            )

    def test_faultless_point_keeps_the_settings_plan(self):
        from repro.ablation.catalog import failure_plan

        plan = failure_plan(900.0)
        spec = build_study("failures", STANDARD.with_faults(plan))
        grid = expand(spec)
        assert grid.baseline.tasks[0].faults == plan
        assert grid.cell("failures:none-BNQ").tasks[0].faults == plan
        assert grid.cell("failures:1000-BNQ").tasks[0].faults != plan
