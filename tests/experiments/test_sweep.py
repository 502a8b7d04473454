"""Config patches by dotted path, and sweeps as grid studies with CSV export."""

import csv

import pytest

from repro.ablation.catalog import GridOutcome, grid_study
from repro.ablation.spec import study_spec_from_dict, study_spec_to_dict
from repro.ablation.study import run_study
from repro.codec import ConfigError
from repro.experiments.runconfig import RunSettings
from repro.experiments.sweep import CSV_COLUMNS, set_config_parameter, write_csv
from repro.model.config import paper_defaults
from repro.model.serialization import config_from_dict, config_to_dict

TINY = RunSettings(warmup=200.0, duration=800.0, replications=1, base_seed=7)


def sweep(parameter, values, policies=("LOCAL", "BNQ"), name="sweep", base=None):
    """A one-parameter grid study: *values* of *parameter* x *policies*."""
    return grid_study(
        name,
        config=base if base is not None else paper_defaults(),
        settings=TINY,
        points=[(f"{v:g}", {"config_patches": ((parameter, v),)}) for v in values],
        policies=policies,
    )


class TestSetConfigParameter:
    def test_top_level(self):
        config = set_config_parameter(paper_defaults(), "num_sites", 4)
        assert config.num_sites == 4

    def test_nested_site(self):
        config = set_config_parameter(paper_defaults(), "site.mpl", 33)
        assert config.site.mpl == 33

    def test_nested_network(self):
        config = set_config_parameter(paper_defaults(), "network.msg_length", 2.5)
        assert config.network.msg_length == 2.5

    def test_original_untouched(self):
        base = paper_defaults()
        set_config_parameter(base, "site.mpl", 99)
        assert base.site.mpl == 20

    def test_unknown_field(self):
        with pytest.raises(KeyError):
            set_config_parameter(paper_defaults(), "site.warp_factor", 9)
        with pytest.raises(KeyError):
            set_config_parameter(paper_defaults(), "nonsense", 1)
        with pytest.raises(KeyError):
            set_config_parameter(paper_defaults(), "a.b.c", 1)

    def test_non_dataclass_section(self):
        """Dotting into a scalar field is a KeyError, not an AttributeError."""
        with pytest.raises(KeyError, match="not a nested config section"):
            set_config_parameter(paper_defaults(), "disk_organization.kind", "x")
        with pytest.raises(KeyError, match="not a nested config section"):
            set_config_parameter(paper_defaults(), "num_sites.value", 3)

    def test_validation_still_applies(self):
        with pytest.raises(Exception):
            set_config_parameter(paper_defaults(), "site.mpl", 0)


class TestPatchTypes:
    """A patch is checked like the same value in a config file."""

    def test_config_file_rejects_fractional_site_count(self):
        data = config_to_dict(paper_defaults())
        data["num_sites"] = 2.5
        with pytest.raises(ConfigError, match="num_sites"):
            config_from_dict(data)

    def test_study_variant_rejects_fractional_site_count(self):
        data = study_spec_to_dict(sweep("site.mpl", (5, 6)))
        data["components"][0]["variants"][0]["config_patches"] = [["num_sites", 2.5]]
        with pytest.raises(ConfigError, match="variant '5-BNQ'.*num_sites"):
            study_spec_from_dict(data)

    def test_string_for_an_integer_is_a_config_error(self):
        with pytest.raises(ConfigError, match="site.mpl"):
            set_config_parameter(paper_defaults(), "site.mpl", "20")

    def test_tuple_field_accepts_a_tuple(self):
        config = set_config_parameter(paper_defaults(), "class_probs", (0.3, 0.7))
        assert config.class_probs == (0.3, 0.7)
        with pytest.raises(ConfigError, match="class_probs"):
            set_config_parameter(paper_defaults(), "class_probs", 0.3)


class TestSweepSpec:
    def test_fails_fast_on_bad_parameter(self):
        with pytest.raises(KeyError):
            sweep("site.bogus", (1,))

    def test_requires_values_and_policies(self):
        with pytest.raises(ValueError):
            sweep("site.mpl", values=())
        with pytest.raises(ValueError):
            sweep("site.mpl", values=(10,), policies=())


class TestRunSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        spec = sweep(
            "site.think_time",
            (40.0, 80.0),
            name="think-sweep",
            base=paper_defaults(num_sites=3, mpl=4, think_time=50.0),
        )
        return GridOutcome(run_study(spec))

    def test_all_cells_present(self, small_sweep):
        assert len(small_sweep.outcome.all_cells()) == 4
        for value in ("40", "80"):
            for policy in ("LOCAL", "BNQ"):
                assert small_sweep.cell(value, policy).metrics.completions > 0

    def test_series_ordering(self, small_sweep):
        series = [small_sweep.waiting(p, "LOCAL") for p in small_sweep.points]
        assert len(series) == 2
        # Longer think time -> lighter load -> less waiting.
        assert series[1] < series[0]

    def test_csv_export(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(small_sweep, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + 4
        policies = {row[3] for row in rows[1:]}
        assert policies == {"LOCAL", "BNQ"}
        assert [row[1:3] for row in rows[1::2]] == [
            ["site.think_time", "40.0"],
            ["site.think_time", "80.0"],
        ]
        # Numeric columns parse as floats.
        for row in rows[1:]:
            float(row[4])
            float(row[5])

    def test_csv_needs_one_parameter(self, tmp_path):
        spec = grid_study(
            "two",
            config=paper_defaults(num_sites=3, mpl=4),
            settings=TINY,
            points=[
                ("a", {"config_patches": (("site.mpl", 4), ("num_sites", 3))}),
                ("b", {"config_patches": (("site.mpl", 5), ("num_sites", 2))}),
            ],
            policies=("LOCAL",),
        )
        with pytest.raises(ValueError, match="exactly one"):
            write_csv(GridOutcome(run_study(spec)), tmp_path / "x.csv")
