"""The experiment registry: the one front door to every experiment."""

import pytest

from repro.experiments.registry import (
    Experiment,
    all_experiments,
    experiment_names,
    get_experiment,
)


class TestRegistry:
    def test_names_unique_and_ordered(self):
        names = experiment_names()
        assert len(names) == len(set(names))
        assert names[0] == "table5"  # report order: analytic first
        assert names == tuple(e.name for e in all_experiments())

    def test_tables_and_studies_registered(self):
        names = experiment_names()
        for expected in (
            "table5", "table6", "table8", "table9", "table10", "table11",
            "table12", "msg", "failures", "open", "validation",
            "ablation-stale", "ablation-disk", "ablation-updates",
            "ablation-heterogeneous", "ablation-subnet", "study-core",
        ):
            assert expected in names

    def test_every_experiment_is_described(self):
        for experiment in all_experiments():
            assert experiment.title
            assert experiment.description

    def test_only_the_analytic_tables_are_analytic(self):
        analytic = {e.name for e in all_experiments() if e.analytic}
        assert analytic == {"table5", "table6"}

    def test_get_experiment_round_trip(self):
        for name in experiment_names():
            experiment = get_experiment(name)
            assert isinstance(experiment, Experiment)
            assert experiment.name == name

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="table5"):
            get_experiment("table99")

    def test_analytic_run_ignores_settings_and_context(self):
        output = get_experiment("table5").run()
        assert "Table 5" in output

    def test_descriptions_name_the_swept_parameter(self):
        """Each simulated table's help text names what its grid varies."""
        swept = {
            "table8": "site.think_time",
            "table9": "site.mpl",
            "table10": "site.mpl",
            "table11": "num_sites",
            "table12": "class_probs",
            "msg": "network.msg_length",
        }
        for name, parameter in swept.items():
            assert parameter in get_experiment(name).description, name
        assert "capacity" in get_experiment("table10").title.lower()
        assert "response-time bound" in get_experiment("table10").description
        assert "think" in get_experiment("table8").title.lower()
        assert "fairness" in get_experiment("table12").title.lower()
        assert "length" in get_experiment("msg").title.lower()

    def test_grid_studies_patch_the_named_parameter(self):
        """The registry text and the study it runs agree."""
        from repro.ablation import build_study

        for name in ("table8", "table9", "table10", "table11", "table12", "msg"):
            (component,) = build_study(name).components
            paths = {p for v in component.variants for p, _ in v.config_patches}
            (path,) = paths
            assert path in get_experiment(name).description
