"""StudySpec construction, validation, and JSON round-trip."""

import json

import pytest

from repro.ablation.spec import (
    STUDY_FORMAT_VERSION,
    STUDY_METRICS,
    Component,
    StudySpec,
    Variant,
    load_study_spec,
    save_study_spec,
    study_spec_from_dict,
    study_spec_to_dict,
)
from repro.ablation.grid import expand
from repro.codec import ConfigError
from repro.experiments.runconfig import RunSettings
from repro.extensions import HeterogeneousCPUSpec, StaleLoadInfoSpec, UpdatesSpec
from repro.faults.plan import FaultPlan, SiteOutage
from repro.model.config import paper_defaults
from repro.workloads import AdmissionControl, PoissonOpen, WorkloadSpec

SMALL = RunSettings(warmup=50.0, duration=200.0, replications=2, base_seed=7)


def tiny_spec(**overrides) -> StudySpec:
    defaults = dict(
        name="tiny",
        title="Tiny",
        description="test spec",
        metric="response_time",
        config=paper_defaults(num_sites=2, mpl=3),
        policy="LOCAL",
        settings=SMALL,
        components=(
            Component(
                name="policy",
                description="who allocates",
                variants=(Variant(name="bnq", policy="BNQ"),),
            ),
        ),
    )
    defaults.update(overrides)
    return StudySpec(**defaults)


class TestValidation:
    def test_valid_spec_constructs(self):
        spec = tiny_spec()
        assert spec.component("policy").variants[0].name == "bnq"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            tiny_spec(metric="latency")

    def test_every_declared_metric_accepted(self):
        for metric in STUDY_METRICS:
            assert tiny_spec(metric=metric).metric == metric

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError, match="component"):
            tiny_spec(components=())

    def test_duplicate_component_names_rejected(self):
        component = Component(
            name="policy",
            description="",
            variants=(Variant(name="bnq", policy="BNQ"),),
        )
        with pytest.raises(ValueError, match="duplicate"):
            tiny_spec(components=(component, component))

    def test_duplicate_variant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Component(
                name="policy",
                description="",
                variants=(
                    Variant(name="bnq", policy="BNQ"),
                    Variant(name="bnq", policy="RANDOM"),
                ),
            )

    def test_no_override_variant_rejected(self):
        with pytest.raises(ValueError, match="identical to the baseline"):
            Variant(name="noop")

    def test_kwargs_without_kind_rejected(self):
        data = study_spec_to_dict(tiny_spec())
        data["mechanisms"] = [{"refresh_interval": 5.0}]
        with pytest.raises(ConfigError, match=r"^mechanisms\[0\]: unknown mechanism kind None"):
            study_spec_from_dict(data)

    def test_empty_mechanism_list_is_an_override(self):
        inherit = Variant(name="inherit", policy="BNQ")
        plain = Variant(name="plain", policy="BNQ", mechanisms=())
        spec = tiny_spec(
            mechanisms=(UpdatesSpec(),),
            components=(Component(name="c", variants=(inherit, plain)),),
        )
        grid = expand(spec)
        assert grid.cell("c:inherit").tasks[0].mechanisms == (UpdatesSpec(),)
        assert grid.cell("c:plain").tasks[0].mechanisms == ()
        assert "mechanisms" not in study_spec_to_dict(spec)["components"][0]["variants"][0]
        assert study_spec_to_dict(spec)["components"][0]["variants"][1]["mechanisms"] == []

    def test_bad_config_patch_fails_at_construction(self):
        component = Component(
            name="knob",
            description="",
            variants=(
                Variant(name="typo", config_patches=(("site.mppl", 9),)),
            ),
        )
        with pytest.raises((AttributeError, ValueError, KeyError, TypeError)):
            tiny_spec(components=(component,))

    def test_unknown_component_lookup(self):
        with pytest.raises(KeyError):
            tiny_spec().component("nonexistent")


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = tiny_spec()
        assert study_spec_from_dict(study_spec_to_dict(spec)) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "tiny.json"
        save_study_spec(spec, path)
        assert load_study_spec(path) == spec
        # The file is pretty-printed with stable key order.
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["format_version"] == STUDY_FORMAT_VERSION

    def test_round_trip_with_faults_and_workload(self):
        spec = tiny_spec(
            components=(
                Component(
                    name="environment",
                    description="",
                    variants=(
                        Variant(
                            name="outage",
                            faults=FaultPlan(
                                site_outages=(
                                    SiteOutage(site=0, at=60.0, duration=30.0),
                                )
                            ),
                        ),
                        Variant(
                            name="open",
                            workload=WorkloadSpec(
                                arrivals=PoissonOpen(rate=0.05),
                                admission=AdmissionControl(max_pending=4),
                            ),
                        ),
                    ),
                ),
            ),
        )
        assert study_spec_from_dict(study_spec_to_dict(spec)) == spec

    def test_round_trip_with_mechanisms(self):
        spec = tiny_spec(
            mechanisms=(UpdatesSpec(update_prob=0.1),),
            components=(
                Component(
                    name="staleness",
                    description="",
                    variants=(
                        Variant(
                            name="stale",
                            mechanisms=(
                                StaleLoadInfoSpec(refresh_interval=25.0),
                                UpdatesSpec(update_prob=0.1),
                            ),
                        ),
                    ),
                ),
            ),
        )
        data = json.loads(json.dumps(study_spec_to_dict(spec)))
        assert data["mechanisms"] == [
            {"kind": "updates", "update_prob": 0.1, "update_pages": 4, "apply_cpu_time": 0.05}
        ]
        assert study_spec_from_dict(data) == spec

    def test_future_format_version_rejected(self):
        data = study_spec_to_dict(tiny_spec())
        data["format_version"] = STUDY_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format_version"):
            study_spec_from_dict(data)

    def test_json_lists_refreeze_to_tuples(self):
        spec = tiny_spec(
            components=(
                Component(
                    name="knob",
                    description="",
                    variants=(
                        Variant(
                            name="mpl",
                            config_patches=(("site.mpl", 9),),
                        ),
                    ),
                ),
            ),
        )
        # Through actual JSON text, so tuples become lists and back.
        data = json.loads(json.dumps(study_spec_to_dict(spec)))
        assert study_spec_from_dict(data) == spec


class TestMechanismInput:
    """Bad mechanism input fails at load or expansion, naming where."""

    def variant_data(self, mechanisms):
        spec = tiny_spec(
            components=(
                Component(name="m", variants=(Variant(name="v", policy="BNQ"),)),
            )
        )
        data = json.loads(json.dumps(study_spec_to_dict(spec)))
        data["components"][0]["variants"][0]["mechanisms"] = mechanisms
        return data

    def test_unknown_kind(self):
        data = self.variant_data([{"kind": "stael", "refresh_interval": 50.0}])
        with pytest.raises(
            ConfigError,
            match=r"^components\[0\]\.variants\[0\]\.mechanisms\[0\]: "
            r"unknown mechanism kind 'stael'$",
        ):
            study_spec_from_dict(data)

    def test_misspelled_parameter(self):
        data = self.variant_data([{"kind": "stale", "refresh_intervall": 50.0}])
        with pytest.raises(
            ConfigError,
            match=r"variants\[0\]\.mechanisms\[0\]: unknown key 'refresh_intervall'",
        ):
            study_spec_from_dict(data)

    @pytest.mark.parametrize(
        "item, message",
        [
            ({"kind": "stale", "refresh_interval": -1}, "refresh_interval must be >= 0"),
            ({"kind": "updates", "update_prob": 1.5}, "update_prob must be in"),
            ({"kind": "updates", "update_pages": 2.5}, "update_pages: expected an integer"),
            ({"kind": "heterogeneous", "cpu_speed_factors": [1.0, 0.0]}, "must be > 0"),
        ],
    )
    def test_bad_value(self, item, message):
        with pytest.raises(ConfigError, match=r"mechanisms\[0\][.:].*" + message):
            study_spec_from_dict(self.variant_data([item]))

    def test_bad_value_in_code(self):
        with pytest.raises(ValueError, match="refresh_interval must be >= 0"):
            StaleLoadInfoSpec(refresh_interval=-1.0)
        with pytest.raises(ConfigError, match="cpu_speed_factors"):
            HeterogeneousCPUSpec(cpu_speed_factors="fast")

    def test_two_of_one_kind(self):
        data = self.variant_data(
            [{"kind": "stale", "refresh_interval": 25.0}, {"kind": "stale"}]
        )
        spec = study_spec_from_dict(data)
        with pytest.raises(ValueError, match="cell 'm:v'.*two of kind 'stale'"):
            expand(spec)
        with pytest.raises(ValueError, match="cell 'baseline'.*two of kind 'updates'"):
            expand(tiny_spec(mechanisms=(UpdatesSpec(), UpdatesSpec(update_prob=0.5))))

    def test_speed_factors_must_match_the_sites(self):
        spec = tiny_spec(mechanisms=(HeterogeneousCPUSpec(cpu_speed_factors=(1.0, 2.0, 3.0)),))
        with pytest.raises(ValueError, match="cell 'baseline'.*3 speed factors for 2 sites"):
            expand(spec)
