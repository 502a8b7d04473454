"""The codec fails loudly on bad input, and the run carriers agree."""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.ablation.spec import load_study_spec, study_spec_from_dict
from repro.codec import ConfigError, decode, encode
from repro.experiments.parallel import ReplicationTask
from repro.experiments.runconfig import RunSettings
from repro.faults.plan import FaultPlan
from repro.model.config import paper_defaults
from repro.model.serialization import fault_plan_from_dict, workload_spec_from_dict
from repro.runner import RunSpec
from repro.workloads import PoissonOpen, WorkloadSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]
SMOKE = json.loads((ROOT / "studies" / "smoke.json").read_text(encoding="utf-8"))
OUTAGE = [{"site": 1, "at": 5.0, "duration": 2.0}]


class TestUnknownKeys:
    def test_misspelled_fault_plan_key_is_an_error(self):
        # Before, this decoded to the default plan: a faultless run.
        with pytest.raises(ConfigError, match="FaultPlan: unknown keys 'max_retry', 'site_outage'"):
            fault_plan_from_dict({"max_retry": 3, "site_outage": OUTAGE})

    def test_misspelled_arrival_key_is_an_error(self):
        data = {"arrivals": {"kind": "poisson", "rate": 0.1, "per_sit": False}}
        with pytest.raises(ConfigError, match=r"^arrivals: unknown key 'per_sit'$"):
            workload_spec_from_dict(data)

    def test_misspelled_study_setting_is_an_error(self):
        data = json.loads(json.dumps(SMOKE))
        data["settings"]["replication"] = 3
        with pytest.raises(ConfigError, match=r"^settings: unknown key 'replication'$"):
            study_spec_from_dict(data)

    def test_error_names_the_nested_path(self):
        data = json.loads(json.dumps(SMOKE))
        data["components"][1]["variants"][0]["faults"]["max_retry"] = 3
        with pytest.raises(
            ConfigError, match=r"^components\[1\]\.variants\[0\]\.faults: unknown key 'max_retry'$"
        ):
            study_spec_from_dict(data)

    def test_format_version_only_where_declared(self):
        data = json.loads(json.dumps(SMOKE))
        data["config"]["site"]["format_version"] = 1
        with pytest.raises(ConfigError, match="config.site: unknown key 'format_version'"):
            study_spec_from_dict(data)

    def test_correct_keys_still_decode(self):
        plan = fault_plan_from_dict({"max_retries": 3, "site_outages": OUTAGE})
        assert plan.max_retries == 3 and not plan.is_noop


class TestOneErrorType:
    def test_variant_without_name(self):
        data = json.loads(json.dumps(SMOKE))
        del data["components"][0]["variants"][0]["name"]
        with pytest.raises(
            ConfigError, match=r"^components\[0\]\.variants\[0\]: missing field 'name'$"
        ):
            study_spec_from_dict(data)

    def test_study_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_study_spec(path)

    def test_wrong_value_type_names_its_path(self):
        data = json.loads(json.dumps(SMOKE))
        data["settings"]["warmup"] = "long"
        with pytest.raises(ConfigError, match=r"^settings\.warmup: expected a number"):
            study_spec_from_dict(data)

    def test_unknown_arrival_kind(self):
        with pytest.raises(ConfigError, match="unknown arrival-process kind 'burst'"):
            decode(WorkloadSpec, {"arrivals": {"kind": "burst"}})


BAD_WINDOWS = [
    (-5.0, 10.0), (math.nan, 10.0), (math.inf, 10.0), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf)
]


class TestOneRunWindowCheck:
    @pytest.mark.parametrize("warmup, duration", BAD_WINDOWS)
    def test_every_carrier_rejects_a_bad_window(self, warmup, duration):
        for make in (
            lambda: RunSpec(warmup=warmup, duration=duration),
            lambda: RunSettings(warmup=warmup, duration=duration),
            lambda: decode(
                ReplicationTask,
                {
                    "config": encode(paper_defaults()),
                    "policy": "LERT",
                    "run": {"warmup": warmup, "duration": duration, "seed": 1},
                },
            ),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                make()

    def test_every_carrier_normalizes_noop_faults_and_closed_workload(self):
        default = dict(faults=FaultPlan(), workload=WorkloadSpec())
        for carrier in (
            RunSpec(**default),
            RunSettings(**default),
            ReplicationTask(paper_defaults(), "LERT", run=RunSpec(1.0, 2.0, **default)).run,
        ):
            assert (carrier.faults, carrier.workload) == (None, None)

    def test_open_workload_is_kept(self):
        spec = WorkloadSpec(arrivals=PoissonOpen(rate=0.1))
        assert RunSettings(workload=spec).workload == spec
