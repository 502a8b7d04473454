"""Config patches by dotted path, and CSV export of a grid study.

A sweep is a grid study (:func:`~repro.ablation.catalog.grid_study`):
named points — here, values of one config parameter — crossed with
policies.  This module holds the two pieces a sweep needs besides the
grid itself:

* :func:`set_config_parameter` — the one place a config patch is applied
  (study variants, grid points).  Parameters are addressed by dotted path
  into the config dataclasses (``"site.mpl"``, ``"network.msg_length"``,
  ``"num_sites"``, ...), and each patched value is checked against the
  field's type exactly as a config file would be.
* :func:`write_csv` — one row per executed cell of a one-parameter grid.

Example — how does the paper's story change with slower disks?::

    spec = grid_study(
        "disk-speed",
        config=paper_defaults(),
        settings=STANDARD,
        points=[
            (f"{t:g}", {"config_patches": (("site.disk_time", t),)})
            for t in (0.5, 1.0, 2.0)
        ],
        policies=("LOCAL", "BNQ", "LERT"),
    )
    write_csv(GridOutcome(run_study(spec)), "disk_speed.csv")
"""

from __future__ import annotations

import csv
import dataclasses
import pathlib
from typing import TYPE_CHECKING, Any, Union

from repro.codec import check_field
from repro.model.config import SystemConfig

if TYPE_CHECKING:
    from repro.ablation.catalog import GridOutcome


def set_config_parameter(
    config: SystemConfig, dotted_path: str, value: Any
) -> SystemConfig:
    """Return a copy of *config* with the dotted-path field replaced.

    Supports one level of nesting (``section.field``) over the frozen
    dataclass structure; top-level fields use the bare name.  An unknown
    path is a ``KeyError``; a value of the wrong type is a
    :class:`~repro.codec.ConfigError` naming *dotted_path*.
    """
    parts = dotted_path.split(".")
    if len(parts) == 1:
        field = parts[0]
        if field not in {f.name for f in dataclasses.fields(config)}:
            raise KeyError(f"SystemConfig has no field {field!r}")
        value = check_field(type(config), field, value, dotted_path)
        return dataclasses.replace(config, **{field: value})
    if len(parts) == 2:
        section_name, field = parts
        if section_name not in {f.name for f in dataclasses.fields(config)}:
            raise KeyError(f"SystemConfig has no section {section_name!r}")
        section = getattr(config, section_name)
        if not dataclasses.is_dataclass(section):
            raise KeyError(f"{section_name!r} is not a nested config section")
        if field not in {f.name for f in dataclasses.fields(section)}:
            raise KeyError(f"{section_name} has no field {field!r}")
        value = check_field(type(section), field, value, dotted_path)
        return dataclasses.replace(
            config, **{section_name: dataclasses.replace(section, **{field: value})}
        )
    raise KeyError(f"unsupported parameter path {dotted_path!r}")


#: Columns exported per cell, in order.
CSV_COLUMNS = (
    "sweep",
    "parameter",
    "value",
    "policy",
    "mean_waiting_time",
    "mean_response_time",
    "fairness",
    "subnet_utilization",
    "cpu_utilization",
    "disk_utilization",
    "remote_fraction",
    "completions",
)


def write_csv(grid: "GridOutcome", path: Union[str, pathlib.Path]) -> None:
    """Export every cell of a one-parameter grid as one CSV row.

    Rows follow the grid's point-major order; ``parameter`` is the one
    config path the grid's points patch and ``value`` its value in the
    cell (columns: :data:`CSV_COLUMNS`).
    """
    spec = grid.outcome.spec
    parameter = grid.parameter()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for point in grid.points:
            value = grid.config(point)
            for part in parameter.split("."):
                value = getattr(value, part)
            for policy in grid.policies:
                m = grid.cell(point, policy).metrics
                writer.writerow(
                    [
                        spec.name,
                        parameter,
                        value,
                        policy,
                        f"{m.waiting_time:.6g}",
                        f"{m.response_time:.6g}",
                        "" if m.fairness is None else f"{m.fairness:.6g}",
                        f"{m.subnet_utilization:.6g}",
                        f"{m.cpu_utilization:.6g}",
                        f"{m.disk_utilization:.6g}",
                        f"{m.remote_fraction:.6g}",
                        m.completions,
                    ]
                )


__all__ = ["set_config_parameter", "write_csv", "CSV_COLUMNS"]
