"""Built-in studies: the repository's tables and ablations as committed specs.

Each builder returns a frozen :class:`~repro.ablation.spec.StudySpec`
parameterized only by run settings (and, for the sweeps, the values they
sweep), so the committed JSON under ``studies/`` is exactly
``build_study(name, STANDARD)`` — ``tools/gen_studies.py --check`` pins
that equivalence in CI.

* ``core`` — the A1–A4 component-importance study: one baseline (LERT on
  the paper's configuration) against the disk-organization toggle (A1),
  load-information staleness (A2), the MVA response-time estimator (A3),
  and the allocation-information ladder LOCAL → RANDOM → BNQ → BNQRD
  (the simulation-side counterpart of A4's tie-break question, whose
  exact tie-break comparison is analytic — see
  ``repro.analysis.improvement``).
* ``stale-info`` / ``disk-organization`` / ``update-fraction`` /
  ``heterogeneity`` / ``subnet-scaling`` — the extension ablations that
  :mod:`repro.experiments.ablations` renders.
* ``smoke`` — a seconds-long study (tiny runs; fault, open-workload and
  composed-mechanism variants included) for CI's cache-determinism
  check.
* ``table8`` … ``table12``, ``msg``, ``failures``, ``open`` — the paper's
  §5 simulations and the two extension tables, each one Table 7
  parameter (or fault plan, or arrival process) swept across the
  allocation policies; their modules under :mod:`repro.experiments`
  only render them.

Every grid — a set of named points crossed with a set of policies — is
built by :func:`grid_study` and read back through :class:`GridOutcome`,
the one place that knows which grid cell is the study's baseline.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.ablation.spec import Component, StudySpec, Variant
from repro.ablation.study import CellOutcome, StudyOutcome
from repro.experiments.report import improvement_pct
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.experiments.sweep import set_config_parameter
from repro.extensions import HeterogeneousCPUSpec, StaleLoadInfoSpec, UpdatesSpec
from repro.faults.plan import FaultPlan, RandomOutages, SiteOutage
from repro.model.config import DISK_PER_DISK, DISK_SHARED, SystemConfig, paper_defaults
from repro.workloads.arrivals import MMPP, PoissonOpen
from repro.workloads.spec import AdmissionControl, WorkloadSpec, estimate_site_capacity

#: One grid point: a name and its overrides, keyed like the
#: :class:`~repro.ablation.spec.Variant` fields they set
#: (``config_patches``, ``mechanisms``, ``faults``, ``workload``).
Point = Tuple[str, Mapping[str, Any]]

_POINT_KEYS = frozenset({"config_patches", "mechanisms", "faults", "workload"})


def _overridden(overrides: Mapping[str, Any]) -> Set[str]:
    """What a point sets: its override keys and its patched config paths."""
    keys = set(overrides) - {"config_patches"}
    return keys | {path for path, _ in overrides.get("config_patches", ())}


def grid_study(
    name: str,
    *,
    config: SystemConfig,
    settings: RunSettings,
    points: Sequence[Point],
    policies: Sequence[str],
    metric: str = "waiting_time",
    title: Optional[str] = None,
    description: str = "",
    component_description: str = "",
) -> StudySpec:
    """A study of every point under every policy, with common random numbers.

    The baseline is the first point under the first policy: its config
    patches go into the study config, its mechanisms into the study's
    mechanism list, and its fault plan or workload into the run
    settings.  Every other cell is a variant named ``"{point}-{policy}"``,
    in point-major order, carrying its point's overrides and its policy,
    all in one component named after the study.  A later point must set
    everything the first point sets, or it would silently inherit the
    first point's value.
    """
    if not points or not policies:
        raise ValueError(f"grid {name!r} needs at least one point and one policy")
    first_name, first = points[0]
    for point, overrides in points:
        unknown = set(overrides) - _POINT_KEYS
        if unknown:
            raise ValueError(
                f"grid {name!r}, point {point!r}: unknown overrides {sorted(unknown)}"
            )
        inherited = _overridden(first) - _overridden(overrides)
        if inherited:
            raise ValueError(
                f"grid {name!r}, point {point!r} leaves {sorted(inherited)} "
                "to the first point; every point must set them"
            )
    for dotted_path, value in first.get("config_patches", ()):
        config = set_config_parameter(config, dotted_path, value)
    settings = dataclasses.replace(
        settings, **{key: first[key] for key in ("faults", "workload") if key in first}
    )
    variants = tuple(
        Variant(name=f"{point}-{policy}", policy=policy, **overrides)
        for point, overrides in points
        for policy in policies
        if (point, policy) != (first_name, policies[0])
    )
    return StudySpec(
        name=name,
        title=title,
        description=description,
        metric=metric,
        config=config,
        policy=policies[0],
        mechanisms=first.get("mechanisms", ()),
        settings=settings,
        components=(
            Component(name=name, description=component_description, variants=variants),
        ),
    )


class GridOutcome:
    """An executed :func:`grid_study`, read cell by cell as (point, policy).

    :meth:`cell` is the only code that maps the baseline back to its grid
    position.  A one-policy grid never names its first point (that cell
    is the baseline, and only variants carry names), so there the first
    point is listed as ``"baseline"`` and any point no variant names
    looks up the baseline.
    """

    def __init__(self, outcome: StudyOutcome) -> None:
        spec = outcome.spec
        (component,) = spec.components
        self.outcome = outcome
        self._variants: Dict[Tuple[str, str], Variant] = {}
        self._cells: Dict[Tuple[str, str], CellOutcome] = {}
        for variant, cell in zip(component.variants, outcome.cells):
            assert variant.policy is not None, "grid variants name their policy"
            key = (variant.name[: -len(variant.policy) - 1], variant.policy)
            self._variants[key] = variant
            self._cells[key] = cell
        policies = [spec.policy]
        points: List[str] = []
        for point, policy in self._cells:
            if policy not in policies:
                policies.append(policy)
            if point not in points:
                points.append(point)
        self.policies: Tuple[str, ...] = tuple(policies)
        if len(policies) == 1:
            points.insert(0, "baseline")
        self.points: Tuple[str, ...] = tuple(points)

    def cell(self, point: str, policy: str) -> CellOutcome:
        """The executed cell of *point* under *policy*."""
        found = self._cells.get((point, policy))
        if found is not None:
            return found
        if policy == self.policies[0] and (
            point == self.points[0]
            or (len(self.policies) == 1 and point not in self.points)
        ):
            return self.outcome.baseline
        raise KeyError(
            f"grid {self.outcome.spec.name!r} has no cell ({point!r}, {policy!r})"
        )

    def waiting(self, point: str, policy: str) -> float:
        """Mean waiting time W of one cell."""
        return self.cell(point, policy).metrics.waiting_time

    def gain(self, point: str, policy: str, over: str) -> float:
        """Percent W improvement of *policy* over *over* at *point*."""
        return improvement_pct(self.waiting(point, policy), self.waiting(point, over))

    def config(self, point: str) -> SystemConfig:
        """The system config every cell of *point* runs."""
        if point not in self.points:
            raise KeyError(f"grid {self.outcome.spec.name!r} has no point {point!r}")
        config = self.outcome.spec.config
        variant = next(
            (v for (p, _), v in self._variants.items() if p == point), None
        )
        if variant is not None:  # None: the first point, already in the config
            for dotted_path, value in variant.config_patches:
                config = set_config_parameter(config, dotted_path, value)
        return config

    def parameter(self) -> str:
        """The one config path the grid's points patch."""
        paths = {
            path for v in self._variants.values() for path, _ in v.config_patches
        }
        if len(paths) != 1:
            raise ValueError(
                f"grid {self.outcome.spec.name!r} patches {sorted(paths)}, "
                "not exactly one config parameter"
            )
        return paths.pop()


def core_study(settings: RunSettings = STANDARD) -> StudySpec:
    """The A1–A4 component-importance study (committed as studies/core.json)."""
    return StudySpec(
        name="core",
        title="Core component importance (A1-A4)",
        description=(
            "One-at-a-time ablation of the reproduction's modeling "
            "choices against the LERT baseline: disk-queue organization "
            "(A1), load-information staleness (A2), the MVA estimator "
            "(A3), and how much allocation information the policy uses "
            "(the LOCAL/RANDOM/BNQ/BNQRD ladder; A4's exact tie-break "
            "comparison is analytic and lives in repro.analysis)."
        ),
        metric="response_time",
        config=paper_defaults(),
        policy="LERT",
        settings=settings,
        components=(
            Component(
                name="disk-organization",
                description="per-disk FCFS queues vs one shared queue (A1)",
                variants=(
                    Variant(
                        name="shared-queue",
                        config_patches=(("disk_organization", DISK_SHARED),),
                    ),
                ),
            ),
            Component(
                name="load-info-staleness",
                description="periodically refreshed load snapshots (A2)",
                variants=tuple(
                    Variant(
                        name=f"refresh-{interval:g}",
                        mechanisms=(StaleLoadInfoSpec(refresh_interval=interval),),
                    )
                    for interval in (25.0, 100.0, 400.0)
                ),
            ),
            Component(
                name="estimator",
                description="heuristic LERT estimate vs exact MVA (A3)",
                variants=(Variant(name="lert-mva", policy="LERT-MVA"),),
            ),
            Component(
                name="allocation-information",
                description=(
                    "how much load information the allocator uses "
                    "(none / random / queue depth / randomized depth)"
                ),
                variants=(
                    Variant(name="local", policy="LOCAL"),
                    Variant(name="random", policy="RANDOM"),
                    Variant(name="bnq", policy="BNQ"),
                    Variant(name="bnqrd", policy="BNQRD"),
                ),
            ),
        ),
    )


def stale_info_study(
    settings: RunSettings = STANDARD,
    intervals: Tuple[float, ...] = (0.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0),
    policy: str = "LERT",
) -> StudySpec:
    """The staleness sweep: informed policy vs LOCAL as snapshots age."""
    return StudySpec(
        name="stale-info",
        title="Load-information staleness (A2)",
        description=(
            f"{policy} on periodically refreshed load snapshots, against "
            "an uninformed LOCAL baseline; the collapse interval is the "
            "first refresh interval at which staleness costs more than "
            "the information is worth."
        ),
        metric="waiting_time",
        config=paper_defaults(),
        policy="LOCAL",
        settings=settings,
        components=(
            Component(
                name="load-information",
                description="snapshot refresh interval (0 = always current)",
                variants=tuple(
                    Variant(
                        name=f"refresh-{interval:g}",
                        policy=policy,
                        mechanisms=(StaleLoadInfoSpec(refresh_interval=interval),),
                    )
                    for interval in intervals
                ),
            ),
        ),
    )


def disk_organization_study_spec(
    settings: RunSettings = STANDARD,
    policies: Tuple[str, ...] = ("LOCAL", "BNQ", "LERT"),
) -> StudySpec:
    """The A1 sweep: every policy under both disk organizations."""
    return grid_study(
        "disk-organization",
        title="Disk organization (A1)",
        description=(
            "Per-disk FCFS queues (the paper's Figure 2) vs one shared "
            "multi-server disk queue, for every policy."
        ),
        component_description="disk-queue organization x policy grid",
        config=paper_defaults(),
        settings=settings,
        points=[
            (DISK_PER_DISK, {}),
            (DISK_SHARED, {"config_patches": (("disk_organization", DISK_SHARED),)}),
        ],
        policies=policies,
    )


def update_fraction_study(
    settings: RunSettings = STANDARD,
    fractions: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.4),
) -> StudySpec:
    """The read-only-footnote sweep: update propagation vs the benefit."""
    return grid_study(
        "update-fraction",
        title="Update fraction (read-only assumption relaxed)",
        description=(
            "LOCAL and LERT as a growing fraction of queries propagate "
            "asynchronous replica updates."
        ),
        component_description="update probability x policy grid",
        config=paper_defaults(),
        settings=settings,
        points=[
            (f"f{fraction:g}", {"mechanisms": (UpdatesSpec(update_prob=fraction),)})
            for fraction in fractions
        ],
        policies=("LOCAL", "LERT"),
    )


def heterogeneity_study_spec(
    settings: RunSettings = STANDARD,
    speed_factors: Tuple[float, ...] = (0.5, 0.5, 1.0, 1.0, 2.0, 2.0),
) -> StudySpec:
    """The homogeneity-assumption sweep: policies on unequal CPUs."""
    mechanism = HeterogeneousCPUSpec(cpu_speed_factors=speed_factors)
    return StudySpec(
        name="heterogeneity",
        title="Heterogeneous CPU speeds",
        description=(
            "Policies on a fleet with unequal CPU speeds; response time "
            "is compared because heterogeneity changes realized service "
            "times."
        ),
        metric="response_time",
        config=paper_defaults(num_sites=len(mechanism.cpu_speed_factors)),
        policy="LOCAL",
        mechanisms=(mechanism,),
        settings=settings,
        components=(
            Component(
                name="allocation-policy",
                description="who knows about the speed difference",
                variants=(
                    Variant(name="bnq", policy="BNQ"),
                    Variant(name="lert", policy="LERT"),
                    Variant(name="lert-het", policy="LERT-HET"),
                ),
            ),
        ),
    )


def subnet_scaling_study(
    settings: RunSettings = STANDARD,
    site_counts: Tuple[int, ...] = (2, 4, 6, 8, 10),
) -> StudySpec:
    """Table 11's sweep on the shared ring vs a point-to-point mesh."""
    return grid_study(
        "subnet-scaling",
        title="Subnet scaling (ring vs mesh)",
        description=(
            "Table 11's site-count sweep on the paper's shared ring and "
            "on a point-to-point mesh whose capacity grows with the "
            "fleet, separating channel congestion from the allocation "
            "benefit."
        ),
        component_description="subnet kind x site count x policy grid",
        config=paper_defaults(),
        settings=settings,
        points=[
            (
                f"{subnet}-{num_sites}",
                {
                    "config_patches": (
                        ("num_sites", num_sites),
                        ("network.subnet_kind", subnet),
                    )
                },
            )
            for subnet in ("ring", "mesh")
            for num_sites in site_counts
        ],
        policies=("LOCAL", "LERT"),
    )


# ----------------------------------------------------------------------
# The simulated tables: one Table 7 parameter (or fault plan, or arrival
# process) swept across the allocation policies.
# ----------------------------------------------------------------------

#: Table 8's think times, Table 9's and Table 10's mpl values, Table 11's
#: site counts, Table 12's class_io_prob values, E8's message lengths.
THINK_TIMES: Tuple[float, ...] = (150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0)
MPL_VALUES: Tuple[int, ...] = (15, 20, 25, 30, 35)
CAPACITY_MPL_GRID: Tuple[int, ...] = tuple(range(6, 41, 2))
SITE_COUNTS: Tuple[int, ...] = (2, 4, 6, 8, 10)
IO_PROBS: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
MSG_LENGTHS: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)

#: Mean time between failures per site (smaller = failures more
#: frequent); ``None`` is the faultless row.
FAILURE_MTBFS: Tuple[Optional[float], ...] = (None, 4000.0, 2000.0, 1000.0)

#: Mean time to repair one crashed site.
MTTR = 50.0

#: The failures grid's point for the faultless row.
FAULTLESS = "none"

#: Per-site offered load as a fraction of estimated service capacity
#: (the last level is past saturation — only admission control keeps it
#: stable), and the arrival processes of the open grid.
LOAD_FACTORS: Tuple[float, ...] = (0.5, 0.8, 1.1)
ARRIVAL_KINDS: Tuple[str, ...] = ("poisson", "mmpp")

#: Per-site admission limit (admitted open queries in the system).
MAX_PENDING = 32

#: MMPP shape: a lull phase at 0.2x and a burst phase at 1.8x the target
#: rate, equal mean holding times — same long-run rate as the Poisson
#: cell at the same load factor, but delivered in flash crowds.
MMPP_RATE_SPLIT: Tuple[float, float] = (0.2, 1.8)
MMPP_MEAN_HOLDING: Tuple[float, float] = (400.0, 400.0)

_ALL_POLICIES = ("LOCAL", "BNQ", "BNQRD", "LERT")


def _patch_grid(
    name: str,
    title: str,
    description: str,
    settings: RunSettings,
    dotted_path: str,
    values: Sequence[Any],
    policies: Tuple[str, ...],
) -> StudySpec:
    """A grid over one config parameter, each point named by its value."""
    return grid_study(
        name,
        title=title,
        description=description,
        component_description=f"{dotted_path} x policy grid",
        config=paper_defaults(),
        settings=settings,
        points=[
            (f"{value:g}", {"config_patches": ((dotted_path, value),)})
            for value in values
        ],
        policies=policies,
    )


def table8_study(
    settings: RunSettings = STANDARD, think_times: Tuple[float, ...] = THINK_TIMES
) -> StudySpec:
    """Table 8: waiting time versus think time, every policy."""
    return _patch_grid(
        "table8",
        "Table 8: waiting time versus think time",
        "LOCAL, BNQ, BNQRD and LERT across the paper's think times.",
        settings,
        "site.think_time",
        think_times,
        _ALL_POLICIES,
    )


def table9_study(
    settings: RunSettings = STANDARD, mpl_values: Tuple[int, ...] = MPL_VALUES
) -> StudySpec:
    """Table 9: waiting time versus multiprogramming level."""
    return _patch_grid(
        "table9",
        "Table 9: waiting time versus mpl",
        "LOCAL, BNQ, BNQRD and LERT across terminals per site.",
        settings,
        "site.mpl",
        mpl_values,
        _ALL_POLICIES,
    )


def table10_study(
    settings: RunSettings = STANDARD, mpl_grid: Tuple[int, ...] = CAPACITY_MPL_GRID
) -> StudySpec:
    """Table 10's response-time curves: LOCAL and LERT over an mpl grid."""
    return _patch_grid(
        "table10",
        "Table 10: maximum mpl versus response time",
        "LOCAL and LERT response time over an mpl grid, from which the "
        "largest mpl meeting each response-time bound is read.",
        settings,
        "site.mpl",
        mpl_grid,
        ("LOCAL", "LERT"),
    )


def table11_study(
    settings: RunSettings = STANDARD, site_counts: Tuple[int, ...] = SITE_COUNTS
) -> StudySpec:
    """Table 11: waiting time and subnet utilization versus sites."""
    return _patch_grid(
        "table11",
        "Table 11: waiting time and subnet utilization versus number of sites",
        "LOCAL, BNQ and LERT as the number of DB sites grows.",
        settings,
        "num_sites",
        site_counts,
        ("LOCAL", "BNQ", "LERT"),
    )


def table12_study(
    settings: RunSettings = STANDARD, io_probs: Tuple[float, ...] = IO_PROBS
) -> StudySpec:
    """Table 12: W and fairness versus the I/O-bound class probability."""
    return grid_study(
        "table12",
        title="Table 12: W and F versus class_io_prob",
        description="LOCAL, BNQ and LERT across the class mix.",
        component_description="class_io_prob x policy grid",
        config=paper_defaults(),
        settings=settings,
        points=[
            (f"{prob:g}", {"config_patches": (("class_probs", (prob, 1.0 - prob)),)})
            for prob in io_probs
        ],
        policies=("LOCAL", "BNQ", "LERT"),
    )


def msg_study(
    settings: RunSettings = STANDARD, msg_lengths: Tuple[float, ...] = MSG_LENGTHS
) -> StudySpec:
    """E8: BNQRD and LERT against BNQ as messages grow longer."""
    return _patch_grid(
        "msg",
        "Message-length sensitivity",
        "BNQ, BNQRD and LERT across message lengths (§5.2 text).",
        settings,
        "network.msg_length",
        msg_lengths,
        ("BNQ", "BNQRD", "LERT"),
    )


def failure_plan(mtbf: float, mttr: float = MTTR) -> FaultPlan:
    """A plan crashing every site independently at rate ``1/mtbf``."""
    return FaultPlan(random_outages=(RandomOutages(mtbf=mtbf, mttr=mttr),))


def failures_study(
    settings: RunSettings = STANDARD,
    mtbfs: Tuple[Optional[float], ...] = FAILURE_MTBFS,
) -> StudySpec:
    """F1: every policy under stochastic site crashes of rising rate.

    The faultless point overrides nothing, so the run settings' own
    fault plan (``--faults``) still reaches it.
    """
    return grid_study(
        "failures",
        title=f"Mean waiting time W under site failures (MTTR={MTTR:g})",
        description="Policies under a crash/recovery process at every site.",
        component_description="site MTBF x policy grid",
        config=paper_defaults(),
        settings=settings,
        points=[
            (FAULTLESS, {}) if mtbf is None else (f"{mtbf:g}", {"faults": failure_plan(mtbf)})
            for mtbf in mtbfs
        ],
        policies=_ALL_POLICIES,
    )


def workload_for(kind: str, rate: float) -> WorkloadSpec:
    """The workload of one open-grid point (*rate* is per site)."""
    if kind == "poisson":
        arrivals: Any = PoissonOpen(rate=rate)
    elif kind == "mmpp":
        lull, burst = MMPP_RATE_SPLIT
        arrivals = MMPP(rates=(lull * rate, burst * rate), mean_holding=MMPP_MEAN_HOLDING)
    else:
        raise ValueError(f"unknown arrival kind {kind!r}")
    return WorkloadSpec(
        arrivals=arrivals, admission=AdmissionControl(max_pending=MAX_PENDING)
    )


def open_study(
    settings: RunSettings = STANDARD,
    load_factors: Tuple[float, ...] = LOAD_FACTORS,
    kinds: Tuple[str, ...] = ARRIVAL_KINDS,
) -> StudySpec:
    """E2: every policy under open arrivals with admission control.

    Each point's per-site rate is ``factor * estimate_site_capacity``
    of the paper's configuration, stored in the spec.
    """
    config = paper_defaults()
    capacity = estimate_site_capacity(config)
    return grid_study(
        "open",
        title="Open-system workloads",
        description=(
            "Policies under Poisson and MMPP arrivals at fractions of the "
            f"estimated per-site capacity, max_pending={MAX_PENDING}."
        ),
        component_description="arrival process x load factor x policy grid",
        metric="response_time",
        config=config,
        settings=settings,
        points=[
            (f"{kind}@{factor:g}", {"workload": workload_for(kind, factor * capacity)})
            for kind in kinds
            for factor in load_factors
        ],
        policies=_ALL_POLICIES,
    )


#: Run settings of the CI smoke study: seconds, not minutes.
SMOKE_SETTINGS = RunSettings(warmup=100.0, duration=400.0, replications=1)


def smoke_study(settings: RunSettings = SMOKE_SETTINGS) -> StudySpec:
    """A seconds-long study exercising every cell flavor (CI smoke)."""
    config = paper_defaults(num_sites=3, mpl=5)
    return StudySpec(
        name="smoke",
        title="CI smoke study",
        description=(
            "Tiny runs covering the policy, fault, open-workload and "
            "composed-mechanism cell flavors; CI runs it twice through "
            "the cache and asserts the second pass is all hits with a "
            "byte-identical report."
        ),
        metric="response_time",
        config=config,
        policy="LERT",
        settings=settings,
        components=(
            Component(
                name="allocation",
                description="uninformed allocation",
                variants=(Variant(name="local", policy="LOCAL"),),
            ),
            Component(
                name="faults",
                description="one mid-run site outage",
                variants=(
                    Variant(
                        name="site-outage",
                        faults=FaultPlan(
                            site_outages=(
                                SiteOutage(site=1, at=200.0, duration=100.0),
                            )
                        ),
                    ),
                ),
            ),
            Component(
                name="workload",
                description="open Poisson arrivals with admission control",
                variants=(
                    Variant(
                        name="open-poisson",
                        workload=WorkloadSpec(
                            arrivals=PoissonOpen(rate=0.03),
                            admission=AdmissionControl(max_pending=8),
                        ),
                    ),
                ),
            ),
            Component(
                name="mechanisms",
                description="stale load information composed with updates",
                variants=(
                    Variant(
                        name="stale-updates",
                        mechanisms=(
                            StaleLoadInfoSpec(refresh_interval=50.0),
                            UpdatesSpec(update_prob=0.2),
                        ),
                    ),
                ),
            ),
        ),
    )


_BUILDERS: Dict[str, Callable[[RunSettings], StudySpec]] = {
    "core": core_study,
    "stale-info": stale_info_study,
    "disk-organization": disk_organization_study_spec,
    "update-fraction": update_fraction_study,
    "heterogeneity": heterogeneity_study_spec,
    "subnet-scaling": subnet_scaling_study,
    "smoke": smoke_study,
    "table8": table8_study,
    "table9": table9_study,
    "table10": table10_study,
    "table11": table11_study,
    "table12": table12_study,
    "msg": msg_study,
    "failures": failures_study,
    "open": open_study,
}


def study_names() -> Tuple[str, ...]:
    """Names of the built-in studies, in catalog order."""
    return tuple(_BUILDERS)


def build_study(name: str, settings: RunSettings = STANDARD) -> StudySpec:
    """Build one built-in study at the given run settings.

    The smoke study ignores *settings* scale conventions and always uses
    its own tiny :data:`SMOKE_SETTINGS` unless explicitly overridden —
    call ``smoke_study(settings)`` directly for that.
    """
    if name == "smoke":
        return smoke_study()
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown study {name!r}; choose from {', '.join(_BUILDERS)}"
        ) from None
    return builder(settings)


__all__ = [
    "Point",
    "grid_study",
    "GridOutcome",
    "THINK_TIMES",
    "MPL_VALUES",
    "CAPACITY_MPL_GRID",
    "SITE_COUNTS",
    "IO_PROBS",
    "MSG_LENGTHS",
    "FAILURE_MTBFS",
    "MTTR",
    "FAULTLESS",
    "LOAD_FACTORS",
    "ARRIVAL_KINDS",
    "MAX_PENDING",
    "MMPP_RATE_SPLIT",
    "MMPP_MEAN_HOLDING",
    "SMOKE_SETTINGS",
    "core_study",
    "stale_info_study",
    "disk_organization_study_spec",
    "update_fraction_study",
    "heterogeneity_study_spec",
    "subnet_scaling_study",
    "smoke_study",
    "table8_study",
    "table9_study",
    "table10_study",
    "table11_study",
    "table12_study",
    "msg_study",
    "failures_study",
    "open_study",
    "failure_plan",
    "workload_for",
    "build_study",
    "study_names",
]
