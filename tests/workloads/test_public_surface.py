"""The workload API surface: ``repro.workloads`` is the one entry point."""


class TestPublicSurface:
    def test_package_reexports_workload_api(self):
        import repro

        for name in (
            "WorkloadSpec",
            "WorkloadSummary",
            "WorkloadError",
            "AdmissionControl",
            "ArrivalProcess",
            "ClosedTerminals",
            "PoissonOpen",
            "MMPP",
            "DiurnalRate",
            "TraceDriven",
            "save_workload_spec",
            "load_workload_spec",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_workloads_package_exports_protocol_members(self):
        from repro import workloads

        for name in (
            "ArrivalProcess",
            "ArrivalSpec",
            "PhaseTrack",
            "WorkloadDriver",
            "next_thinned_gap",
            "normalize_workload",
            "start_workload",
            "estimate_site_capacity",
            "launch_closed_terminals",
            "terminal_process",
        ):
            assert hasattr(workloads, name), name

    def test_builtin_arrivals_satisfy_the_protocol(self):
        from repro.workloads import (
            ArrivalProcess,
            ClosedTerminals,
            DiurnalRate,
            MMPP,
            PoissonOpen,
            TraceDriven,
        )

        instances = (
            ClosedTerminals(),
            PoissonOpen(rate=0.1),
            MMPP(rates=(0.1, 0.2), mean_holding=(10.0, 10.0)),
            DiurnalRate(base_rate=0.1, amplitude=0.5, period=100.0),
            TraceDriven(arrivals=((0.0, 0),)),
        )
        for instance in instances:
            assert isinstance(instance, ArrivalProcess), instance
