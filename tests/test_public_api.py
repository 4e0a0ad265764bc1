"""Public-API surface tests: the package exports what the docs promise."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.app",
    "repro.attacks",
    "repro.cloud",
    "repro.core",
    "repro.device",
    "repro.identity",
    "repro.net",
    "repro.obs",
    "repro.secure",
    "repro.sim",
    "repro.vendors",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} in __all__ but missing"

    def test_top_level_quickstart_names(self):
        import repro

        for name in ("Deployment", "vendor", "run_attack", "evaluate_all_vendors",
                     "render_table_iii", "verify_all_baselines", "Outcome"):
            assert hasattr(repro, name)

    def test_version_is_set(self):
        import repro

        assert repro.__version__

    def test_readme_quickstart_executes(self):
        from repro import Deployment, vendor
        from repro.attacks import run_attack

        world = Deployment(vendor("D-LINK"), seed=7)
        world.victim_full_setup()
        assert world.shadow_state() == "control"
        report = run_attack(vendor("D-LINK"), "A1")
        assert report.outcome.value == "yes"
        assert report.evidence["stolen_schedule"]

    def test_cli_module_entrypoint_exists(self):
        from repro.cli import build_parser, main

        assert callable(main)
        args = build_parser().parse_args(["table1"])
        assert callable(args.run)
