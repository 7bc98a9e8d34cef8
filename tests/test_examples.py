"""The examples are part of the public contract: they must keep running.

Each example executes in-process (import + main()) against its baked-in
workload; assertions check the banner output they promise.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "Logical plan" in out
        assert "NFA baseline agrees" in out

    def test_traffic_congestion(self, capsys):
        out = run_example("traffic_congestion", capsys)
        assert "congestion alerts" in out
        assert "shards=4" in out

    def test_air_quality_monitoring(self, capsys):
        out = run_example("air_quality_monitoring", capsys)
        assert "[OR]" in out
        assert "FlinkCEP-style engine rejects" in out
        assert "both engines agree" in out

    def test_mapping_tour(self, capsys):
        out = run_example("mapping_tour", capsys)
        assert "Conjunction" in out and "Negated sequence" in out
        assert "SELECT *" in out

    def test_fleet_monitoring(self, capsys):
        out = run_example("fleet_monitoring", capsys)
        assert "One shared pass" in out
        assert "advisor:" in out

    def test_out_of_order_replay(self, capsys):
        out = run_example("out_of_order_replay", capsys)
        assert "EXACT" in out
        assert "lost" in out
