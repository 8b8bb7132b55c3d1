"""Smoke tests: every example script runs end-to-end and says what it should.

Examples are documentation that executes; these tests keep them honest as
the library evolves. They run the example mains in-process (faster than
subprocesses, and coverage-visible).
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # examples import sibling-free; register before exec for dataclass pickling
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "IceClave vs Host" in out
        assert "paper: 2.31x avg" in out

    def test_attack_demo_blocks_everything(self, capsys):
        load_example("attack_demo").main()
        out = capsys.readouterr().out
        assert "All attacks of the threat model were blocked." in out
        assert out.count("BLOCKED") >= 3
        assert out.count("DETECTED") >= 2

    def test_tpch_offload(self, capsys):
        load_example("tpch_offload").main()
        out = capsys.readouterr().out
        assert "tpch-q3 breakdown" in out
        assert "average" in out

    def test_multi_tenant(self, capsys):
        load_example("multi_tenant").main()
        out = capsys.readouterr().out
        assert "Figure 17" in out and "Figure 18" in out
        assert "paper: 21.4%" in out

    def test_custom_workload(self, capsys):
        load_example("custom_workload").main()
        out = capsys.readouterr().out
        assert "top-3 items" in out
        assert "attestation: TEE measurement verified" in out
        assert "trojaned TEE rejected" in out

    def test_ssd_substrate(self, capsys):
        load_example("ssd_substrate").main()
        out = capsys.readouterr().out
        assert "write amplification" in out
        assert "pages verify" in out

    def test_all_examples_covered(self):
        """Every example file has a smoke test in this module."""
        scripts = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
        test_names = [
            name[len("test_"):]
            for name in dir(TestExamples)
            if name.startswith("test_") and name != "test_all_examples_covered"
        ]
        missing = {
            script
            for script in scripts
            if not any(t.startswith(script) for t in test_names)
        }
        assert not missing, f"examples without smoke tests: {missing}"


def test_top_level_api_resolves_lazily():
    import repro

    # where each name is defined; a dict and a str do not record it
    homes = {"ALL_WORKLOADS": "repro.workloads.base", "__version__": "repro"}
    for name in repro.__all__:
        value = getattr(repro, name)
        home = homes[name] if name in homes else value.__module__
        assert getattr(importlib.import_module(home), name) is value, name
        assert vars(repro)[name] is value  # resolved once, then a plain global
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError):
        repro.no_such_name
