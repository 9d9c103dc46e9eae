"""The whole-program model: module names, resolution, usage, liveness."""

import pytest

from repro.analysis import ProjectModel, SourceFile, module_name_for


def _model(*files, reference=()):
    sources = [
        SourceFile.from_text(text, relpath=relpath) for relpath, text in files
    ]
    references = [
        SourceFile.from_text(text, relpath=relpath)
        for relpath, text in reference
    ]
    return ProjectModel.build(sources, references)


class TestModuleNames:
    @pytest.mark.parametrize(
        "relpath,expected",
        [
            ("src/repro/simulator/service.py", "repro.simulator.service"),
            ("src/repro/core/__init__.py", "repro.core"),
            ("src/repro/__init__.py", "repro"),
            ("scripts/bench_runtime.py", "scripts.bench_runtime"),
            ("tests/analysis/conftest.py", "tests.analysis.conftest"),
        ],
    )
    def test_derivation(self, relpath, expected):
        assert module_name_for(relpath) == expected

    def test_non_module_paths(self):
        assert module_name_for("README.md") is None
        assert module_name_for("src/has-dash/x.py") is None

    def test_source_import_table_is_absolute(self):
        # The one table every rule and the model read: relative imports
        # resolve against the file's package, and stay dotted (so they
        # match no absolute catalog entry) when the path is no module.
        source = SourceFile.from_text(
            "import numpy as np\nimport os.path\n"
            "from . import errors\nfrom ..core import model as m\n",
            relpath="src/repro/simulator/x.py",
        )
        assert source.imports == {
            "np": "numpy",
            "os": "os",
            "errors": "repro.simulator.errors",
            "m": "repro.core.model",
        }
        loose = SourceFile.from_text(
            "from . import time\n", relpath="src/has-dash/x.py"
        )
        assert loose.imports == {"time": "..time"}

    def test_collision_lands_in_skipped(self):
        model = _model(
            ("src/repro/a.py", "X = 1\n"),
            ("repro/a.py", "X = 2\n"),
        )
        assert len(model.modules) == 1
        assert any("collides" in reason for _, reason in model.skipped)

    def test_parse_failure_lands_in_skipped(self):
        model = _model(("src/repro/bad.py", "def broken(:\n"))
        assert model.modules == {}
        [(relpath, reason)] = model.skipped
        assert relpath == "src/repro/bad.py"
        assert "does not parse" in reason


FACADE = """\
from .impl import thing

__all__ = ["thing"]
"""

IMPL = """\
def thing():
    return 1


def helper():
    return thing()
"""


class TestResolution:
    def test_through_facade_chain(self):
        model = _model(
            ("src/pkg/sub/__init__.py", FACADE),
            ("src/pkg/sub/impl.py", IMPL),
        )
        resolution = model.resolve_dotted("pkg.sub.thing")
        assert resolution.kind == "function"
        assert resolution.fq == "pkg.sub.impl.thing"

    def test_external_and_broken(self):
        model = _model(("src/pkg/sub/__init__.py", FACADE))
        assert model.resolve_dotted("os.path.join").kind == "external"
        broken = model.resolve_dotted("pkg.sub.thing")
        assert not broken.resolved
        assert broken.broken_chain

    def test_relative_imports_absolutized(self):
        model = _model(
            ("src/pkg/deep/mod.py", "from ..util import helper\n"),
            ("src/pkg/util.py", "def helper():\n    return 1\n"),
        )
        module = model.modules["pkg.deep.mod"]
        assert module.imports["helper"] == "pkg.util.helper"
        assert model.resolve_name(module, "helper").fq == "pkg.util.helper"

    def test_symbol_shadowing_submodule_wins(self):
        # ``from .sweep import sweep`` rebinds the submodule's name on
        # the package: attribute access must yield the function.
        model = _model(
            ("src/pkg/__init__.py", "from .sweep import sweep\n"),
            ("src/pkg/sweep.py", "def sweep():\n    return 1\n"),
        )
        resolution = model.resolve_dotted("pkg.sweep")
        assert resolution.kind == "function"
        assert resolution.fq == "pkg.sweep.sweep"

    def test_unshadowed_submodule_stays_a_module(self):
        model = _model(
            ("src/pkg/__init__.py", "from . import sweep\n"),
            ("src/pkg/sweep.py", "def run():\n    return 1\n"),
        )
        assert model.resolve_dotted("pkg.sweep").kind == "module"


CLASSY = """\
class Device:
    def service(self):
        return 1


class Host:
    def __init__(self, device: Device):
        self.device = device

    def run(self):
        return self.device.service()
"""


class TestClassStructure:
    def test_attr_type_from_annotated_param(self):
        model = _model(("src/pkg/hw.py", CLASSY))
        host = model.modules["pkg.hw"].classes["Host"]
        resolved = model.attr_type(host, "device")
        assert resolved is not None and resolved.name == "Device"

    def test_find_method_through_mro(self):
        model = _model(
            (
                "src/pkg/hw.py",
                "class Base:\n"
                "    def ping(self):\n"
                "        return 1\n"
                "\n"
                "\n"
                "class Leaf(Base):\n"
                "    pass\n",
            )
        )
        leaf = model.modules["pkg.hw"].classes["Leaf"]
        method = model.find_method(leaf, "ping")
        assert method is not None
        assert method.fq == "pkg.hw.Base.ping"


class TestUsageAndLiveness:
    def test_usage_index_sees_reference_sources(self):
        model = _model(
            ("src/pkg/sub/__init__.py", FACADE),
            ("src/pkg/sub/impl.py", IMPL),
            reference=(
                (
                    "tests/test_thing.py",
                    "from pkg.sub import thing\n\n\n"
                    "def test_thing():\n    assert thing() == 1\n",
                ),
            ),
        )
        usage = model.usage_index()
        assert "tests.test_thing" in usage["pkg.sub.impl.thing"]

    def test_definition_refs_connect_function_to_result_class(self):
        model = _model(
            (
                "src/pkg/api.py",
                "class Result:\n"
                "    pass\n"
                "\n"
                "\n"
                "def compute():\n"
                "    return Result()\n",
            )
        )
        refs = model.definition_refs()
        assert refs["pkg.api.compute"] == ["pkg.api.Result"]

    def test_loose_refs_see_registry_wiring(self):
        model = _model(
            (
                "src/pkg/reg.py",
                "REGISTRY = {}\n"
                "\n"
                "\n"
                "def handler():\n"
                "    return 1\n"
                "\n"
                "\n"
                "REGISTRY.setdefault('h', handler)\n",
            )
        )
        assert "pkg.reg.handler" in model.loose_refs()

    def test_string_mentions_skip_all_lists(self):
        model = _model(
            (
                "src/pkg/__init__.py",
                "from .impl import thing\n\n"
                "__all__ = ['thing']\n",
            ),
            ("src/pkg/impl.py", IMPL),
            reference=(
                (
                    "tests/test_dyn.py",
                    "import pkg\n\n\n"
                    "def test_dyn():\n"
                    "    assert getattr(pkg, 'thing')() == 1\n",
                ),
            ),
        )
        mentions = model.string_mentions()
        # The getattr literal counts; the __all__ entry does not.
        assert mentions["thing"] == ["tests.test_dyn"]
