"""Public-API consistency: every ``__all__`` name resolves, and the
documented entry points exist with their documented signatures."""

import importlib
import inspect

import pytest

SUBPACKAGES = [
    "repro",
    "repro.algebra",
    "repro.graphs",
    "repro.paths",
    "repro.routing",
    "repro.core",
    "repro.lowerbounds",
    "repro.protocols",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert getattr(module, name, None) is not None, f"{module_name}.{name}"


def test_top_level_lazy_submodules():
    import repro

    for name in ("routing", "core", "lowerbounds", "protocols"):
        assert inspect.ismodule(getattr(repro, name))
    with pytest.raises(AttributeError):
        repro.nonexistent_submodule


def test_documented_entry_points():
    """The README's advertised API surface."""
    from repro.algebra import RoutingAlgebra, WidestPath
    from repro.core import build_scheme, classify, evaluate_scheme, investigate
    from repro.graphs import assign_random_weights, erdos_renyi
    from repro.routing import RIBScheme, memory_report

    assert callable(build_scheme) and callable(classify)
    assert callable(evaluate_scheme) and callable(investigate)
    assert issubclass(WidestPath, RoutingAlgebra)

    signature = inspect.signature(build_scheme)
    assert list(signature.parameters)[:2] == ["graph", "algebra"]
    assert signature.parameters["mode"].default == "auto"


def test_version_and_metadata():
    import repro

    assert repro.__version__ == "4.0.0"
    assert "Compact Policy Routing" in (repro.__doc__ or "")


def test_exception_hierarchy():
    from repro.exceptions import (
        AlgebraError,
        DeliveryError,
        GraphError,
        NotApplicableError,
        ReproError,
        RoutingError,
    )

    for exc in (AlgebraError, GraphError, NotApplicableError, RoutingError):
        assert issubclass(exc, ReproError)
    assert issubclass(DeliveryError, RoutingError)


def test_cli_policies_cover_catalog():
    """Every Table 1 policy plus the compressible BGP levels are routable
    from the command line."""
    from repro.cli import POLICIES

    expected = {
        "shortest-path", "widest-path", "most-reliable-path", "usable-path",
        "widest-shortest-path", "shortest-widest-path",
        "bgp-provider-customer", "bgp-valley-free", "bgp-prefer-customer",
    }
    assert expected <= set(POLICIES)
