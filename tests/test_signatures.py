"""The public API's names and optional parameters, pinned.

Every parameter with a default is a switch that tests must cover in each of
its settings.  This list is the whole set: a new option, or a removed one,
is a deliberate edit here.  Every public name is reached by the library, an
acceptance gate or a benchmark workload, apart from the few that tests keep
as references, and so is every public method and property of a public class.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import qew

ROOT = Path(__file__).resolve().parents[1]

ALLOWED_DEFAULTS = {
    # the CLI's argv, and the run sizes and randomness of its subcommands
    "cli.main(argv)",
    "oracle.SamplerConfig(partition)",
    "oracle.SamplerConfig(seed)",
    "oracle.SamplerConfig(terms)",
    "oracle.random_blind_channel(index)",
    "oracle.sample_biseparable(index)",
    "oracle.sample_separable(index)",
    "zkp.run_protocol(workers)",
    # inputs with a natural empty or default value
    "networks.NetworkSpec(cp_gates)",
    "networks.generate_cluster(ch)",
    "oracle.bisect_threshold(tol)",
    "oracle.ppt_check(subset)",
    "qmat.Factor(power)",
    "qmat.site_operator(power)",
    "states.StateSpec(amplitudes)",
    "states.StateSpec(d)",
    "states.StateSpec(n)",
    "states.StateSpec(theta)",
    "witnesses.BatteryItem(companion)",
    "witnesses.WitnessReport(alt_bound)",
    "zkp.FixedOutcomesStrategy(outcomes)",
    "zkp.FixedOutcomesStrategy(verifier_qubit)",
    "zkp.HonestStrategy(channel)",
    "zkp.HonestStrategy(visibility)",
    "zkp.SeparableDiagStrategy(p0)",
    # tolerances of an evaluation, which the CLI sets
    "witnesses.evaluate_battery(eps_eq)",
    "witnesses.evaluate_battery(eps_nz)",
    "zkp.verify_transcript(z)",
}


def _public_objects():
    """``(module, name, object)`` for every function and class that a qew
    module lists in ``__all__`` and defines itself."""
    for info in pkgutil.iter_modules(qew.__path__):
        module = importlib.import_module(f"qew.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if not obj.__module__.startswith("qew"):
                continue  # a re-exported alias such as qmat.Array
            yield info.name, name, obj


def _public_defaults() -> set[str]:
    """``module.name(parameter)`` for every defaulted parameter of a public
    function or class."""
    return {
        f"{module}.{name}({p.name})"
        for module, name, obj in _public_objects()
        for p in inspect.signature(obj).parameters.values()
        if p.default is not inspect.Parameter.empty
    }


def test_optional_parameters_are_the_allowed_ones():
    # pytest lists the extra (new option) and missing (removed option) items
    assert _public_defaults() == ALLOWED_DEFAULTS


# Public names that only tests call, each with the reason it stays.
TEST_ONLY_NAMES = {
    # the dense reference that expectation() is tested against
    "qmat.realize_observable",
    # writes the text of the transcript round-trip and pinned-digest tests
    "zkp.format_transcript",
    # the round-trip oracle for the network JSON parser that the CLI reads
    "networks.network_to_dict",
}


def _referenced_names() -> set[str]:
    """Every name used in the library (its re-exports aside), the acceptance
    gates and the benchmark workloads: names, attributes and imports."""
    files = [p for p in (ROOT / "src" / "qew").glob("*.py") if p.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "bench").glob("*.py")]
    out = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add((node.asname or node.name).rpartition(".")[2])
    return out


def test_public_names_are_reached_outside_the_tests():
    referenced = _referenced_names()
    unreached = {
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(qew.__path__)
        for name in getattr(importlib.import_module(f"qew.{info.name}"), "__all__", ())
        if name not in referenced
    }
    assert unreached == TEST_ONLY_NAMES


def test_public_methods_are_reached_outside_the_tests():
    # every method and property a public class defines, by its own name
    referenced = _referenced_names()
    unreached = {
        f"{module}.{name}.{attr}"
        for module, name, obj in _public_objects()
        if inspect.isclass(obj)
        for attr, member in vars(obj).items()
        if not attr.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, (property, staticmethod, classmethod)))
        and attr not in referenced
    }
    assert unreached == set()
