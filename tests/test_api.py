"""The package's public names: every ``__all__`` entry resolves."""

import importlib
import pkgutil

import heraldsim

# Names that only the tests called, removed in version 9.0.0; the tests
# keep g_factor and the two efficiency estimators in ``helpers``.
REMOVED = {
    "analysis": ("klyshko_efficiency", "herald_efficiency"),
    "qm": ("g_factor",),
    "pcsft": ("mean_first_passage",),
    "runner": ("segment_streams",),
}


def test_every_public_name_resolves_and_the_removed_ones_are_gone():
    modules = [heraldsim] + [importlib.import_module(f"heraldsim.{info.name}")
                             for info in pkgutil.iter_modules(heraldsim.__path__)]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}: {missing}"
    for module_name, names in REMOVED.items():
        module = importlib.import_module(f"heraldsim.{module_name}")
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
            assert not hasattr(heraldsim, name), name
            assert name not in heraldsim.__all__
    assert not hasattr(heraldsim.ClickStreams, "duration")
