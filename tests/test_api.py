"""The package's public names: every ``__all__`` entry resolves."""

import importlib
import pkgutil

import heraldsim

# Names that only the tests called, removed since version 9.0.0; the tests
# keep g_factor and the two efficiency estimators in ``helpers``.  The
# sampling_law wrappers went in 13.0.0: the runner calls each model's law
# function itself.  The pair pmf and the leading-order g2 predictions went
# in 16.0.0, when the report's law curve replaced the prediction band; the
# tests keep the predictions in ``helpers`` and take the pmf from scipy.
REMOVED = {
    "analysis": ("klyshko_efficiency", "herald_efficiency"),
    "qm": ("g_factor", "sampling_law", "pair_prob", "predicted_heralded_g2",
           "predicted_g2_band"),
    "pcsft": ("mean_first_passage", "sampling_law"),
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
    assert not hasattr(heraldsim.ClickStreams, "bools")
