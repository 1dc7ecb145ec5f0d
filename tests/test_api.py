import dataclasses
import importlib
import inspect

from relayosc.config import DEFAULTS

MODULES = ("analyzer", "certificates", "cli", "lti", "simulate", "variation")


def public_signatures():
    """(qualified name, parameter names) of every function, class and public method in the modules' ``__all__``."""
    for name in MODULES:
        module = importlib.import_module(f"relayosc.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            members = [(attr, obj)]
            if inspect.isclass(obj):
                members += [
                    (f"{attr}.{m}", getattr(obj, m))
                    for m in vars(obj)
                    if not m.startswith("_") and inspect.isroutine(getattr(obj, m))
                ]
            for qualified, fn in members:
                try:
                    yield f"{module.__name__}.{qualified}", inspect.signature(fn).parameters
                except ValueError:  # exception classes: builtin constructors have no signature
                    continue


def test_no_tolerance_knob_but_the_steady_state_one():
    # every tail tolerance is derived from the plant; --detect-tol sets the only tolerance left
    knobs = {(name, p) for name, params in public_signatures() for p in params if p in ("tol", "eps")}
    assert knobs == {("relayosc.simulate.detect_period", "tol"), ("relayosc.simulate.classify", "tol")}
    assert not {"tol", "eps"} & {f.name for f in dataclasses.fields(DEFAULTS)}


def test_the_steady_state_tolerance_has_one_home():
    # the library defaults and --detect-tol read the same object, DEFAULTS.detect_tol, not an equal literal
    from relayosc.simulate import classify, detect_period

    for fn in (detect_period, classify):
        assert inspect.signature(fn).parameters["tol"].default is DEFAULTS.detect_tol
