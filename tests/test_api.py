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


def test_every_defaulted_parameter_is_pinned():
    # a default is a knob: adding one, or changing what it defaults to, has to change this census;
    # the float defaults are the steady-state tolerance, the geometric gain and the dead zone, a model input
    defaults = {
        (name, p.name): repr(p.default)
        for name, params in public_signatures()
        for p in params.values()
        if p.default is not inspect.Parameter.empty
    }
    assert defaults == {
        ("relayosc.analyzer.OscillationReport", "oracle_pmax"): "0",
        ("relayosc.analyzer.OscillationReport", "oracle_diff"): "<factory>",
        ("relayosc.analyzer.OscillationReport", "violations"): "<factory>",
        ("relayosc.analyzer.brute_force_fixed_points", "cap"): repr(DEFAULTS.oracle_cap),
        ("relayosc.analyzer.find_oscillations", "pmax"): "None",
        ("relayosc.analyzer.find_oscillations", "oracle_pmax"): "0",
        ("relayosc.certificates.VariationBoundVerdict", "unconditional"): "False",
        ("relayosc.cli.main", "argv"): "None",
        ("relayosc.lti.ImpulseResponse.geometric", "gain"): "1.0",
        ("relayosc.lti.MonotoneDecayVerdict", "notes"): "()",
        ("relayosc.lti.PlantSpec", "dead_zone"): "0.0",
        ("relayosc.lti.PlantSpec.from_response", "delay"): "0",
        ("relayosc.lti.PlantSpec.from_response", "dead_zone"): "0.0",
        ("relayosc.simulate.detect_period", "tol"): repr(DEFAULTS.detect_tol),
        ("relayosc.simulate.classify", "tol"): repr(DEFAULTS.detect_tol),
    }
    # retired knobs stay retired, with or without a default
    names = {p for _, params in public_signatures() for p in params}
    assert not {"prune_sign_symmetric", "slack", "divergence_factor", "window"} & names


def test_the_steady_state_tolerance_has_one_home():
    # the library defaults and --detect-tol read the same object, DEFAULTS.detect_tol, not an equal literal
    from relayosc.simulate import classify, detect_period

    for fn in (detect_period, classify):
        assert inspect.signature(fn).parameters["tol"].default is DEFAULTS.detect_tol
