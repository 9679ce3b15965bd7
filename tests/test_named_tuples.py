"""The three named tuples that check their fields, ShellGeometry,
SteadyProfiles and cli.RunConfig, check them however one is built or
varied: by keywords, by position, by _make or by _replace.  A named tuple's
own _make and _replace skip a subclass's __new__, so each of the three
routes them through its constructor."""

import math
import re

import pytest

from accrete.cli import ConfigError, RunConfig
from accrete.diffusion import SteadyProfiles
from accrete.mechanics import ShellGeometry

INF, NAN = math.inf, math.nan
GOOD = {
    ShellGeometry: ShellGeometry(1.0, 2.0),
    SteadyProfiles: SteadyProfiles(1.0, 0.5, ShellGeometry(1.0, 2.0), 1.0, 1.0, 1.0),
    RunConfig: RunConfig(),
}
PROFILES_OVERFLOW = "^h or mu is not finite at some r >= r0$"
SCALES = r"^scale \w+ is not finite$|^diffusion length ellStar is out of the float range$"

# (class, the fields that differ from GOOD[class], the constructor's message)
CASES = [
    (ShellGeometry, {"r0": 0.0}, "^inner radius r0 must be positive$"),
    (ShellGeometry, {"r0": NAN}, "^inner radius r0 must be positive$"),
    (ShellGeometry, {"r1": 0.5}, "^outer radius r1 must not be below r0$"),
    (ShellGeometry, {"r1": NAN}, "^outer radius r1 must not be below r0$"),
    (ShellGeometry, {"r1": INF}, "^outer radius r1 must be finite$"),
    (ShellGeometry, {"r0": 1e-310}, "^radius ratio r1/r0 is out of the float range$"),
    (SteadyProfiles, {"M_inner": 0.0}, "^M_inner must be positive$"),
    (SteadyProfiles, {"M_inner": NAN}, "^M_inner must be positive$"),
    (SteadyProfiles, {"rhoR": -1.0}, "^rhoR must be positive$"),
    (SteadyProfiles, {"V0": INF}, PROFILES_OVERFLOW),
    (SteadyProfiles, {"V0": NAN}, PROFILES_OVERFLOW),
    (SteadyProfiles, {"mu0": INF}, PROFILES_OVERFLOW),
    (SteadyProfiles, {"M_inner": 5e-324}, PROFILES_OVERFLOW),  # mu's inside limit overflows
    (SteadyProfiles, {"mu_inf": -INF}, PROFILES_OVERFLOW),
    (RunConfig, {"energy_kind": "mooney-rivlin"}, "^unknown energy.kind 'mooney-rivlin'"),
    (RunConfig, {"G": 0.0}, "^shear modulus G must be positive and finite$"),
    (RunConfig, {"b0": 0.0}, "^b0 must be positive$"),
    (RunConfig, {"b1": -1.0}, "^b1 must be positive$"),
    (RunConfig, {"rhoR": NAN}, "^rhoR must be positive$"),
    (RunConfig, {"M_inner": 0.0}, "^M must be positive$"),
    (RunConfig, {"r0": -1.0}, "^r0 must be positive$"),
    (RunConfig, {"rhoR": 1e-200}, SCALES),
    (RunConfig, {"muR1": 1e308, "muR0": -1e308}, SCALES),
]


@pytest.mark.parametrize(
    "cls, bad, message", CASES, ids=[f"{c.__name__}-{'-'.join(b)}" for c, b, _ in CASES]
)
def test_every_way_to_build_or_vary_one_checks_its_fields(cls, bad, message):
    good = GOOD[cls]
    values = {**good._asdict(), **bad}
    with pytest.raises((ValueError, ConfigError), match=message) as built:
        cls(**values)
    error, text = type(built.value), f"^{re.escape(str(built.value))}$"
    ways = {
        "position": lambda: cls(*values.values()),
        "_make": lambda: cls._make(values.values()),
        "_make of an iterator": lambda: cls._make(iter(values.values())),
        "_replace": lambda: good._replace(**bad),
    }
    for way, make in ways.items():
        with pytest.raises(error, match=text):
            make()
            pytest.fail(f"{way} built {cls.__name__} from {bad}")


def test_a_varied_run_config_rebuilds_what_it_derives():
    cfg = RunConfig()._replace(G=2.0, r0=4.0)
    assert (cfg.params.energy.G, cfg.params.r0, cfg.scales.eta) == (2.0, 4.0, 2.0)
    assert RunConfig._make(cfg) == cfg and RunConfig._make(cfg).params.energy.G == 2.0
    for name in ("G", "params", "scales"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(cfg, name, 1.0)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(cfg, name)
