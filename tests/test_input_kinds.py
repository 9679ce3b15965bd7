"""Which kinds of input each field and energy function takes, and what it
gives back for each: the result's type and bits, or the exception type.

A float stays a float (np.float64 stays np.float64) and never imports
numpy; an array or a list gives float64 arrays; a 0-d array and an int
give scalars.  float32 input is left out: it is not a documented kind.
"""

import numpy as np
import pytest

from accrete import treadmill
from accrete.diffusion import SteadyProfiles
from accrete.mechanics import ShellGeometry, fields_at
from accrete.strain_energy import NeoHookean

ENERGY = NeoHookean(1.0)
GEOM = ShellGeometry(1.0, 2.0)
PROFILES = SteadyProfiles(V0=1.0, V1=-0.5, mu0=0.25, geom=GEOM,
                          M_inner=1.0, M_outer=1.0, rhoR=1.0, mu_inf=1.0)
FUNCTIONS = {
    "fields_at.lam_r": lambda x: fields_at(x, GEOM, ENERGY).lam_r,
    "fields_at.lam_theta": lambda x: fields_at(x, GEOM, ENERGY).lam_theta,
    "fields_at.sigma_r": lambda x: fields_at(x, GEOM, ENERGY).sigma_r,
    "fields_at.sigma_theta": lambda x: fields_at(x, GEOM, ENERGY).sigma_theta,
    "SteadyProfiles.h": lambda x: PROFILES.h(x, side="below"),
    "SteadyProfiles.mu": PROFILES.mu,
    "NeoHookean.w": ENERGY.w,
    "NeoHookean.dw": ENERGY.dw,
    "NeoHookean.d2w": ENERGY.d2w,
    "treadmill.g": lambda x: treadmill.g(0.5, x, 1.0),
    "treadmill.h": lambda x: treadmill.h(x, 0.25, 2.0, ENERGY),
}
# 2 is r1, where sigma_r is exactly 0.
INPUTS = {"float": 1.5, "float64": np.float64(1.5), "int": 2, "0-d": np.array(1.5),
          "1-d": np.array([1.25, 2.0]), "list": [1.25, 2.0]}

# function, input kind, then the result's type and the float.hex of each
# element, or the exception raised
FROZEN = """
fields_at.lam_r        float    float 0x1.c71c71c71c71cp-2
fields_at.lam_r        float64  float64 0x1.c71c71c71c71cp-2
fields_at.lam_r        int      float 0x1.0000000000000p-2
fields_at.lam_r        0-d      float64 0x1.c71c71c71c71cp-2
fields_at.lam_r        1-d      ndarray[float64](2,) 0x1.47ae147ae147cp-1 0x1.0000000000000p-2
fields_at.lam_r        list     ndarray[float64](2,) 0x1.47ae147ae147cp-1 0x1.0000000000000p-2
fields_at.lam_theta    float    float 0x1.8000000000000p+0
fields_at.lam_theta    float64  float64 0x1.8000000000000p+0
fields_at.lam_theta    int      float 0x1.0000000000000p+1
fields_at.lam_theta    0-d      float64 0x1.8000000000000p+0
fields_at.lam_theta    1-d      ndarray[float64](2,) 0x1.4000000000000p+0 0x1.0000000000000p+1
fields_at.lam_theta    list     ndarray[float64](2,) 0x1.4000000000000p+0 0x1.0000000000000p+1
fields_at.sigma_r      float    float -0x1.aeb74f0329162p+0
fields_at.sigma_r      float64  float64 -0x1.aeb74f0329162p+0
fields_at.sigma_r      int      float 0x0.0p+0
fields_at.sigma_r      0-d      float64 -0x1.aeb74f0329162p+0
fields_at.sigma_r      1-d      ndarray[float64](2,) -0x1.21c91d14e3bcdp+1 0x0.0p+0
fields_at.sigma_r      list     ndarray[float64](2,) -0x1.21c91d14e3bcdp+1 0x0.0p+0
fields_at.sigma_theta  float    float 0x1.7add3c0ca4588p-2
fields_at.sigma_theta  float64  float64 0x1.7add3c0ca4588p-2
fields_at.sigma_theta  int      float 0x1.f800000000000p+1
fields_at.sigma_theta  0-d      float64 0x1.7add3c0ca4588p-2
fields_at.sigma_theta  1-d      ndarray[float64](2,) -0x1.1c6dc5d638865p+0 0x1.f800000000000p+1
fields_at.sigma_theta  list     ndarray[float64](2,) -0x1.1c6dc5d638865p+0 0x1.f800000000000p+1
SteadyProfiles.h       float    float -0x1.c71c71c71c71cp-2
SteadyProfiles.h       float64  float -0x1.c71c71c71c71cp-2
SteadyProfiles.h       int      float -0x1.0000000000000p-2
SteadyProfiles.h       0-d      float -0x1.c71c71c71c71cp-2
SteadyProfiles.h       1-d      ndarray[float64](2,) -0x1.47ae147ae147cp-1 -0x1.0000000000000p-2
SteadyProfiles.h       list     ndarray[float64](2,) -0x1.47ae147ae147cp-1 -0x1.0000000000000p-2
SteadyProfiles.mu      float    float 0x1.2aaaaaaaaaaabp-1
SteadyProfiles.mu      float64  float 0x1.2aaaaaaaaaaabp-1
SteadyProfiles.mu      int      float 0x1.8000000000000p-1
SteadyProfiles.mu      0-d      float 0x1.2aaaaaaaaaaabp-1
SteadyProfiles.mu      1-d      ndarray[float64](2,) 0x1.cccccccccccccp-2 0x1.8000000000000p-1
SteadyProfiles.mu      list     ndarray[float64](2,) 0x1.cccccccccccccp-2 0x1.8000000000000p-1
NeoHookean.w           float    float 0x1.b29161f9add3dp-1
NeoHookean.w           float64  float64 0x1.b29161f9add3dp-1
NeoHookean.w           int      float 0x1.4400000000000p+1
NeoHookean.w           0-d      float64 0x1.b29161f9add3dp-1
NeoHookean.w           1-d      ndarray[float64](2,) 0x1.11b71758e2197p-2 0x1.4400000000000p+1
NeoHookean.w           list     ndarray[float64](2,) 0x1.11b71758e2197p-2 0x1.4400000000000p+1
NeoHookean.dw          float    float 0x1.5e49beaee172dp+1
NeoHookean.dw          float64  float64 0x1.5e49beaee172dp+1
NeoHookean.dw          int      float 0x1.f800000000000p+1
NeoHookean.dw          0-d      float64 0x1.5e49beaee172dp+1
NeoHookean.dw          1-d      ndarray[float64](2,) 0x1.d83a53b8e4b88p+0 0x1.f800000000000p+1
NeoHookean.dw          list     ndarray[float64](2,) 0x1.d83a53b8e4b88p+0 0x1.f800000000000p+1
NeoHookean.d2w         float    float 0x1.705f8463bb2bep+1
NeoHookean.d2w         float64  float64 0x1.705f8463bb2bep+1
NeoHookean.d2w         int      float 0x1.1400000000000p+1
NeoHookean.d2w         0-d      float64 0x1.705f8463bb2bep+1
NeoHookean.d2w         1-d      ndarray[float64](2,) 0x1.27c5ac471b47ap+2 0x1.1400000000000p+1
NeoHookean.d2w         list     ndarray[float64](2,) 0x1.27c5ac471b47ap+2 0x1.1400000000000p+1
treadmill.g            float    float 0x1.b6db6db6db6dbp-1
treadmill.g            float64  float64 0x1.b6db6db6db6dbp-1
treadmill.g            int      float 0x1.999999999999ap-1
treadmill.g            0-d      float64 0x1.b6db6db6db6dbp-1
treadmill.g            1-d      ndarray[float64](2,) 0x1.d1745d1745d17p-1 0x1.999999999999ap-1
treadmill.g            list     ndarray[float64](2,) 0x1.d1745d1745d17p-1 0x1.999999999999ap-1
treadmill.h            float    float 0x1.5948b0fcd6e9ep-1
treadmill.h            float64  float64 0x1.5948b0fcd6e9ep-1
treadmill.h            int      float 0x1.8400000000000p+0
treadmill.h            0-d      float64 0x1.5948b0fcd6e9ep-1
treadmill.h            1-d      ndarray[float64](2,) 0x1.88db8bac710ccp-2 0x1.8400000000000p+0
treadmill.h            list     ndarray[float64](2,) 0x1.88db8bac710ccp-2 0x1.8400000000000p+0
"""
CASES = [line.split(None, 2) for line in FROZEN.strip().splitlines()]


def describe(f, x) -> str:
    try:
        y = f(x)
    except Exception as exc:
        return type(exc).__name__
    kind = type(y).__name__
    if isinstance(y, np.ndarray):
        kind += f"[{y.dtype}]{y.shape}"
    return " ".join([kind, *(v.hex() for v in np.ravel(y).tolist())])


@pytest.mark.parametrize("function, kind, want", CASES, ids=[f"{f}-{k}" for f, k, _ in CASES])
def test_input_kind_gives_the_frozen_type_and_bits(function, kind, want):
    assert describe(FUNCTIONS[function], INPUTS[kind]) == want
