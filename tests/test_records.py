"""The records of accrete.records: one object per name wherever it is taken
from, the dataclass contract they had in accrete.treadmill, and one field
list shared by the records, the solver's tuples and the CLI's JSON."""

import dataclasses
import json
import pickle

import pytest

import accrete
from accrete import cli, records, treadmill
from accrete.strain_energy import NeoHookean


def names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


def default_params():
    return records.ModelParams(energy=NeoHookean(1.0), b0=1.0, b1=1.0, muR0=0.0, muR1=3.0,
                               mu_inf=2.5, rhoR=1.0, M=1.0, r0=1.0)


@pytest.mark.parametrize("name", records.__all__)
def test_each_name_is_one_object(name):
    assert getattr(accrete, name) is getattr(treadmill, name) is getattr(records, name)


def test_one_field_list_per_record(capsys):
    assert treadmill._SCALES == names(records.Scales) == cli._Scales._fields
    assert treadmill._STATE == names(records.TreadmillState)
    assert cli._Params._fields == names(records.ModelParams)
    for command in ("solve", "profiles"):
        assert cli.main([command, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (tuple(doc["scales"]), tuple(doc["state"])) == (treadmill._SCALES, treadmill._STATE)


def test_records_keep_their_contract():
    p = default_params()
    s, st = records.compute_scales(p), records.solve(p)
    # the repr text of the records as they were defined in accrete.treadmill
    assert repr(p) == ("ModelParams(energy=NeoHookean(G=1.0), b0=1.0, b1=1.0, muR0=0.0, muR1=3.0,"
                       " mu_inf=2.5, rhoR=1.0, M=1.0, r0=1.0)")
    assert repr(s) == "Scales(Vstar=1.5, Vstarstar=0.5, ellStar=2.0, muStar=1.5, eta=0.5)"
    assert repr(st) == (
        "TreadmillState(nu=1.4786636917559184, r1=1.4786636917559184, d=0.4786636917559184,"
        " V0=1.2910368444196476, V1=-1.2910368444196476, mu0=2.0820736888392952, mu1=2.5,"
        " f0=1.2910368444196476, f1=-1.2910368444196476)")
    for record in (p, s, st):
        assert dataclasses.is_dataclass(record)
        assert dataclasses.replace(record) == record
        assert dataclasses.astuple(record)[1:] == tuple(dataclasses.asdict(record).values())[1:]
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is type(record) and repr(again) == repr(record)
    assert pickle.loads(pickle.dumps(s)) == s and pickle.loads(pickle.dumps(st)) == st
    assert dataclasses.replace(p, r0=2.0).r0 == 2.0
    with pytest.raises(ValueError, match="r0 must be positive"):
        dataclasses.replace(p, r0=0.0)
    assert dataclasses.asdict(s) == dict(zip(treadmill._SCALES, treadmill._scale_values(p)))
    for frozen in (p, s):
        hash(frozen)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frozen, names(type(frozen))[-1], 1.0)
    assert st.__hash__ is None
    st.nu = 2.0
    assert st.nu == 2.0

