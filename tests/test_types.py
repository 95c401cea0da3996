"""Every constructor refuses a wrong-typed field with a DomainError, never a bare TypeError."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysel.errors import DomainError
from relaysel.experiments import ExperimentConfig
from relaysel.geometry import LensRegion, SectorRegion
from relaysel.pgf import InversionParams, SplitModel
from relaysel.simulator import EpisodeConfig

# values of no field's type: text, None, bools, complex numbers, and containers
_OTHER = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.complex_numbers(allow_nan=False, max_magnitude=10).filter(lambda z: z.imag != 0),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# a sequence of which at least one element is wrong
_BAD_ELEMENTS = st.lists(_OTHER, min_size=1, max_size=3)
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])

WRONG = {
    "int": st.one_of(_OTHER, st.floats(), _BAD_ELEMENTS),
    "real": st.one_of(_OTHER, _NOT_FINITE, _BAD_ELEMENTS),
    "ints": st.one_of(
        _OTHER.filter(lambda v: not isinstance(v, dict)),
        st.integers(),
        st.floats(),
        _BAD_ELEMENTS,
        st.lists(st.floats(allow_nan=False).filter(lambda x: not x.is_integer()), min_size=1),
    ),
    "reals": st.one_of(st.text(min_size=1, max_size=4), st.booleans(), st.integers(), st.floats(), _BAD_ELEMENTS,
                       st.lists(_NOT_FINITE, min_size=1, max_size=2)),
    "bool": st.one_of(st.text(max_size=4), st.none(), st.integers(), st.floats(), _BAD_ELEMENTS),
    "str": st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _BAD_ELEMENTS),
    "region": st.one_of(_OTHER, st.integers(), st.floats()),
}
# None is the default of an optional field, so it is not a wrong value there
OPTIONAL = {kind: WRONG[kind].filter(lambda v: v is not None) for kind in WRONG}

LENS = LensRegion()
EPISODE = {"protocol": "sta", "n": 3, "region": LENS}
CASES = [
    (SplitModel, {"n": 3}, {"n": "int", "q": "int", "p": "reals?"}),
    (InversionParams, {}, {"r": "real?", "gamma": "real"}),
    (EpisodeConfig, EPISODE, {
        "protocol": "str", "n": "int", "region": "region", "q": "int", "p": "reals?",
        "include_request_slot": "bool",
    }),
    (ExperimentConfig, {"experiment": "cri_pmf_sta"}, {
        "experiment": "str", "n_values": "ints", "q": "int", "p": "reals?", "r": "real", "rho": "real?",
        "aperture": "real", "replications": "int", "seed": "int", "skip": "bool",
    }),
    (SectorRegion, {}, {"radius": "real", "aperture": "real", "inner_radius": "real"}),
    (LensRegion, {}, {"radius": "real", "rho": "real?", "inner_rho": "real"}),
]
FIELDS = [
    pytest.param(cls, base, field, kind, id=f"{cls.__name__}.{field}")
    for cls, base, kinds in CASES
    for field, kind in kinds.items()
]


@pytest.mark.parametrize("cls,base,field,kind", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_wrong_typed_field_is_a_domain_error(cls, base, field, kind, data):
    values = OPTIONAL[kind[:-1]] if kind.endswith("?") else WRONG[kind]
    value = data.draw(values)
    with pytest.raises(DomainError, match=field):
        cls(**{**base, field: value})


def test_every_field_of_every_constructor_is_covered():
    for cls, _, kinds in CASES:
        assert set(kinds) == {f.name for f in dataclasses.fields(cls)}, cls


@pytest.mark.parametrize(
    "make",
    [
        lambda: SplitModel(n="3"),
        lambda: SplitModel(3, q=2.0),
        lambda: SplitModel(3, p=0.5),
        lambda: SplitModel(n=2.5),
        lambda: EpisodeConfig("sta", "3", LensRegion()),
        lambda: EpisodeConfig("sta", 3, LensRegion(), include_request_slot="x"),
        lambda: ExperimentConfig("cri_pmf_sta", replications="x"),
        lambda: ExperimentConfig("cri_pmf_sta", n_values=3),
        lambda: ExperimentConfig("cri_pmf_sta", seed="a"),
        lambda: LensRegion(radius="1"),
    ],
)
def test_reported_wrong_types_are_domain_errors(make):
    with pytest.raises(DomainError):
        make()


def test_checked_fields_are_normalised():
    # an int in a float field is held as a float, and a list as a tuple
    cfg = ExperimentConfig("cri_pmf_sta", n_values=[2, 3], r=1, p=[1, 0])
    assert (cfg.n_values, cfg.r, cfg.p) == ((2, 3), 1.0, (1.0, 0.0))
    assert type(cfg.r) is float
    same = ExperimentConfig("cri_pmf_sta", n_values=(2, 3), r=1.0, p=(1.0, 0.0))
    assert cfg.config_hash() == same.config_hash()
    assert type(LensRegion(radius=2).radius) is float
