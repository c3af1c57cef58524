import json
from fractions import Fraction

import pytest

from harflow.device import (
    DeviceError,
    DeviceProfile,
    ResourceVector,
    bundled_profile_names,
    load_bundled_profile,
    load_profile,
)


def test_bundled_profiles_load():
    names = bundled_profile_names()
    assert "zcu102" in names and "vc709" in names
    for name in names:
        dev = load_bundled_profile(name)
        assert dev.name == name
        assert dev.dsp_total > 0 and dev.clock_hz > 0


def test_zcu102_budget_values():
    dev = load_bundled_profile("zcu102")
    assert dev.dsp_total == 2520
    assert dev.clock_hz == 200_000_000
    assert dev.bw_in_words_per_cycle == Fraction(8)
    # a whole bandwidth is read as an int, and written back as "8"
    assert type(dev.bw_in_words_per_cycle) is int
    assert dev.to_dict()["bw_in_words_per_cycle"] == "8"


def test_profile_round_trip():
    """Every bundled profile loads again from its `to_dict` form, the `device` of
    a design.json: `clock_mhz` a float (200.0), bandwidths strings ("8")."""
    for name in bundled_profile_names():
        dev = load_bundled_profile(name)
        again = load_profile(json.dumps(dev.to_dict()))
        assert again == dev


def test_bandwidth_accepts_fraction_strings():
    doc = json.dumps({
        "name": "x", "dsp_total": 100, "bram_total": 10, "lut_total": 1000,
        "ff_total": 2000, "clock_mhz": 100, "bw_in_words_per_cycle": "15/2",
    })
    dev = load_profile(doc)
    assert dev.bw_in_words_per_cycle == Fraction(15, 2)
    assert type(dev.bw_out_words_per_cycle) is int


def test_missing_field_rejected():
    with pytest.raises(DeviceError, match="missing field"):
        load_profile(json.dumps({"name": "x", "dsp_total": 1}))
    with pytest.raises(DeviceError, match="invalid JSON"):
        load_profile("{not json")


@pytest.mark.parametrize("document", ["[1, 2]", "3", "null", '"zcu102"'])
def test_non_object_document_rejected(document):
    with pytest.raises(DeviceError, match="must be a JSON object"):
        load_profile(document)


@pytest.mark.parametrize("field, value", [
    ("dsp_total", "abc"),
    ("dsp_total", None),
    ("clock_mhz", "fast"),
    ("bw_in_words_per_cycle", "x"),
    ("dma_overhead", [1]),
    ("dma_overhead", {"foo": 1}),
    # budgets and overheads are JSON integers and the clock a JSON number:
    # none is truncated or coerced
    ("dsp_total", 2.5),
    ("dsp_total", True),
    ("dsp_total", "12"),
    ("clock_mhz", True),
    ("clock_mhz", "200"),
    ("dma_overhead", {"bram": 2.7}),
    ("dma_overhead", {"lut": True}),
    # overheads are read as integers >= 0, so no resource sum is negative
    ("dma_overhead", {"bram": -1}),
    ("xbar_overhead", {"lut": -5}),
])
def test_malformed_field_rejected(field, value):
    doc = dict(load_bundled_profile("zcu102").to_dict(), **{field: value})
    with pytest.raises(DeviceError, match=field):
        load_profile(json.dumps(doc))


def test_with_dsp_cap_never_raises_budget():
    dev = load_bundled_profile("zcu102")
    assert dev.with_dsp_cap(512).dsp_total == 512
    assert dev.with_dsp_cap(99999).dsp_total == dev.dsp_total


def test_default_overheads():
    dev = load_bundled_profile("zcu102")
    assert dev.dma_overhead == ResourceVector(dsp=0, bram=51, lut=2900, ff=4700)
    assert dev.xbar_overhead == ResourceVector(dsp=0, bram=0, lut=1700, ff=1400)
