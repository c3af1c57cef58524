"""FPGA device profiles: resource budgets, clock, DMA bandwidth and fixed overheads."""

import json
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from .model_ir import strict

# Measured infrastructure costs of the DMA pair and one crossbar; used as
# defaults when a profile does not override them.
DEFAULT_DMA_OVERHEAD = {"dsp": 0, "bram": 51, "lut": 2900, "ff": 4700}
DEFAULT_XBAR_OVERHEAD = {"dsp": 0, "bram": 0, "lut": 1700, "ff": 1400}

# Default DMA bandwidth in 16-bit words per cycle per direction. The real
# figure is board and memory-controller dependent; 8 words/cycle is about
# 3.2 GB/s per DMA at 200 MHz. Overridable per profile.
DEFAULT_BW_WORDS_PER_CYCLE = 8


class DeviceError(ValueError):
    """Raised on malformed device documents."""


@dataclass(frozen=True)
class ResourceVector:
    dsp: int = 0
    bram: int = 0
    lut: int = 0
    ff: int = 0

    def to_dict(self):
        return {name: getattr(self, name) for name in RESOURCES}


RESOURCES = tuple(f.name for f in fields(ResourceVector))  # dsp, bram, lut, ff


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    dsp_total: int
    bram_total: int  # 36Kb blocks
    lut_total: int
    ff_total: int
    clock_hz: int
    bw_in_words_per_cycle: Fraction = DEFAULT_BW_WORDS_PER_CYCLE  # an int when whole
    bw_out_words_per_cycle: Fraction = DEFAULT_BW_WORDS_PER_CYCLE
    dma_overhead: ResourceVector = field(
        default_factory=lambda: ResourceVector(**DEFAULT_DMA_OVERHEAD)
    )
    xbar_overhead: ResourceVector = field(
        default_factory=lambda: ResourceVector(**DEFAULT_XBAR_OVERHEAD)
    )

    def __post_init__(self):
        for name in ("dsp_total", "bram_total", "lut_total", "ff_total", "clock_hz"):
            if getattr(self, name) <= 0:
                raise DeviceError(f"device '{self.name}': {name} must be > 0")
        if self.bw_in_words_per_cycle <= 0 or self.bw_out_words_per_cycle <= 0:
            raise DeviceError(f"device '{self.name}': bandwidths must be > 0")

    @property
    def budgets(self) -> ResourceVector:
        return ResourceVector(self.dsp_total, self.bram_total, self.lut_total, self.ff_total)

    def with_dsp_cap(self, cap: int) -> "DeviceProfile":
        return replace(self, dsp_total=min(self.dsp_total, cap))

    def to_dict(self):
        return {
            "name": self.name,
            "dsp_total": self.dsp_total,
            "bram_total": self.bram_total,
            "lut_total": self.lut_total,
            "ff_total": self.ff_total,
            "clock_mhz": self.clock_hz / 1e6,
            "bw_in_words_per_cycle": str(self.bw_in_words_per_cycle),
            "bw_out_words_per_cycle": str(self.bw_out_words_per_cycle),
            "dma_overhead": self.dma_overhead.to_dict(),
            "xbar_overhead": self.xbar_overhead.to_dict(),
        }


def _number(name, key, value, convert):
    try:
        return convert(value)
    except (ArithmeticError, TypeError, ValueError):
        raise DeviceError(f"device '{name}': '{key}' must be a number, got {value!r}") from None


def _hz(mhz) -> int:
    """Hz of a `clock_mhz` value, a JSON number: a bool or a string is not one."""
    if type(mhz) not in (int, float):
        raise TypeError(mhz)
    return int(round(float(mhz) * 1e6))


def _bandwidth(value):
    """A bandwidth as an int when whole, which `perf_model.roofline` splits and
    `schedule_latency` compares much faster than a Fraction; else a Fraction."""
    bw = Fraction(str(value))
    return bw.numerator if bw.denominator == 1 else bw


def _overhead(name, doc, key, default) -> ResourceVector:
    """The overhead `key` of the profile: `default` with the given values, each
    an integer >= 0, so every resource sum of a design is >= 0."""
    given = doc.get(key, {})
    if type(given) is not dict or not given.keys() <= default.keys():
        raise DeviceError(
            f"device '{name}': '{key}' must map keys from {sorted(default)} to integers, "
            f"got {given!r}"
        )
    return ResourceVector(**{
        k: strict(given.get(k, v), int, f"device '{name}': '{key}.{k}'", DeviceError, least=0)
        for k, v in default.items()})


def load_profile(document: str) -> DeviceProfile:
    """Parse and validate a device JSON document (see `read_profile`)."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise DeviceError(f"invalid JSON: {exc}") from exc
    return read_profile(doc)


def read_profile(doc) -> DeviceProfile:
    """The validated profile of a decoded device document (see
    docs/device-schema.md), such as a design's `device` member."""
    if not isinstance(doc, dict):
        raise DeviceError(f"device document must be a JSON object, got {type(doc).__name__}")
    name = doc.get("name", "device")
    for key in ("dsp_total", "bram_total", "lut_total", "ff_total", "clock_mhz"):
        if key not in doc:
            raise DeviceError(f"device '{name}': missing field '{key}'")

    def bandwidth(key):
        return _number(name, key, doc.get(key, DEFAULT_BW_WORDS_PER_CYCLE), _bandwidth)

    budgets = {key: strict(doc[key], int, f"device '{name}': '{key}'", DeviceError)
               for key in ("dsp_total", "bram_total", "lut_total", "ff_total")}
    return DeviceProfile(
        name=str(name),
        **budgets,
        clock_hz=_number(name, "clock_mhz", doc["clock_mhz"], _hz),
        bw_in_words_per_cycle=bandwidth("bw_in_words_per_cycle"),
        bw_out_words_per_cycle=bandwidth("bw_out_words_per_cycle"),
        dma_overhead=_overhead(name, doc, "dma_overhead", DEFAULT_DMA_OVERHEAD),
        xbar_overhead=_overhead(name, doc, "xbar_overhead", DEFAULT_XBAR_OVERHEAD),
    )


def load_bundled_profile(name: str) -> DeviceProfile:
    """Load one of the device profiles shipped with the package."""
    from importlib import resources

    path = resources.files("harflow").joinpath(f"data/devices/{name}.json")
    return load_profile(path.read_text())


def bundled_profile_names() -> list:
    from importlib import resources

    entries = resources.files("harflow").joinpath("data/devices").iterdir()
    return sorted(p.name[:-5] for p in entries if p.name.endswith(".json"))
