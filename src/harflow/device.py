"""FPGA device profiles: resource budgets, clock, DMA bandwidth and fixed overheads."""

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction

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

    def __post_init__(self):
        for v in (self.dsp, self.bram, self.lut, self.ff):
            if v < 0:
                raise DeviceError(f"resource components must be >= 0, got {self}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.dsp + other.dsp,
            self.bram + other.bram,
            self.lut + other.lut,
            self.ff + other.ff,
        )

    def scaled(self, k: int) -> "ResourceVector":
        return ResourceVector(self.dsp * k, self.bram * k, self.lut * k, self.ff * k)

    def to_dict(self):
        return {"dsp": self.dsp, "bram": self.bram, "lut": self.lut, "ff": self.ff}


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    dsp_total: int
    bram_total: int  # 36Kb blocks
    lut_total: int
    ff_total: int
    clock_hz: int
    bw_in_words_per_cycle: Fraction = Fraction(DEFAULT_BW_WORDS_PER_CYCLE)
    bw_out_words_per_cycle: Fraction = Fraction(DEFAULT_BW_WORDS_PER_CYCLE)
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


def _overhead(name, doc, key, default) -> ResourceVector:
    try:
        return ResourceVector(**dict(default, **doc.get(key, {})))
    except TypeError:
        raise DeviceError(
            f"device '{name}': '{key}' must map keys from {sorted(default)} to numbers, "
            f"got {doc[key]!r}"
        ) from None


def load_profile(document: str) -> DeviceProfile:
    """Parse and validate a device JSON document (see docs/device-schema.md)."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise DeviceError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DeviceError(f"device document must be a JSON object, got {type(doc).__name__}")
    name = doc.get("name", "device")
    for key in ("dsp_total", "bram_total", "lut_total", "ff_total", "clock_mhz"):
        if key not in doc:
            raise DeviceError(f"device '{name}': missing field '{key}'")

    def integer(key):
        return _number(name, key, doc[key], int)

    def bandwidth(key):
        return _number(name, key, doc.get(key, DEFAULT_BW_WORDS_PER_CYCLE),
                       lambda v: Fraction(str(v)))

    return DeviceProfile(
        name=str(name),
        dsp_total=integer("dsp_total"),
        bram_total=integer("bram_total"),
        lut_total=integer("lut_total"),
        ff_total=integer("ff_total"),
        clock_hz=_number(name, "clock_mhz", doc["clock_mhz"], lambda v: int(round(float(v) * 1e6))),
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
