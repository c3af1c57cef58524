"""The bundled model descriptors.

The bundled models are the JSON documents under `src/harflow/data/models/`
(see docs/model-schema.md): a C3D-like network, an R(2+1)D-like residual
network, a small toy chain and a "multishape" fixture whose layers
deliberately differ in depth/channels so that padded execution on shared
nodes is expensive.
"""

from importlib import resources


def bundled_model_names() -> list:
    entries = resources.files("harflow").joinpath("data/models").iterdir()
    return sorted(p.name[:-5] for p in entries if p.name.endswith(".json"))


def bundled_model_text(name: str) -> str:
    return resources.files("harflow").joinpath(f"data/models/{name}.json").read_text()
