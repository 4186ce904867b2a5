"""Multi-model registry: named engines behind one submission API.

A :class:`ModelRegistry` maps request-routable names to
:class:`~repro.serve.InferenceEngine` instances, so one server can host many
deployment variants at once — the same architecture at the ILP-assigned
mixed-precision policy and at a uniform bit width, or the same weights in
float and integer engine modes.

Two sharing rules keep variants from cross-contaminating:

* Registering the same *model object* under two names is allowed only when
  the entries differ in engine ``mode`` (float vs integer) — those engines
  read the same weights and bit assignment, which is exactly what "serve both
  domains of one checkpoint" means.  Hosting two *bit-width* variants
  requires two model instances, because ``set_bits`` is per-layer state; the
  registry refuses the ambiguous case loudly instead of serving one
  assignment under two names.
* Engines are not thread-safe; the registry is the unit of worker pinning —
  :class:`~repro.serve.frontend.ModelServer` runs exactly one worker thread
  per entry, so an engine never sees concurrent ``predict`` calls.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..engine import InferenceEngine

__all__ = ["ModelEntry", "ModelRegistry"]


@dataclass
class ModelEntry:
    """One hosted model variant: a name, its engine, and a description."""

    name: str
    engine: InferenceEngine
    description: str = ""

    @property
    def model(self):
        return self.engine.model

    @property
    def mode(self) -> str:
        return self.engine.mode


class ModelRegistry:
    """Thread-safe mapping of serving names to inference engines."""

    def __init__(self) -> None:
        self._entries: "Dict[str, ModelEntry]" = {}
        self._lock = threading.Lock()

    def register(
        self,
        name: str,
        model=None,
        *,
        mode: str = "float",
        batch_size: int = 64,
        engine: Optional[InferenceEngine] = None,
        description: str = "",
    ) -> ModelEntry:
        """Host ``model`` (or a pre-built ``engine``) under ``name``.

        Exactly one of ``model`` and ``engine`` must be given.  Duplicate
        names are refused; so is re-registering the same model object in the
        same engine mode under a different name (see the module docstring).
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"model name must be a non-empty string, got {name!r}")
        if (model is None) == (engine is None):
            raise ValueError("pass exactly one of `model` or `engine`")
        if engine is None:
            engine = InferenceEngine(model, mode=mode, batch_size=batch_size)
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model name {name!r} is already registered")
            for other in self._entries.values():
                if other.engine.model is engine.model and other.mode == engine.mode:
                    raise ValueError(
                        f"the same model object is already registered as "
                        f"{other.name!r} in mode {other.mode!r}; bit-width "
                        f"variants need separate model instances (clone the "
                        f"model and apply_assignment on the copy)"
                    )
            entry = ModelEntry(name=name, engine=engine, description=description)
            self._entries[name] = entry
            return entry

    def get(self, name: str) -> ModelEntry:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise KeyError(self._missing(name)) from None

    def _missing(self, name: str) -> str:
        known = ", ".join(sorted(self._entries)) or "<none>"
        return f"no model registered under {name!r} (registered: {known})"

    def names(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def entries(self) -> List[ModelEntry]:
        with self._lock:
            return list(self._entries.values())

    def describe(self) -> Dict[str, Dict[str, object]]:
        """Telemetry-friendly summary of every hosted variant."""
        with self._lock:
            return {
                name: {
                    "mode": entry.mode,
                    "engine_batch_size": entry.engine.batch_size,
                    "description": entry.description,
                }
                for name, entry in self._entries.items()
            }

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"ModelRegistry({self.names()})"
