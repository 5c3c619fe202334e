"""Superresolving source-geometry reconstruction from thermal speckle.

Simulate arrays of independent thermal point sources, estimate m-th order
intensity correlations with fixed detectors at magic positions, extract
the surviving spatial frequencies, and enumerate the integer source
configurations consistent with them — resolving lattice spacings below
the classical aperture limit of any single detector.

The modules load on first use: `import specklescope.cli` imports neither
numpy nor any stage, and the first exported name asked of the package
imports the modules that export them.
"""

from __future__ import annotations

__version__ = "0.1.0"

# the modules whose __all__ lists make up the package's, in that order;
# each lists only the names it defines
_EXPORTERS = (
    "geometry", "correlation", "speckle", "spectrum", "reconstruct", "records", "config", "errors",
)


def __getattr__(name: str):
    """A submodule, or an exported name (PEP 562)."""
    import importlib

    if name in (*_EXPORTERS, "serialize", "cli"):
        return importlib.import_module(f".{name}", __name__)
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    exports = {"__all__": ["__version__"]}
    for module in (importlib.import_module(f".{m}", __name__) for m in _EXPORTERS):
        exports["__all__"] += module.__all__
        exports.update((export, getattr(module, export)) for export in module.__all__)
    globals().update(exports)
    if name not in exports:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return exports[name]
