"""Tutte polynomials of hypergraphs via embedding activities."""

from importlib import resources

from .model import RibbonGraph, load, load_path

__all__ = ["RibbonGraph", "load", "load_path", "fixture_path", "fixture_names"]

__version__ = "0.1.0"


def fixture_names() -> list[str]:
    """Names of the bundled example instances."""
    root = resources.files(__name__) / "fixtures"
    return sorted(entry.name for entry in root.iterdir() if entry.is_file())


def fixture_path(name: str):
    """Filesystem path of a bundled fixture named by :func:`fixture_names`."""
    if name not in fixture_names():
        raise FileNotFoundError(f"no fixture named {name!r}")
    return resources.files(__name__) / "fixtures" / name
