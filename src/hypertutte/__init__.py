"""Tutte polynomials of hypergraphs via embedding activities."""

from .model import RibbonGraph, load, load_path

__all__ = ["RibbonGraph", "load", "load_path", "fixture_path", "fixture_names"]

__version__ = "0.1.0"


def _fixtures():
    from pathlib import Path  # only the fixture lookups need it

    return Path(__file__).parent / "fixtures"


def fixture_names() -> list[str]:
    """Names of the bundled example instances."""
    return sorted(entry.name for entry in _fixtures().iterdir() if entry.is_file())


def fixture_path(name: str):
    """Filesystem path of a bundled fixture named by :func:`fixture_names`."""
    if name not in fixture_names():
        raise FileNotFoundError(f"no fixture named {name!r}")
    return _fixtures() / name
