"""Bundled diagram files used by the test suite and the demos.

Systems load once per process and are shared, so per-system caches
(classification, balls, reflection lists) accumulate across callers.
"""

from __future__ import annotations

from .diagram import CoxeterSystem, parse_system

__all__ = [
    "FINITE",
    "AFFINE",
    "INDEFINITE",
    "load",
    "names",
    "read_text",
]

FINITE = (
    "a1", "a2", "a3", "a4", "b2", "b3", "b4", "d4", "f4",
    "h3", "h4", "i2_5", "i2_6", "i2_7", "i2_8",
)
AFFINE = ("a1t", "a2t", "c2t", "g2t", "d4t")
INDEFINITE = ("tri334",)

_loaded: dict[str, CoxeterSystem] = {}


def names() -> tuple[str, ...]:
    return FINITE + AFFINE + INDEFINITE


def read_text(name: str) -> str:
    if name not in names():
        raise KeyError(f"unknown corpus system {name!r}; known: {', '.join(names())}")
    # imported on first use: importlib.resources is a large share of the
    # package's import time, and the CLI reads diagrams by path
    from importlib import resources

    return resources.files("coxkit.data").joinpath(f"{name}.cox").read_text()


def load(name: str) -> CoxeterSystem:
    if name not in _loaded:
        _loaded[name] = parse_system(read_text(name))
    return _loaded[name]
