"""Scheme adapters. Importing this package populates the registry."""

from repro.api.adapters import merkle, met_iblt, pinsketch, regular_iblt, riblt

__all__ = ["merkle", "met_iblt", "pinsketch", "regular_iblt", "riblt"]
