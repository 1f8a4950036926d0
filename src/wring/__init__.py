"""Integrable vorticity fields on the periodic box and their invariants."""

__version__ = "0.1.0"
