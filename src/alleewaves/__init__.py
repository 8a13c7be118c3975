"""Exact traveling waves of a diffusive predator-prey system with Allee effect."""

__version__ = "0.1.0"
