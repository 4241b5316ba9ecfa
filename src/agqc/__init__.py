"""Adiabatic graph-state quantum computation: compile measurement patterns
with gflow into adiabatic replacement schedules and verify them exactly."""

__version__ = "0.1.0"
