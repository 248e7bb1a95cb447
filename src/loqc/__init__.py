"""Desk-scale simulator and verification suite for postselected
linear-optical quantum gates built from beamsplitters, ancilla photons
and number-resolved detection."""

__version__ = "0.1.0"
