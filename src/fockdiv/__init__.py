"""Desk-scale numerical criteria for multiple (Hermite-type) sampling,
interpolation, and uniqueness in Gaussian-weighted entire-function spaces."""

__version__ = "0.1.0"
