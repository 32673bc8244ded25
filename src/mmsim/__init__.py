"""Multimode survey design simulation: samples, estimators, variances,
and a Monte Carlo harness for web-push designs with face-to-face
follow-up."""

__version__ = "0.1.0"
