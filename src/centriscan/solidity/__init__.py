"""Solidity frontend and pattern detectors."""
