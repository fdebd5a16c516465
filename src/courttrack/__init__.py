"""Tracking-by-detection engine for single-camera basketball video."""
