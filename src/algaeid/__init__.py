"""Automated identification of algae from multi-band fluorescence imagery.

Pipeline stages: illumination correction, per-band Otsu segmentation
with the union of the band masks and connected-component grouping,
spectral-morphological feature extraction, a small feedforward
classifier, and a Monte Carlo cross-validation harness. A deterministic synthetic-scene generator stands
in for microscope data so the whole pipeline runs end to end.
"""

__version__ = "0.1.0"
