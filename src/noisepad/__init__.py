"""noisepad: boost a short shared secret into a long one-time-pad key stream.

Two parties chain fresh random keys over an open channel using dual-basis
phase encoding hidden inside coherent-state phase noise; analysis and
attacker modules quantify exactly what an eavesdropper can extract.
"""

__version__ = "0.1.0"
