"""Computer algebra for matrix categories of free semimodules, their
automorphisms, and PBW arithmetic in (restricted) universal envelopes."""

__version__ = "0.1.0"
