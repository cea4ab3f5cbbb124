"""Thermalization of a harmonic test particle in finite oscillator baths.

A test particle is coupled to one or two finite collections of harmonic
oscillators through translationally invariant springs.  The package
propagates the closed linear system exactly (normal-mode decomposition)
or by fixed-step integration (switched two-bath dynamics), samples the
particle at random times, and fits the resulting energy distribution to
a Boltzmann law to read off an effective temperature.
"""

__version__ = "0.1.0"
