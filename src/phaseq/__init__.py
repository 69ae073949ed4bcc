"""Numerical checks of the classical-to-quantum pipeline for the oscillator.

The package walks the whole chain at desk scale: classical Liouville
transport, the offset transform to two-point density fields, amplitude-action
splitting, the complex normal-mode map, the truncated ladder-operator picture,
and the two-mode spin construction, with residuals and spectra for every step.

Each module is imported by name, for example ``phaseq.spin``; importing the
package itself loads none of them.
"""

__version__ = "0.1.0"
