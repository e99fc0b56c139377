"""felab: a numerical laboratory for set-indicator Fourier extremization.

Which sets of given measure maximize the L^q norm of the Fourier transform
of their indicator function?  This package computes the radial kernels,
boundary-profile expansions, sphere spectra, stability margins and exact
constants attached to that question, and searches set families for
extremizers.

Modules
-------
quadrature      the GK15 panel rule + integration engines (everything runs on these)
radial_kernels  the ball transform, the kernels K_q / L_q, gamma, rho_d
set_model       interval unions, star-shaped planar sets, balancing, distances
functional      Phi_q evaluation, the even-exponent convolution oracle
spectral        circle/Funk-Hecke spectra and per-mode stability margins
perturbation    Taylor-expansion reports about the ball and remainder slopes
search          local ascent and randomized probes over set families
cli             the `felab` command-line front end
acceptance      the machine-checkable acceptance criteria (also `felab verify`)
"""

__version__ = "0.1.0"
