"""Physical constants (SI, 2019 redefinition).

c, h and k_B are exact by definition; hbar is derived from h so that
per-omega and per-wavelength spectral forms agree to machine precision.
"""

import math

C = 299_792_458.0           # speed of light, m/s (exact)
H = 6.626_070_15e-34        # Planck constant, J s (exact)
HBAR = H / (2.0 * math.pi)  # reduced Planck constant, J s
K_B = 1.380_649e-23         # Boltzmann constant, J/K (exact)

TWO_PI_C = 2.0 * math.pi * C  # rad m/s, omega = TWO_PI_C / lambda

NM = 1e-9                   # m per nm
