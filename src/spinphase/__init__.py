"""Fast spherical phase-space functions of spin-J / qudit states."""

from .angular import (EigenBasis, SpinDimension, build_spin_operator, jx_eigenbasis,
                      jy_eigenbasis, rotation_operator, wigner_d)
from .cgc import (CoefficientTable, TensorOperatorTable, expansion_coefficients,
                  tensor_operator)
from .fourier import (FourierTable, compute_k, derivative_coefficients,
                      fourier_coefficients_method_c)
from .kcache import (CacheCorruptError, CacheError, CacheIncompleteError,
                     CacheMismatchError, KCache, fourier_coefficients_method_d,
                     open_cache, precompute_cache)
from .parity import (ParityOperator, ParityOverflowError, build_parity, gamma_j,
                     log_gamma_j, rounding_bound, sphere_radius, transform_parity)
from .sampling import (GridWindow, PhaseSpaceGrid, direct_eval, direct_grid,
                       method_b_grid, minimal_grid_size, sample_fft, sample_fft_full,
                       window_extract)
from .states import (as_density_matrix, coherent, dicke, ghz, maximally_mixed,
                     random_density, squeezed)

__version__ = "0.1.0"
