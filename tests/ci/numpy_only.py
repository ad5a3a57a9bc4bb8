"""The package on numpy alone: the generator's moment ODE against the closed
form E[N_t], and criterion 5's Dynkin martingale on one path, in a Python
where scipy is not installed.

Not collected by pytest.  Run it with the tests directory on the path, for
the pathwise integral in tests/oracles.py:

    PYTHONPATH=tests python tests/ci/numpy_only.py
"""

import math

from oracles import integrate_polynomial_on_path

from hawkesmom import (BivariatePolynomial, apply_generator, integrate_moments, intensity_at,
                       mean_count, simulate_exact, validate_params)

params = validate_params(0.2, 1.0, 1.0)
out = integrate_moments(params, [(0, 1), (0, 2)], 10.0)
assert abs(out[(0, 1)] / mean_count(params, 10.0) - 1.0) < 1e-12, out
# criterion 5's generator API on one path: the martingale
# k(X_t) - k(X_0) - int_0^t A k(X_u) du for k = n^2
k = BivariatePolynomial.monomial(0, 2)
image = apply_generator(params, k)
times = simulate_exact(params, 10.0, 1).events.times
integral = integrate_polynomial_on_path(params, times, image, 10.0)
lam_t = intensity_at(params, times, 10.0)
defect = k.evaluate(lam_t, times.size) - k.evaluate(params.lambda0, 0.0) - integral
assert math.isfinite(defect), defect
