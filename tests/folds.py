"""A fold's stacked Gram and TikhonovSystem from its records, for tests
that start from a Dataset.

The Gram is built as the program builds every fold's: the unscaled
basis values and y stacked by sieve.stacked_gram, which applies the
bases' normalizations, so a system from it has the bits of one built
from prepare_cell's Gram of the same fold.
"""

from adaptik.estimators import RdivEstimator, TraeEstimator, outcome_moment
from adaptik.sieve import stacked_gram


def fold_gram(data, basis_h, basis_f):
    """The stacked Gram of [basis_h(x) | basis_f(z) | y] on data."""
    values = (basis_h.unscaled().evaluate(data.x),
              basis_f.unscaled().evaluate(data.z))
    return stacked_gram(values, data.y, (basis_h, basis_f))


def fold_system(handle, data, basis_z=None):
    """handle's system on data: an RDIV handle's system_from on the
    stacked Gram with instrument basis basis_z, a TRAE handle's system_of
    on data's basis values."""
    if isinstance(handle, RdivEstimator):
        return handle.system_from(fold_gram(data, handle.basis_x, basis_z))
    return handle.system_of(handle.basis_h.unscaled().evaluate(data.x),
                            handle.basis_f.unscaled().evaluate(data.z),
                            data.z, data.y)


def inner_maximizer(data, basis_h, basis_f, coeffs):
    """The inner maximizer f = M^{-1} (g - B c) at h = basis_h c, read from
    the adversary (M^{-1} g, M^{-1} B) of the outcome-moment TRAE system
    of data at zero inner ridge."""
    handle = TraeEstimator(outcome_moment(), basis_h, basis_f, 0.0)
    minv_g, minv_b = fold_system(handle, data).adversary
    return minv_g - minv_b @ coeffs
