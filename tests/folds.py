"""A fold's stacked Gram and TikhonovSystem from its records, for tests
that start from a Dataset.

The Gram is built as the program builds every fold's: the unscaled
basis values and y stacked by sieve.stacked_gram, which applies the
bases' normalizations, so a system from it has the bits of one built
from prepare_cell's Gram of the same fold.
"""

from adaptik.estimators import RdivEstimator
from adaptik.sieve import stacked_gram


def fold_gram(data, basis_h, basis_f):
    """The stacked Gram of [basis_h(x) | basis_f(z) | y] on data."""
    values = (basis_h.unscaled().evaluate(data.x),
              basis_f.unscaled().evaluate(data.z))
    return stacked_gram(values, data.y, (basis_h, basis_f))


def fold_system(handle, data, basis_z=None):
    """handle.system_from on data's stacked Gram; an RDIV handle's Gram
    stacks the instrument basis basis_z, and a TRAE handle also gets its
    moment's adversary mean on data."""
    if isinstance(handle, RdivEstimator):
        return handle.system_from(fold_gram(data, handle.basis_x, basis_z))
    gram = fold_gram(data, handle.basis_h, handle.basis_f)
    adv = handle.basis_f.unscaled().evaluate(data.z)
    return handle.system_from(gram, handle.adversary_mean(data.z, data.y, adv))
