"""The library's input checks that no command reaches: each case must raise
its own error (or, for ``refute_extremality``, decline) on a bad input."""

import numpy as np
import pytest

from bellkit import io, linalg, models, reps, schmidt, special
from bellkit.models import Correlation, QuantumModel, Scenario, Word
from bellkit.presets import chsh_ideal_model

I2, I3 = np.eye(2), np.eye(3)
SC = Scenario(1, 1, 2, 2)


def qubit_model(e0, a):
    """A (1,1,2,2) qubit model: A measures {e0, I - e0}, B measures {I, 0},
    on the state a (x) |0>."""
    return QuantumModel(scenario=SC, dimA=2, dimB=2, M=[[e0, I2 - e0]],
                        N=[[I2, 0 * I2]], psi=np.kron(a, [1.0, 0.0]))


def chsh_p():
    return models.correlation_of(chsh_ideal_model())


CASES = {
    "dumps non-string key": (lambda: io.canonical_dumps({1: 2}),
                             TypeError, "keys must be strings"),
    "dumps a set": (lambda: io.canonical_dumps({"a": {1, 2}}),
                    TypeError, "cannot serialize"),
    "as_matrix of a vector": (lambda: linalg.as_matrix(np.zeros(3)),
                              ValueError, "expected a matrix"),
    "as_matrix nan": (lambda: linalg.as_matrix([[np.nan]]),
                      ValueError, "matrix has non-finite"),
    "as_vector inf": (lambda: linalg.as_vector([np.inf]),
                      ValueError, "vector has non-finite"),
    "psd_sqrt negative": (lambda: linalg.psd_sqrt(np.diag([-1.0, 1.0])),
                          ValueError, "negative eigenvalue"),
    "correlation shape": (lambda: Correlation(SC, np.zeros((2, 2, 2, 2))),
                          ValueError, "does not match"),
    "validate a non-model": (lambda: models.validate_model(object()),
                             TypeError, "not a model"),
    "moment B-letter": (lambda: models.evaluate_moment(chsh_ideal_model(),
                                                       Word((), ((5, 0),))),
                        IndexError, r"B-letter \(5,0\)"),
    "correlation imaginary": (lambda: models.correlation_of(qubit_model(
                                  np.array([[0.5, 0.5j], [0.5j, 0.5]]), [0.6, 0.8])),
                              ValueError, "residual imaginary part"),
    "correlation negative": (lambda: models.correlation_of(qubit_model(
                                 np.diag([-1.0, 0.0]), [1.0, 0.0])),
                             ValueError, "entry below -eps"),
    "commutant of nothing": (lambda: reps.commutant_basis([]),
                             ValueError, "at least one generator"),
    "commutant mixed sizes": (lambda: reps.commutant_basis([I2, I3]),
                              ValueError, "common dimension"),
    "irreps of nothing": (lambda: reps.irrep_decompose([]),
                          ValueError, "at least one generator"),
    "schmidt length": (lambda: schmidt.schmidt_decompose(np.ones(5), 2, 2),
                       ValueError, "does not match dims"),
    "refute with no components": (lambda: special.refute_extremality(chsh_p(), []),
                                  None, None),
}


@pytest.mark.parametrize("name", CASES)
def test_input_check(name):
    call, error, message = CASES[name]
    if error is None:  # declines rather than raises
        assert call() is False
    else:
        with pytest.raises(error, match=message):
            call()
