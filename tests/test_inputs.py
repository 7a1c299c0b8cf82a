"""One table of bad inputs: every public entry point that takes a size,
count, order, seed or real setting, and every value object that takes an
array, raises InvalidParameter on a malformed one, never a raw numpy or
Python error."""

import argparse
import math

import numpy as np
import pytest

from specsamp import (
    ChebyshevFilter,
    ExperimentConfig,
    Graph,
    InvalidParameter,
    RecoveryDesign,
    SampledSpectrum,
    SamplingConfig,
    SpectralBasis,
    SpectralFilter,
    VariationOperator,
    apply_chebyshev,
    bandlimit,
    chebyshev_fit,
    complete_bipartite,
    cosine_taper,
    dft_basis,
    gen_circular,
    gen_matched_bipartite,
    gen_random_bipartite,
    gen_random_sensor,
    identity_filter,
    linear_decay,
    normalized_laplacian,
)
from specsamp.chebyshev import evaluate
from specsamp.cli import _cmd_verify_theorem1
from specsamp.graphs import _integer

BASIS = dft_basis(8)
OP = normalized_laplacian(gen_circular(8))
FIT = ChebyshevFilter([1.0, 0.5], (0.0, 2.0))
K22 = complete_bipartite(2).weights


def _one(lam):
    return 1.0


def _verify(count=1, seed=0):
    return _cmd_verify_theorem1(argparse.Namespace(count=count, seed=seed))


BOUND = r"need .+ >= -?\d+, got -?\d+"
INTEGER = "must be an integer"
FINITE = "must be a finite real number"
ARRAY = "must be a numeric array"
REAL = "must be real, got dtype complex128"

# id -> (call, the message it must match)
CASES = {
    "circular-float-n": (lambda: gen_circular(4.0), INTEGER),
    "circular-string-n": (lambda: gen_circular("4"), INTEGER),
    "circular-n-1": (lambda: gen_circular(1), BOUND),
    "sensor-float-n": (lambda: gen_random_sensor(8.0, 0), INTEGER),
    "sensor-n-1": (lambda: gen_random_sensor(1, 0), BOUND),
    "sensor-negative-seed": (lambda: gen_random_sensor(8, -1), BOUND),
    "sensor-float-seed": (lambda: gen_random_sensor(8, 1.5), INTEGER),
    "bipartite-float-size": (lambda: gen_random_bipartite(4.0, 0), INTEGER),
    "bipartite-size-0": (lambda: gen_random_bipartite(0, 0), "need vertices per part >= 1"),
    "bipartite-negative-seed": (lambda: gen_random_bipartite(4, -1), BOUND),
    "bipartite-string-seed": (lambda: gen_random_bipartite(4, "0"), INTEGER),
    "bipartite-nan-p": (lambda: gen_random_bipartite(4, 0, math.nan), FINITE),
    "bipartite-string-p": (lambda: gen_random_bipartite(4, 0, "0.5"), FINITE),
    "bipartite-huge-int-p": (lambda: gen_random_bipartite(4, 0, 10**400), FINITE),
    "matched-float-size": (lambda: gen_matched_bipartite(4.0, 0), INTEGER),
    "matched-size-2": (lambda: gen_matched_bipartite(2, 0), "need vertices per part >= 3"),
    "matched-negative-seed": (lambda: gen_matched_bipartite(4, -1), BOUND),
    "complete-float-size": (lambda: complete_bipartite(4.0), INTEGER),
    "complete-size-0": (lambda: complete_bipartite(0), "need vertices per part >= 1"),
    "bipartition-float": (lambda: Graph(K22, bipartition=2.0), INTEGER),
    "bipartition-minus-1": (lambda: Graph(K22, bipartition=-1), BOUND),
    "sampling-float-n": (lambda: SamplingConfig(8.0, 2), INTEGER),
    "sampling-n-0": (lambda: SamplingConfig(0, 1), BOUND),
    "sampling-m-0": (lambda: SamplingConfig(8, 0), BOUND),
    "sampling-string-m": (lambda: SamplingConfig(8, "2"), INTEGER),
    "dft-float-n": (lambda: dft_basis(8.0), INTEGER),
    "dft-n-1": (lambda: dft_basis(1), BOUND),
    "bandlimit-float-k": (lambda: bandlimit(BASIS, 2.0), INTEGER),
    "bandlimit-k-0": (lambda: bandlimit(BASIS, 0), BOUND),
    "bandlimit-string-k": (lambda: bandlimit(BASIS, "2"), INTEGER),
    "identity-float-n": (lambda: identity_filter(4.0), INTEGER),
    "identity-n-0": (lambda: identity_filter(0), BOUND),
    "linear-decay-string-eps": (lambda: linear_decay(BASIS, "x"), FINITE),
    "linear-decay-nan-eps": (lambda: linear_decay(BASIS, math.nan), FINITE),
    "cosine-taper-inf-eps": (lambda: cosine_taper(BASIS, math.inf), FINITE),
    "fit-float-order": (lambda: chebyshev_fit(_one, (0.0, 2.0), 2.5), INTEGER),
    "fit-order-0": (lambda: chebyshev_fit(_one, (0.0, 2.0), 0), BOUND),
    "fit-three-ends": (lambda: chebyshev_fit(_one, (0, 1, 2), 3), "interval"),
    "fit-scalar-interval": (lambda: chebyshev_fit(_one, 2.0, 3), "interval"),
    "fit-string-end": (lambda: chebyshev_fit(_one, ("0", 2.0), 3), FINITE),
    "fit-nan-end": (lambda: chebyshev_fit(_one, (0.0, math.nan), 3), FINITE),
    "apply-string-lambda-max": (lambda: apply_chebyshev(OP, FIT, np.ones(8), lambda_max="2"),
                                FINITE),
    "apply-nan-lambda-max": (lambda: apply_chebyshev(OP, FIT, np.ones(8), lambda_max=math.nan),
                             FINITE),
    "config-float-trials": (lambda: ExperimentConfig(trials=2.5), INTEGER),
    "config-trials-0": (lambda: ExperimentConfig(trials=0), BOUND),
    "config-negative-graph-seed": (lambda: ExperimentConfig(graph_seed=-1), BOUND),
    "config-negative-rng-seed": (lambda: ExperimentConfig(rng_seed=-1), BOUND),
    "config-order-0": (lambda: ExperimentConfig(orders=(2, 0)), BOUND),
    "config-float-order": (lambda: ExperimentConfig(orders=(2.5,)), INTEGER),
    "config-string-p": (lambda: ExperimentConfig(p="x"), FINITE),
    "config-huge-int-p": (lambda: ExperimentConfig(p=10**400), FINITE),
    "config-nan-noise": (lambda: ExperimentConfig(noise_variance=math.nan), FINITE),
    "config-huge-int-noise": (lambda: ExperimentConfig(noise_variance=10**400), FINITE),
    "verify-count-minus-1": (lambda: _verify(count=-1), r"need --count >= 0, got -1"),
    "verify-negative-seed": (lambda: _verify(seed=-1), r"need --seed >= 0, got -1"),
    # Malformed arrays: ragged, non-numeric, or of the wrong dimension.
    "graph-ragged": (lambda: Graph([[0, 1], [1]]), ARRAY),
    "operator-ragged": (lambda: VariationOperator([[0, 1], [1]]), ARRAY),
    "graph-empty": (lambda: Graph(np.zeros((0, 0))), "nonempty square matrix"),
    "operator-empty": (lambda: VariationOperator(np.zeros((0, 0))), "nonempty square matrix"),
    "filter-string": (lambda: SpectralFilter(["a"]), ARRAY),
    "filter-matrix": (lambda: SpectralFilter(np.ones((4, 4))), "1-D"),
    "chebyshev-string": (lambda: ChebyshevFilter(["a"], (0, 2)), ARRAY),
    "basis-string": (lambda: SpectralBasis([["a"]], [0.0]), ARRAY),
    "sampled-string": (lambda: SampledSpectrum(["a", "b"], SamplingConfig(4, 2)), ARRAY),
    "design-matrix": (lambda: RecoveryDesign(np.ones((2, 2)), identity_filter(4)), "1-D"),
    # A complex array where a real one is required: a cast would drop its
    # imaginary part.
    "graph-complex": (lambda: Graph(np.array([[0, 1 + 5j], [1 + 5j, 0]])), REAL),
    "filter-complex": (lambda: SpectralFilter([1 + 1j, 2]), REAL),
    "chebyshev-complex": (lambda: ChebyshevFilter([1.0, 1j], (0, 2)), REAL),
    "chebyshev-string-fit-error": (lambda: ChebyshevFilter([1.0], (0, 2), fit_error="x"),
                                   FINITE),
    "chebyshev-nan-fit-error": (lambda: ChebyshevFilter([1.0], (0, 2), fit_error=math.nan),
                                FINITE),
    "chebyshev-negative-fit-error": (lambda: ChebyshevFilter([1.0], (0, 2), fit_error=-0.5),
                                     r"need fit_error >= 0, got -0.5"),
    "evaluate-string": (lambda: evaluate(FIT, "abc"), ARRAY),
    "evaluate-complex": (lambda: evaluate(FIT, [1j]), REAL),
    "evaluate-nan": (lambda: evaluate(FIT, math.nan), "must be finite"),
}


@pytest.mark.parametrize("case", CASES)
def test_a_bad_input_raises_invalid_parameter(case):
    call, message = CASES[case]
    with pytest.raises(InvalidParameter, match=message):
        call()


@pytest.mark.parametrize("value,least", [(-1, 0), (0, 1), (2, 3)])
def test_the_bound_message_names_the_input_its_bound_and_the_value(value, least):
    assert _integer(least, "x", least) == least
    with pytest.raises(InvalidParameter, match=rf"^need x >= {least}, got {value}$"):
        _integer(value, "x", least)
