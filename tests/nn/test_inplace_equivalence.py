"""Functional vs in-place model plane: byte-identical results.

Property-style sweeps over randomized structures and hyperparameter
branches (momentum / weight decay / clipping), asserting exact array
equality — the buffered hot path must be indistinguishable from the
functional API bit for bit.
"""

import numpy as np
import pytest

from repro.nn.optimizers import SGD, SGDConfig
from repro.nn.parameters import (
    ParameterAccumulator,
    ParameterLayout,
    Parameters,
    weighted_mean,
)


def random_params(rng, shapes=None):
    shapes = shapes or {
        "W0": (17, 5), "b0": (5,), "W1": (5, 3), "b1": (3,), "s": (),
    }
    return Parameters({k: rng.normal(size=s) for k, s in shapes.items()})


def assert_params_equal(a: Parameters, b: Parameters):
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


# -- layout ------------------------------------------------------------------

def test_layout_roundtrip_and_caching():
    rng = np.random.default_rng(0)
    p = random_params(rng)
    layout = p.layout
    assert layout is p.layout  # cached
    assert layout.total_size == p.num_parameters
    vec = p.to_vector()
    back = layout.unflatten(vec)
    assert_params_equal(p, back)
    assert back.flat_base is vec  # views, not copies
    back["W0"][0, 0] = 123.0
    assert vec[0] == 123.0


def test_layout_equality_across_instances():
    rng = np.random.default_rng(1)
    a, b = random_params(rng), random_params(rng)
    assert a.layout == b.layout
    assert hash(a.layout) == hash(b.layout)
    assert a.layout != Parameters({"x": np.zeros(3)}).layout


def test_to_vector_out_buffer():
    rng = np.random.default_rng(2)
    p = random_params(rng)
    out = np.empty(p.num_parameters)
    result = p.to_vector(out=out)
    assert result is out
    np.testing.assert_array_equal(out, p.to_vector())
    with pytest.raises(ValueError):
        p.to_vector(out=np.empty(3))
    # flat-backed to_vector is still an independent copy
    flat = p.layout.unflatten(p.to_vector())
    vec = flat.to_vector()
    vec[0] = -1.0
    assert flat.flat_base[0] != -1.0


# -- in-place ops vs functional twins ---------------------------------------

@pytest.mark.parametrize("flat_backed", [False, True])
def test_inplace_ops_match_functional(flat_backed):
    rng = np.random.default_rng(3)
    for trial in range(10):
        a = random_params(rng)
        b = random_params(rng)
        if flat_backed:
            a = a.layout.unflatten(a.to_vector())
            b = b.layout.unflatten(b.to_vector())
        alpha = float(rng.normal())
        assert_params_equal(a + b, a.copy().add_(b))
        assert_params_equal(a - b, a.copy().sub_(b))
        assert_params_equal(a.scale(alpha), a.copy().scale_(alpha))
        assert_params_equal(a.axpy(alpha, b), a.copy().axpy_(alpha, b))
        scratch = np.empty(a.num_parameters)
        assert_params_equal(a.axpy(alpha, b), a.copy().axpy_(alpha, b, scratch))
        zeroed = a.copy().zero_()
        assert zeroed.l2_norm() == 0.0
        filled = a.copy().zero_().copy_from_(b)
        assert_params_equal(filled, b)


def test_inplace_mixed_backing():
    """Flat-backed against dict-backed operands and vice versa."""
    rng = np.random.default_rng(4)
    a, b = random_params(rng), random_params(rng)
    flat_a = a.layout.unflatten(a.to_vector())
    assert_params_equal(a + b, flat_a.copy().add_(b))
    assert_params_equal(a - b, a.copy().sub_(b.layout.unflatten(b.to_vector())))


@pytest.mark.parametrize("max_norm", [1e-6, 1.0, 1e9])
def test_clip_by_norm_inplace(max_norm):
    rng = np.random.default_rng(5)
    p = random_params(rng)
    assert_params_equal(p.clip_by_norm(max_norm), p.copy().clip_by_norm_(max_norm))


def test_structure_mismatch_raises():
    a = Parameters({"x": np.zeros(3)})
    b = Parameters({"x": np.zeros(4)})
    for op in (a.add_, a.sub_, a.copy_from_):
        with pytest.raises(ValueError):
            op(b)


def test_reordered_equal_structures_still_accepted():
    """The fast layout check falls back to the order-insensitive dict
    comparison, matching the functional API's tolerance."""
    a = Parameters({"x": np.ones(2), "y": np.full(3, 2.0)})
    b = Parameters({"y": np.full(3, 5.0), "x": np.full(2, 7.0)})
    assert_params_equal(a + b, a.copy().add_(b))


# -- accumulator -------------------------------------------------------------

def test_accumulator_matches_functional_chain():
    rng = np.random.default_rng(6)
    updates = [(random_params(rng), float(rng.integers(1, 50))) for _ in range(12)]
    acc = ParameterAccumulator.like(updates[0][0])
    functional = updates[0][0].scale(updates[0][1])
    for p, w in updates:
        acc.add(p, w)
    for p, w in updates[1:]:
        functional = functional.axpy(w, p)
    np.testing.assert_array_equal(acc.sum_vector, functional.to_vector())
    total = sum(w for _, w in updates)
    assert_params_equal(acc.mean(), functional.scale(1.0 / total))
    assert acc.count == len(updates)
    assert acc.weight_sum == total


def test_accumulator_vector_fold_matches_alloc_chain():
    rng = np.random.default_rng(7)
    vectors = [rng.normal(size=200) for _ in range(8)]
    delta_sum = vectors[0].copy()
    for v in vectors[1:]:
        delta_sum = delta_sum + v
    acc = ParameterAccumulator(dim=200)
    for v in vectors:
        acc.add_vector(v, 1.0)
    np.testing.assert_array_equal(acc.sum_vector, delta_sum)


def test_accumulator_flat_backed_updates_take_vector_path():
    rng = np.random.default_rng(8)
    p = random_params(rng)
    flat = p.layout.unflatten(p.to_vector())
    acc = ParameterAccumulator.like(p)
    acc.add(flat, 2.0)
    acc.add(p, 3.0)
    expected = p.scale(2.0).axpy(3.0, p)
    np.testing.assert_array_equal(acc.sum_vector, expected.to_vector())


def test_accumulator_reset_and_errors():
    acc = ParameterAccumulator(dim=4)
    with pytest.raises(ValueError):
        acc.mean_vector()
    acc.add_vector(np.ones(4), 1.0)
    acc.reset()
    assert acc.count == 0 and acc.weight_sum == 0.0
    with pytest.raises(ValueError):
        acc.add_vector(np.ones(3), 1.0)
    with pytest.raises(ValueError):
        ParameterAccumulator()
    with pytest.raises(ValueError):
        ParameterAccumulator(dim=4).add(random_params(np.random.default_rng(0)))


def test_weighted_mean_unchanged_semantics():
    rng = np.random.default_rng(9)
    a, b = random_params(rng), random_params(rng)
    mean = weighted_mean([(a, 1.0), (b, 3.0)])
    expected = a.scale(1.0).axpy(3.0, b).scale(1.0 / 4.0)
    assert_params_equal(mean, expected)
    with pytest.raises(ValueError):
        weighted_mean([])
    with pytest.raises(ValueError):
        weighted_mean([(a, 0.0)])


# -- SGD ---------------------------------------------------------------------

@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("flat_backed", [False, True])
def test_sgd_step_inplace_equivalence(momentum, weight_decay, flat_backed):
    """Multi-step equivalence across every (momentum, weight-decay) branch,
    including the velocity state carried between steps."""
    rng = np.random.default_rng(10)
    cfg = SGDConfig(learning_rate=0.05, momentum=momentum, weight_decay=weight_decay)
    params = random_params(rng)
    grad_seq = [random_params(rng) for _ in range(5)]

    functional_opt = SGD(cfg)
    w_functional = params
    for g in grad_seq:
        w_functional = functional_opt.step(w_functional, g)

    inplace_opt = SGD(cfg)
    if flat_backed:
        w_inplace = params.layout.unflatten(params.to_vector())
        grads = [g.layout.unflatten(g.to_vector()) for g in grad_seq]
    else:
        w_inplace = params.copy()
        grads = grad_seq
    for g in grads:
        result = inplace_opt.step_(w_inplace, g)
        assert result is w_inplace
    np.testing.assert_array_equal(
        w_functional.to_vector(), w_inplace.to_vector()
    )


def test_sgd_step_does_not_mutate_inputs():
    rng = np.random.default_rng(11)
    params, grads = random_params(rng), random_params(rng)
    p0, g0 = params.to_vector(), grads.to_vector()
    SGD(SGDConfig()).step(params, grads)
    np.testing.assert_array_equal(params.to_vector(), p0)
    np.testing.assert_array_equal(grads.to_vector(), g0)
    SGD(SGDConfig()).step_(params.copy(), grads)
    np.testing.assert_array_equal(grads.to_vector(), g0)


def test_sgd_reset_clears_flat_velocity():
    rng = np.random.default_rng(12)
    cfg = SGDConfig(learning_rate=0.1, momentum=0.9)
    params = random_params(rng)
    layout = params.layout
    w = layout.unflatten(params.to_vector())
    g = layout.unflatten(random_params(rng).to_vector())
    opt = SGD(cfg)
    opt.step_(w, g)
    opt.reset()
    fresh = SGD(cfg)
    w2 = layout.unflatten(params.to_vector())
    opt.step_(w2, g)
    fresh.step_(w := layout.unflatten(params.to_vector()), g)
    np.testing.assert_array_equal(w2.to_vector(), w.to_vector())


def test_sgd_refuses_mixed_momentum_conventions():
    """Flat-path momentum state must not be silently dropped by a switch
    to the per-array conventions."""
    rng = np.random.default_rng(13)
    cfg = SGDConfig(learning_rate=0.1, momentum=0.9)
    params = random_params(rng)
    layout = params.layout
    w = layout.unflatten(params.to_vector())
    g = layout.unflatten(random_params(rng).to_vector())
    opt = SGD(cfg)
    opt.step_(w, g)  # builds flat velocity
    with pytest.raises(RuntimeError):
        opt.step(params, random_params(rng))
    with pytest.raises(RuntimeError):
        opt.step_(params.copy(), random_params(rng))
    opt.reset()
    opt.step(params, random_params(rng))  # fine after reset
