"""Tests for the multi-resolution hash encoding and frequency encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import MortonLocalityHash, OriginalSpatialHash
from repro.nerf.adam import Adam
from repro.nerf.encoding import (
    FrequencyEncoding,
    HashGridConfig,
    HashGridEncoding,
    level_resolutions,
)
from repro.nerf.field import InstantNGPField


def test_level_resolutions_geometric_progression():
    res = level_resolutions(16, 16, 2048)
    assert res[0] == 16
    assert res[-1] == 2048
    assert all(res[i] <= res[i + 1] for i in range(15))


def test_level_resolutions_validation():
    with pytest.raises(ValueError):
        level_resolutions(0, 16, 2048)
    with pytest.raises(ValueError):
        level_resolutions(4, 32, 16)
    assert level_resolutions(1, 16, 2048) == [16]


def test_hash_grid_config_table_sizes():
    config = HashGridConfig(num_levels=16, table_size=2**19, features_per_entry=2)
    # Coarse levels store the dense grid; fine levels are capped at T.
    assert config.level_table_entries(0) == (config.resolutions[0] + 1) ** 3
    assert config.level_table_entries(15) == 2**19
    assert not config.level_uses_hash(0)
    assert config.level_uses_hash(15)
    # Paper-scale table is ~25 MB at FP16.
    assert config.table_bytes(dtype_bytes=2) / 1024**2 == pytest.approx(25.0, rel=0.15)
    assert config.output_dim == 32


def test_encoding_forward_shape_and_cache(small_grid_config, rng):
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = rng.uniform(0, 1, (10, 3))
    feats = enc.forward(pos)
    assert feats.shape == (10, small_grid_config.output_dim)
    assert feats.dtype == np.float32
    with pytest.raises(ValueError):
        enc.forward(rng.uniform(0, 1, (10, 2)))


def test_encoding_backward_requires_forward(small_grid_config):
    enc = HashGridEncoding(small_grid_config)
    with pytest.raises(RuntimeError):
        enc.backward(np.zeros((1, small_grid_config.output_dim)))


def test_encoding_is_continuous_in_position(small_grid_config, rng):
    """Trilinear interpolation => small position changes give small feature changes."""
    enc = HashGridEncoding(small_grid_config, rng=rng)
    for e in enc.embeddings:
        e[...] = rng.normal(0, 1, e.shape).astype(np.float32)
    pos = rng.uniform(0.1, 0.9, (20, 3))
    f0 = enc.forward(pos)
    f1 = enc.forward(pos + 1e-5)
    assert np.max(np.abs(f0 - f1)) < 1e-2


def test_encoding_gradients_match_finite_differences(small_grid_config, rng):
    enc = HashGridEncoding(small_grid_config, rng=rng)
    for e in enc.embeddings:
        e[...] = rng.normal(0, 0.5, e.shape).astype(np.float32)
    pos = rng.uniform(0.05, 0.95, (6, 3))
    upstream = rng.normal(size=(6, small_grid_config.output_dim)).astype(np.float32)

    enc.forward(pos)
    enc.zero_grad()
    enc.backward(upstream)

    eps = 1e-3
    for level in range(small_grid_config.num_levels):
        grad = enc.grads[level]
        if not np.any(np.abs(grad) > 1e-7):
            continue
        idx = np.unravel_index(np.argmax(np.abs(grad)), grad.shape)
        original = enc.embeddings[level][idx]
        enc.embeddings[level][idx] = original + eps
        plus = float((enc.forward(pos) * upstream).sum())
        enc.embeddings[level][idx] = original - eps
        minus = float((enc.forward(pos) * upstream).sum())
        enc.embeddings[level][idx] = original
        fd = (plus - minus) / (2 * eps)
        assert fd == pytest.approx(float(grad[idx]), rel=0.05, abs=1e-3)


def test_encoding_with_morton_hash_matches_interface(small_grid_config, rng):
    config = HashGridConfig(
        num_levels=small_grid_config.num_levels,
        table_size=small_grid_config.table_size,
        base_resolution=small_grid_config.base_resolution,
        max_resolution=small_grid_config.max_resolution,
        hash_fn=MortonLocalityHash(),
    )
    enc = HashGridEncoding(config, rng=rng)
    feats = enc.forward(rng.uniform(0, 1, (5, 3)))
    assert feats.shape == (5, config.output_dim)


def test_fused_forward_matches_per_level_reference(small_grid_config, rng):
    """The fused multi-level forward must be bit-identical to the level loop."""
    enc = HashGridEncoding(small_grid_config, rng=rng)
    for e in enc.embeddings:
        e[...] = rng.normal(0, 1, e.shape).astype(np.float32)
    pos = rng.uniform(-0.1, 1.1, (200, 3))  # includes out-of-range positions
    fused = enc.forward(pos)
    reference = enc.forward_reference(pos)
    np.testing.assert_array_equal(fused, reference)


@pytest.mark.parametrize("features", [1, 2])
@pytest.mark.parametrize(
    "hash_fn", [OriginalSpatialHash(), MortonLocalityHash()], ids=lambda h: h.name
)
@pytest.mark.parametrize("dtype", ["fp64", "fp32", "fp16", "int8"])
def test_fused_forward_matches_reference_across_block_boundaries(dtype, hash_fn, features):
    """Bit-identity at every block edge; either forward feeds the same backward.

    ``features=1`` covers the layout where numpy reduces the corner axis
    pairwise instead of in order.
    """
    block = HashGridEncoding.MULTILEVEL_BLOCK
    config = HashGridConfig(
        num_levels=4,
        table_size=512,
        features_per_entry=features,
        base_resolution=4,
        max_resolution=64,
        hash_fn=hash_fn,
        dtype="fp32" if dtype == "int8" else dtype,
    )
    rng = np.random.default_rng(7)
    enc = HashGridEncoding(config, rng=rng)
    for e in enc.embeddings:
        e[...] = rng.normal(0, 1, e.shape)
    if dtype == "int8":
        enc = enc.quantized_int8()
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        pos = rng.uniform(-0.1, 1.1, (n, 3))  # includes out-of-range positions
        fused = enc.forward(pos)
        np.testing.assert_array_equal(fused, enc.forward_reference(pos))
        assert fused.shape == (n, config.output_dim)
        if dtype == "int8":
            continue  # int8 tables are inference-only
        upstream = rng.normal(size=fused.shape).astype(np.float32)
        enc.forward(pos)
        enc.zero_grad()
        enc.backward(upstream)
        fused_grads = enc.grad_table.copy()
        enc.forward_reference(pos)
        enc.zero_grad()
        enc.backward(upstream)
        np.testing.assert_array_equal(fused_grads, enc.grad_table)


@pytest.mark.parametrize("features", [1, 2])
@pytest.mark.parametrize(
    "hash_fn", [OriginalSpatialHash(), MortonLocalityHash()], ids=lambda h: h.name
)
@pytest.mark.parametrize("dtype", ["fp64", "fp32", "fp16"])
def test_fused_encode_is_bit_identical_at_a_table_size_that_is_not_a_power_of_two(
    dtype, hash_fn, features
):
    """T=500 takes the ``% T`` path of the per-axis corner codes on hashed
    levels (a power of two pre-masks them instead); both must match the
    per-level oracle at every block edge, forward and backward."""
    block = HashGridEncoding.MULTILEVEL_BLOCK
    config = HashGridConfig(
        num_levels=4,
        table_size=500,
        features_per_entry=features,
        base_resolution=4,
        max_resolution=64,
        hash_fn=hash_fn,
        dtype=dtype,
    )
    assert any(config.level_uses_hash(level) for level in range(config.num_levels))
    rng = np.random.default_rng(11)
    enc = HashGridEncoding(config, rng=rng)
    for e in enc.embeddings:
        e[...] = rng.normal(0, 1, e.shape)
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        pos = rng.uniform(-0.1, 1.1, (n, 3))
        fused = enc.forward(pos)
        np.testing.assert_array_equal(fused, enc.forward_reference(pos))
        upstream = rng.normal(size=fused.shape).astype(np.float32)
        enc.forward(pos)
        enc.zero_grad()
        enc.backward(upstream)
        fused_grads = enc.grad_table.copy()
        enc.forward_reference(pos)
        enc.zero_grad()
        enc.backward(upstream)
        np.testing.assert_array_equal(fused_grads, enc.grad_table)


def test_nan_positions_are_rejected(small_grid_config, rng):
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = rng.uniform(0, 1, (8, 3))
    pos[5, 1] = np.nan
    for forward in (enc.forward, enc.forward_reference):
        with pytest.raises(ValueError, match="NaN"):
            forward(pos)
    # A rejected batch leaves no cache behind to poison the tables with.
    with pytest.raises(RuntimeError):
        enc.backward(np.zeros((8, small_grid_config.output_dim)))


def test_infinite_positions_clip_to_the_unit_cube(small_grid_config, rng):
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = np.array([[np.inf, -np.inf, 0.5], [1.0, 0.0, 0.5]])
    for forward in (enc.forward, enc.forward_reference):
        feats = forward(pos)
        assert np.all(np.isfinite(feats))
        np.testing.assert_array_equal(feats[0], feats[1])


def _assert_views_of_one_table(enc: HashGridEncoding) -> None:
    assert enc.table.flags.c_contiguous and enc.grad_table.flags.c_contiguous
    rows = 0
    for level, (emb, grad) in enumerate(zip(enc.embeddings, enc.grads)):
        assert np.shares_memory(emb, enc.table)
        assert np.shares_memory(grad, enc.grad_table)
        assert enc.row_offsets[level] == rows
        rows += emb.shape[0]
    assert rows == enc.table.shape[0] == enc.grad_table.shape[0]


def test_level_tables_are_views_of_one_contiguous_table(small_grid_config, rng):
    """Levels stay views: ``zero_grad`` clears ``grad_table`` in one pass, so a
    level array swapped for a fresh one would silently keep stale gradients."""
    field = InstantNGPField(small_grid_config, geo_features=3, hidden_dim=8, rng=rng)
    enc = field.encoding
    _assert_views_of_one_table(enc)
    _assert_views_of_one_table(enc.quantized_int8())
    optimizer = Adam(field.parameters(), field.gradients(), learning_rate=1e-2)
    pos = rng.uniform(0, 1, (32, 3))
    dirs = rng.normal(size=(32, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    before = enc.table.copy()
    for _ in range(3):
        field.zero_grad()
        sigma, rgb = field.forward(pos, dirs)
        field.backward(np.ones_like(sigma), np.ones_like(rgb))
        optimizer.step()
    _assert_views_of_one_table(enc)
    assert not np.array_equal(before, enc.table)  # Adam's updates reached the table


def test_multilevel_vertex_indices_match_per_level(small_grid_config, rng):
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = rng.uniform(0, 1, (64, 3))
    idx_all, w_all = enc.multilevel_vertex_indices(pos)
    assert idx_all.shape == (small_grid_config.num_levels, 64, 8)
    assert w_all.shape == (small_grid_config.num_levels, 64, 8)
    for level in range(small_grid_config.num_levels):
        idx, w, _ = enc.vertex_indices(pos, level)
        np.testing.assert_array_equal(idx_all[level], idx)
        np.testing.assert_array_equal(w_all[level], w)


def test_bincount_backward_matches_scatter_reference(small_grid_config, rng):
    """Segment-sum backward must match the np.add.at oracle within float tolerance."""
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = rng.uniform(0, 1, (300, 3))
    upstream = rng.normal(size=(300, small_grid_config.output_dim)).astype(np.float32)
    enc.forward(pos)
    enc.zero_grad()
    enc.backward(upstream)
    fast = [g.copy() for g in enc.grads]
    enc.forward(pos)
    enc.zero_grad()
    enc.backward_reference(upstream)
    for fast_grad, ref_grad in zip(fast, enc.grads):
        np.testing.assert_allclose(fast_grad, ref_grad, atol=1e-5)


def test_backward_reference_requires_forward(small_grid_config):
    enc = HashGridEncoding(small_grid_config)
    with pytest.raises(RuntimeError):
        enc.backward_reference(np.zeros((1, small_grid_config.output_dim)))


def test_vertex_indices_weights_sum_to_one(small_grid_config, rng):
    enc = HashGridEncoding(small_grid_config, rng=rng)
    pos = rng.uniform(0, 1, (50, 3))
    for level in range(small_grid_config.num_levels):
        idx, weights, base = enc.vertex_indices(pos, level)
        assert idx.shape == (50, 8)
        assert weights.shape == (50, 8)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-5)
        assert np.all(idx >= 0)
        assert np.all(idx < small_grid_config.level_table_entries(level))


def test_frequency_encoding_shapes_and_range():
    enc = FrequencyEncoding(input_dim=3, num_frequencies=4, include_input=True)
    assert enc.output_dim == 3 + 3 * 4 * 2
    x = np.random.default_rng(0).uniform(-1, 1, (7, 3))
    out = enc.forward(x)
    assert out.shape == (7, enc.output_dim)
    # sin/cos components bounded by 1.
    assert np.all(np.abs(out[:, 3:]) <= 1.0 + 1e-6)
    with pytest.raises(ValueError):
        enc.forward(np.zeros((4, 2)))


@given(st.integers(2, 8), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_frequency_encoding_output_dim_property(dim, freqs):
    enc = FrequencyEncoding(input_dim=dim, num_frequencies=freqs, include_input=False)
    assert enc.output_dim == dim * freqs * 2
    assert enc.forward(np.zeros((3, dim))).shape == (3, enc.output_dim)


def _assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal shape, dtype and bytes: unlike ``==``, tells ``-0.0`` from ``0.0``."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("include_input", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2, 192])
@pytest.mark.parametrize("k", [1, 40])
def test_frequency_encoding_commutes_with_repeating_rows(include_input, n, k):
    """Encoding each run of equal rows once is invisible: repeating the
    inputs repeats the outputs, and shuffling them (which breaks the runs)
    shuffles the outputs, bit for bit."""
    enc = FrequencyEncoding(input_dim=3, num_frequencies=4, include_input=include_input)
    rng = np.random.default_rng(n * 100 + k)
    x = rng.normal(size=(n, 3))
    repeated = np.repeat(x, k, axis=0)
    _assert_same_bits(enc(repeated), np.repeat(enc(x), k, axis=0))
    order = rng.permutation(repeated.shape[0])
    _assert_same_bits(enc(repeated[order]), enc(repeated)[order])


def test_frequency_encoding_keeps_signed_zeros_apart():
    """``-0.0 == 0.0``, but they encode to different bits (``sin(-0.0)`` is
    ``-0.0``), so rows that differ only in a zero's sign are not one run."""
    enc = FrequencyEncoding(input_dim=3, num_frequencies=2, include_input=True)
    x = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]])
    out = enc(x)
    for row in range(3):
        _assert_same_bits(out[row : row + 1], enc(x[row : row + 1]))
    assert out[0].tobytes() != out[1].tobytes()
