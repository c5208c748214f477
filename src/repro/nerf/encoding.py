"""Input encodings for radiance fields.

Two encodings are provided:

* :class:`HashGridEncoding` — iNGP's multi-resolution hash encoding with a
  pluggable hash mapping function (original prime-XOR or Instant-NeRF's
  Morton locality hash) and trilinear interpolation, including the backward
  pass that scatters gradients into the embedding tables.
* :class:`FrequencyEncoding` — the sinusoidal positional encoding of vanilla
  NeRF, used by the vanilla-NeRF baseline and for view-direction encoding.

Array math goes through the :mod:`repro.core.xp` backend shim (numpy by
default), with hand-written reverse-mode gradients.  The table precision is
an axis of :class:`HashGridConfig`: float tables (``fp64``/``fp32``/``fp16``)
train end to end, while ``int8`` tables store affine-quantized entries that
are dequantized on gather (inference only — see :meth:`quantized_int8`).
The ``*_reference`` oracles stay pure numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..core import precision, xp
from ..core.hashing import AxisCodes, DenseGridIndexer, HashFunction, OriginalSpatialHash

__all__ = [
    "HashGridConfig",
    "HashGridEncoding",
    "FrequencyEncoding",
    "level_resolutions",
]


def level_resolutions(num_levels: int, base_resolution: int, max_resolution: int) -> list[int]:
    """Per-level grid resolutions following iNGP's geometric progression.

    ``N_l = floor(N_min * b**l)`` with the growth factor ``b`` chosen so that
    level ``L-1`` reaches ``max_resolution``.
    """
    if num_levels <= 0:
        raise ValueError("num_levels must be positive")
    if base_resolution <= 0 or max_resolution < base_resolution:
        raise ValueError("require 0 < base_resolution <= max_resolution")
    if num_levels == 1:
        return [base_resolution]
    growth = math.exp((math.log(max_resolution) - math.log(base_resolution)) / (num_levels - 1))
    return [int(math.floor(base_resolution * growth**level)) for level in range(num_levels)]


@dataclass(frozen=True)
class HashGridConfig:
    """Configuration of the multi-resolution hash table.

    Paper-scale defaults match iNGP: ``L=16`` levels, ``T=2**19`` entries per
    level, ``F=2`` features per entry, base resolution 16, finest 2048.

    ``dtype`` names the precision table entries are stored (and the encoding
    computed) in: one of :data:`repro.core.precision.PRECISIONS`.  The
    default ``fp32`` matches the historical float32 tables; ``int8`` stores
    affine-quantized entries dequantized to float32 on gather.
    """

    num_levels: int = 16
    table_size: int = 2**19
    features_per_entry: int = 2
    base_resolution: int = 16
    max_resolution: int = 2048
    hash_fn: HashFunction = field(default_factory=OriginalSpatialHash)
    dtype: str = "fp32"

    def __post_init__(self) -> None:
        precision.validate_precision(self.dtype)

    @property
    def resolutions(self) -> list[int]:
        return level_resolutions(self.num_levels, self.base_resolution, self.max_resolution)

    @property
    def output_dim(self) -> int:
        return self.num_levels * self.features_per_entry

    @property
    def entry_bytes(self) -> int:
        """Bytes of one table entry (``F`` features at this precision)."""
        return precision.entry_bytes(self.dtype, self.features_per_entry)

    def level_table_entries(self, level: int) -> int:
        """Actual number of table entries used by a level.

        Coarse levels whose dense grid is smaller than ``T`` store the grid
        directly (dense indexing); finer levels use ``T`` hashed entries.
        """
        res = self.resolutions[level]
        dense = (res + 1) ** 3
        return min(dense, self.table_size)

    def level_uses_hash(self, level: int) -> bool:
        res = self.resolutions[level]
        return (res + 1) ** 3 > self.table_size

    def table_bytes(self, dtype_bytes: int | None = None) -> int:
        """Total hash-table parameter footprint in bytes.

        ``dtype_bytes`` overrides the per-scalar width; by default it is
        derived from ``dtype`` (4 for the fp32 default).
        """
        width = precision.dtype_bytes(self.dtype) if dtype_bytes is None else dtype_bytes
        total_entries = sum(self.level_table_entries(lvl) for lvl in range(self.num_levels))
        return total_entries * self.features_per_entry * width


class HashGridEncoding:
    """Multi-resolution hash encoding (iNGP Steps (1)-(4)).

    The forward pass hashes the 8 surrounding cube vertices on every level,
    looks up their embeddings, interpolates trilinearly and concatenates the
    levels' features.  The backward pass accumulates gradients into the
    embedding tables with the same trilinear weights.

    All levels share one contiguous ``(sum_l E_l, F)`` :attr:`table` (and a
    matching :attr:`grad_table`, zeroed in one pass): level ``l`` owns the
    rows starting at ``row_offsets[l]``, and ``embeddings[l]`` / ``grads[l]``
    are views of them, so in-place updates through either name reach the
    other.  Update levels in place; never rebind ``embeddings[l]`` to a
    fresh array, which would split it from :attr:`table`.

    With ``config.dtype == "int8"`` the tables hold quantized codes plus a
    per-level ``(scale, zero_point)`` pair; gathers dequantize to float32 and
    :meth:`backward` refuses to run (int8 tables are inference-only — train
    a float encoding and convert it with :meth:`quantized_int8`).
    """

    #: Points per block of the fused multi-level index pass and of the
    #: per-level gather.  The block bounds the working set ((L, block) per-axis
    #: geometry, (8, block, F) gathered entries) to a few MB so the
    #: intermediate arrays stay cache/allocator-friendly at paper-scale N; an
    #: unblocked (L, N, 8, 3) broadcast at N=256K would materialize close to a
    #: GB of short-lived temporaries.
    MULTILEVEL_BLOCK = 4096

    def __init__(
        self, config: HashGridConfig | None = None, rng: np.random.Generator | None = None
    ):
        self.config = config or HashGridConfig()
        rng = rng or np.random.default_rng(0)
        cfg = self.config
        self._value_dtype = precision.compute_dtype(cfg.dtype)
        self._grad_dtype = np.float64 if cfg.dtype == "fp64" else np.float32
        self._quantized = cfg.dtype == "int8"
        # Per-level geometry, fixed by the config.
        resolutions = cfg.resolutions
        self._resolutions = xp.asarray(resolutions, dtype=np.float64)[:, None]  # (L, 1)
        self._max_base = xp.asarray(resolutions, dtype=np.int64)[:, None] - 1  # (L, 1)
        self._level_entries = [cfg.level_table_entries(lvl) for lvl in range(cfg.num_levels)]
        self._level_codes: list[AxisCodes] = [
            (cfg.hash_fn if cfg.level_uses_hash(lvl) else DenseGridIndexer(res)).axis_codes(
                res, self._level_entries[lvl]
            )
            for lvl, res in enumerate(resolutions)
        ]
        starts = [0, *itertools.accumulate(self._level_entries)]
        #: First row of each level in :attr:`table`, shape ``(L,)``.
        self.row_offsets = xp.asarray(starts[:-1], dtype=np.int64)
        shape = (starts[-1], cfg.features_per_entry)
        self.table = xp.empty(shape, dtype=precision.storage_dtype(cfg.dtype))
        self.grad_table = xp.zeros(shape, dtype=self._grad_dtype)
        levels = [slice(lo, hi) for lo, hi in zip(starts[:-1], starts[1:])]
        self.embeddings: list[np.ndarray] = [self.table[rows] for rows in levels]
        self.grads: list[np.ndarray] = [self.grad_table[rows] for rows in levels]
        self.scales: list[float] = [1.0] * cfg.num_levels
        self.zero_points: list[float] = [0.0] * cfg.num_levels
        for lvl, emb in enumerate(self.embeddings):
            # iNGP initialises embeddings uniformly in [-1e-4, 1e-4].
            init = rng.uniform(-1e-4, 1e-4, size=emb.shape)
            if self._quantized:
                codes, self.scales[lvl], self.zero_points[lvl] = precision.quantize_int8(init)
                emb[...] = xp.asarray(codes)
            else:
                emb[...] = xp.asarray(init)
        self._cache: dict | None = None

    # ------------------------------------------------------------------ API
    @property
    def output_dim(self) -> int:
        return self.config.output_dim

    def parameters(self) -> list[np.ndarray]:
        return self.embeddings

    def gradients(self) -> list[np.ndarray]:
        return self.grads

    def zero_grad(self) -> None:
        self.grad_table[...] = 0.0

    def num_parameters(self) -> int:
        return int(self.table.size)

    def quantized_int8(self, rng: np.random.Generator | None = None) -> HashGridEncoding:
        """Post-training int8 quantization: a new encoding with code tables.

        Each level's float table is affine-quantized independently (its own
        ``scale``/``zero_point``), which bounds the per-entry reconstruction
        error by half a code step of that level's value range.
        """
        if self._quantized:
            raise ValueError("encoding is already int8-quantized")
        out = HashGridEncoding(replace(self.config, dtype="int8"), rng=rng)
        for level, emb in enumerate(self.embeddings):
            codes, scale, zero = precision.quantize_int8(xp.asnumpy(emb))
            out.embeddings[level][...] = xp.asarray(codes)
            out.scales[level] = scale
            out.zero_points[level] = zero
        return out

    def _gathered_values(self, level: int, gathered: np.ndarray) -> np.ndarray:
        """Table entries in compute precision (dequantizes int8 codes)."""
        if self._quantized:
            return precision.dequantize_int8(
                gathered, self.scales[level], self.zero_points[level], dtype=self._value_dtype
            )
        return gathered

    # ------------------------------------------------------- index helpers
    def vertex_indices(
        self, positions: np.ndarray, level: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hash-table indices and interpolation weights for one level.

        Parameters
        ----------
        positions:
            ``(N, 3)`` float array with coordinates in ``[0, 1]``.
        level:
            Level index in ``[0, L)``.

        Returns
        -------
        (indices, weights, base_coords):
            ``indices`` is ``(N, 8)`` int64 table indices, ``weights`` is the
            ``(N, 8)`` trilinear weight of each corner in the encoding's
            compute dtype (float32 by default), and ``base_coords`` is the
            ``(N, 3)`` integer lower-corner vertex of each cube.
        """
        cfg = self.config
        res = cfg.resolutions[level]
        pos = xp.clip(xp.asarray(positions, dtype=np.float64), 0.0, 1.0)
        scaled = pos * res
        base = xp.floor(scaled).astype(np.int64)
        base = xp.clip(base, 0, res - 1)
        frac = scaled - base  # in [0, 1)

        offsets = xp.array(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.int64
        )  # (8, 3)
        corners = base[:, None, :] + offsets[None, :, :]  # (N, 8, 3)

        table_entries = cfg.level_table_entries(level)
        if cfg.level_uses_hash(level):
            idx = cfg.hash_fn(corners.reshape(-1, 3), table_entries).reshape(-1, 8)
        else:
            idx = DenseGridIndexer(res)(corners.reshape(-1, 3), table_entries).reshape(-1, 8)

        # Trilinear weights: product over axes of (1-frac) or frac per corner.
        w = xp.ones((pos.shape[0], 8), dtype=np.float64)
        for axis in range(3):
            take_hi = offsets[:, axis][None, :]  # (1, 8)
            f = frac[:, axis][:, None]  # (N, 1)
            w = w * xp.where(take_hi == 1, f, 1.0 - f)
        return idx, w.astype(self._value_dtype), base

    def multilevel_vertex_indices(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hash-table indices and weights for *all* levels in one fused pass.

        Produces bit-identical results to calling :meth:`vertex_indices`
        level by level.  The arrays are filled corner-major by
        :meth:`_multilevel_block`; what is returned are transposed views.

        Returns
        -------
        (indices, weights):
            ``indices`` is ``(L, N, 8)`` int64 per-level table indices and
            ``weights`` is ``(L, N, 8)`` in the encoding's compute dtype
            (float32 by default).
        """
        idx, w = self._corner_major_indices(positions)
        return idx.transpose(0, 2, 1), w.transpose(0, 2, 1)

    def _corner_major_indices(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(L, 8, N)`` int64 indices and weights, in blocks of :attr:`MULTILEVEL_BLOCK`."""
        pos = xp.clip(xp.asarray(positions, dtype=np.float64), 0.0, 1.0)
        shape = (self.config.num_levels, 8, pos.shape[0])
        idx = xp.empty(shape, dtype=np.int64)
        codes = idx.view(np.uint64)  # every index is in [0, T), so both views agree
        w = xp.empty(shape, dtype=self._value_dtype)
        for start in range(0, pos.shape[0], self.MULTILEVEL_BLOCK):
            block = slice(start, start + self.MULTILEVEL_BLOCK)
            self._multilevel_block(pos[block], codes[:, :, block], w[:, :, block])
        return idx, w

    def _multilevel_block(self, pos: np.ndarray, codes: np.ndarray, w: np.ndarray) -> None:
        """Fill ``(L, 8, B)`` ``codes``/``w`` for one block of clipped positions.

        The geometry is laid out ``(3, L, B)`` so every per-axis lo/hi
        factor and cube base is a contiguous ``(L, B)`` array.  Each corner's
        weight is ``(w_x * w_y) * w_z`` in float64 — the multiply order of
        :meth:`vertex_indices` — rounded once into the compute dtype.  Each
        level's corner indices come from its per-axis code tables
        (:meth:`AxisCodes.corner_codes`), one contiguous row per corner.
        """
        scaled = pos.T[:, None, :] * self._resolutions  # (3, L, B), all >= 0
        base = scaled.astype(np.int64)  # truncation is floor here
        xp.minimum(base, self._max_base, out=base)
        frac = scaled - base  # in [0, 1)
        factors = (xp.subtract(1.0, frac, out=scaled), frac)  # [corner bit][axis] -> (L, B)
        for i in (0, 1):
            for j in (0, 1):
                wxy = factors[i][0] * factors[j][1]
                for k in (0, 1):
                    xp.multiply(wxy, factors[k][2], out=w[:, 4 * i + 2 * j + k])
        for level, level_codes in enumerate(self._level_codes):
            level_codes.corner_codes(*base[:, level], out=codes[level])

    # ------------------------------------------------------------- forward
    def forward(self, positions: np.ndarray) -> np.ndarray:
        """Encode positions; returns ``(N, L*F)`` features in compute dtype.

        :meth:`_corner_major_indices` computes every level's indices and
        weights in one blocked pass, as ``(L, 8, N)`` arrays; then each
        level's corner entries are gathered from its view of :attr:`table`
        with ``take``, weighted, and summed in corner order ``c = 0..7`` —
        the order of the per-level ``sum(axis=1)`` in
        :meth:`forward_reference`, which stays the bit-exact oracle.  The
        gather runs level by level over blocks of :attr:`MULTILEVEL_BLOCK`
        points, so its temporaries stay small and each level's rows stay
        cache- and TLB-resident while it is read.  The cache keeps the
        per-level ``(N, 8)`` transposed views that :meth:`backward` reads.
        Positions are clipped to the unit cube (so ``±inf`` is accepted);
        NaN raises ``ValueError``.
        """
        positions = xp.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {positions.shape}")
        if bool(xp.isnan(positions).any()):
            raise ValueError("positions contain NaN; the hash grid cannot encode them")
        cfg = self.config
        n = positions.shape[0]
        idx, w = self._corner_major_indices(positions)
        features = xp.empty((n, cfg.output_dim), dtype=self._value_dtype)
        out = features.reshape(n, cfg.num_levels, cfg.features_per_entry)
        for level, (level_idx, level_w) in enumerate(zip(idx, w)):
            for start in range(0, n, self.MULTILEVEL_BLOCK):
                block = slice(start, start + self.MULTILEVEL_BLOCK)
                self._interpolate(level, level_idx[:, block], level_w[:, block], out[block, level])
        self._cache = {"levels": list(zip(idx.transpose(0, 2, 1), w.transpose(0, 2, 1))), "n": n}
        return features

    __call__ = forward

    def _interpolate(self, level: int, idx: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
        """Write one level's ``(B, F)`` weighted corner sums of ``(8, B)`` corners into ``out``."""
        if self.config.features_per_entry == 1:
            # A single feature leaves the corner axis innermost, where numpy
            # reduces it pairwise rather than in order; keep numpy's sum.
            vals = self._gathered_values(level, xp.take(self.embeddings[level], idx.T, axis=0))
            vals[..., 0] *= w.T
            out[...] = vals.sum(axis=1)
            return
        # Corner-major (8, B, F) entries, so each corner's add is contiguous.
        vals = self._gathered_values(level, xp.take(self.embeddings[level], idx, axis=0))
        for f in range(self.config.features_per_entry):
            vals[..., f] *= w
        acc = vals[0] + vals[1]
        for c in range(2, 8):
            acc += vals[c]
        out[...] = acc

    def forward_reference(self, positions: np.ndarray) -> np.ndarray:
        """Original per-level-loop forward, kept as the oracle for tests."""
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {positions.shape}")
        if np.isnan(positions).any():
            raise ValueError("positions contain NaN; the hash grid cannot encode them")
        cfg = self.config
        n = positions.shape[0]
        features = np.empty((n, cfg.output_dim), dtype=self._value_dtype)
        cache_levels = []
        for level in range(cfg.num_levels):
            idx, w, _ = self.vertex_indices(positions, level)
            emb = self._gathered_values(level, self.embeddings[level][idx])  # (N, 8, F)
            feat = (emb * w[:, :, None]).sum(axis=1)  # (N, F)
            lo = level * cfg.features_per_entry
            features[:, lo : lo + cfg.features_per_entry] = feat
            cache_levels.append((idx, w))
        self._cache = {"levels": cache_levels, "n": n}
        return features

    # ------------------------------------------------------------ backward
    def backward(self, grad_output: np.ndarray) -> None:
        """Accumulate embedding-table gradients given ``dL/d(features)``.

        ``grad_output`` has shape ``(N, L*F)`` and must correspond to the
        most recent :meth:`forward` (or :meth:`forward_reference`) call.
        Positions are treated as constants (iNGP does not back-propagate
        into sample positions either).

        The scatter-add over the 8 cube corners uses a ``bincount`` segment
        sum per level and feature channel (accumulated in float64), which is
        typically an order of magnitude faster than the ``np.add.at`` path
        retained in :meth:`backward_reference`.  Summing level by level keeps
        each segment sum's output and weight buffer cache-resident; one
        bincount over the whole :attr:`grad_table` gives the same bits (levels
        own disjoint rows) but measured slower.
        """
        if self._quantized:
            raise RuntimeError(
                "int8-quantized tables are inference-only; train a float encoding "
                "and convert it with quantized_int8()"
            )
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        cfg = self.config
        grad_output = xp.asarray(grad_output, dtype=self._grad_dtype)
        expected = (self._cache["n"], cfg.output_dim)
        if grad_output.shape != expected:
            raise ValueError(f"grad_output shape {grad_output.shape} != {expected}")
        # Reusable (N, 8) float64 weight buffer: multiplying straight into
        # float64 lets bincount consume the weights without an internal cast.
        buf = xp.empty((expected[0], 8), dtype=np.float64)
        flat_buf = buf.reshape(-1)
        for level, (idx, w) in enumerate(self._cache["levels"]):
            lo = level * cfg.features_per_entry
            flat_idx = idx.reshape(-1)
            entries = self.grads[level].shape[0]
            # dL/d emb[idx] = w * g_feat, segment-summed over the 8 corners.
            for f in range(cfg.features_per_entry):
                xp.multiply(w, grad_output[:, lo + f][:, None], out=buf)
                self.grads[level][:, f] += xp.bincount(flat_idx, flat_buf, minlength=entries)

    def backward_reference(self, grad_output: np.ndarray) -> None:
        """Original ``np.add.at`` scatter backward, kept as the oracle for tests."""
        if self._quantized:
            raise RuntimeError(
                "int8-quantized tables are inference-only; train a float encoding "
                "and convert it with quantized_int8()"
            )
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        cfg = self.config
        grad_output = np.asarray(grad_output, dtype=self._grad_dtype)
        expected = (self._cache["n"], cfg.output_dim)
        if grad_output.shape != expected:
            raise ValueError(f"grad_output shape {grad_output.shape} != {expected}")
        for level, (idx, w) in enumerate(self._cache["levels"]):
            lo = level * cfg.features_per_entry
            g_feat = grad_output[:, lo : lo + cfg.features_per_entry]  # (N, F)
            # dL/d emb[idx] = w * g_feat, scatter-added over the 8 corners.
            contrib = w[:, :, None] * g_feat[:, None, :]  # (N, 8, F)
            np.add.at(
                self.grads[level], idx.reshape(-1), contrib.reshape(-1, cfg.features_per_entry)
            )


class FrequencyEncoding:
    """Sinusoidal positional encoding ``gamma(p)`` from vanilla NeRF.

    Maps each input coordinate to ``(sin(2^k pi p), cos(2^k pi p))`` for
    ``k = 0..num_frequencies-1``, optionally keeping the raw input.
    """

    def __init__(self, input_dim: int = 3, num_frequencies: int = 10, include_input: bool = True):
        if input_dim <= 0 or num_frequencies <= 0:
            raise ValueError("input_dim and num_frequencies must be positive")
        self.input_dim = input_dim
        self.num_frequencies = num_frequencies
        self.include_input = include_input
        self.freq_bands = (2.0 ** xp.arange(num_frequencies)).astype(np.float64) * np.pi

    @property
    def output_dim(self) -> int:
        dim = self.input_dim * self.num_frequencies * 2
        if self.include_input:
            dim += self.input_dim
        return dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Encode ``(N, D)`` inputs; returns ``(N, output_dim)`` float32.

        Each run of bit-identical consecutive rows is encoded once and
        repeated: the trainer gives every sample of a ray its ray's
        direction, so a batch of rays x samples is encoded per ray.
        """
        x = xp.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected shape (N, {self.input_dim}), got {x.shape}")
        n = x.shape[0]
        if n < 2:
            return self._encode(x)
        bits = xp.ascontiguousarray(x).view(np.uint64)
        run_starts = xp.ones(n, dtype=bool)
        run_starts[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        starts = xp.flatnonzero(run_starts)
        if starts.size == n:  # no two neighbours repeat
            return self._encode(x)
        return xp.repeat(self._encode(x[starts]), xp.diff(starts, append=n), axis=0)

    def _encode(self, x: np.ndarray) -> np.ndarray:
        angles = x[:, :, None] * self.freq_bands[None, None, :]  # (N, D, K)
        shape = (x.shape[0], self.input_dim * self.num_frequencies)  # N may be 0
        enc = xp.concatenate([xp.sin(angles).reshape(shape), xp.cos(angles).reshape(shape)], axis=1)
        if self.include_input:
            enc = xp.concatenate([x, enc], axis=1)
        return enc.astype(np.float32)

    __call__ = forward

    def parameters(self) -> list[np.ndarray]:
        return []

    def gradients(self) -> list[np.ndarray]:
        return []

    def zero_grad(self) -> None:  # no trainable state
        return None
