// Raw-pointer op kernels shared by every backend. Each kernel writes into
// a caller-provided (arena) buffer and folds every output element exactly
// as the seed interpreter does — planned execution is bit-identical to the
// test oracles (tests/seed_interpreter_ref.hpp) by construction, not by
// accident.
//
// Layout: the engine stores every tensor channel-major, [C][N][H][W]: one
// channel's planes for the whole batch form one contiguous block (at
// n = 1 that is NCHW). relu, add, maxpool and global_avg_pool work plane
// by plane or element by element, so they are the same code on either
// layout; concat and im2col read the channel-major blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/plan.hpp"
#include "tensor/tensor.hpp"

namespace raq::exec::kernels {

void relu(const float* in, float* out, std::size_t n);

/// Max-pool over the s.n·s.c planes of `in`. Each output folds its window
/// from −inf with std::max(acc, v), ky-major then kx-minor, skipping
/// out-of-bounds pixels. A 2×2 stride-2 pool whose windows all lie inside
/// the plane takes a fast path with the same fold.
void maxpool(const float* in, const tensor::Shape& s, int kernel, int stride, float* out,
             int oh, int ow);

/// Mean of each of the s.n·s.c planes of `in`, y-major, into out[plane].
void global_avg_pool(const float* in, const tensor::Shape& s, float* out);

void add(const float* a, const float* b, float* out, std::size_t n);

struct ConcatInput {
    const float* data = nullptr;
    int channels = 0;
};
/// Channel concat of channel-major inputs: one block copy per input.
void concat(const std::vector<ConcatInput>& ins, const tensor::Shape& out_shape, float* out);

/// Swaps the two outer dimensions of [rows][cols][plane]: out is
/// [cols][rows][plane]. NCHW -> channel-major is (rows, cols) = (N, C);
/// channel-major -> NCHW is (C, N).
void transpose_planes(const float* in, int rows, int cols, std::size_t plane, float* out);

/// Column matrix [C·kh·kw, N·oh·ow] of one conv over the channel-major
/// input `in` of shape `s`: row (c·kh + ky)·kw + kx, column
/// (n·oh + oy)·ow + ox. Every slot is written; slots whose input pixel
/// is out of bounds hold 0 (+0.0 for floats). Returns the matrix: `in`
/// itself on the Direct path (no copy), else `columns`. `phases` is the
/// Phase path's scratch, g.phase_elems(N·oh·ow) elements.
const float* im2col(const float* in, const tensor::Shape& s, const ir::ConvAttrs& conv,
                    const ConvGeom& g, float* columns, float* phases);

/// The same on quantized activation codes (zero-point 0, so 0 is the
/// code for real-value zero).
const std::uint8_t* im2col_u8(const std::uint8_t* in, const tensor::Shape& s,
                              const ir::ConvAttrs& conv, const ConvGeom& g,
                              std::uint8_t* columns, std::uint8_t* phases);

}  // namespace raq::exec::kernels
