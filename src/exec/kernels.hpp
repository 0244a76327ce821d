// Raw-pointer op kernels shared by every backend. Each kernel writes into
// a caller-provided (arena) buffer and mirrors the seed interpreter's loop
// structure exactly, element for element — planned execution is bit-
// identical to the test oracles (tests/seed_interpreter_ref.hpp) by
// construction, not by accident.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace raq::exec::kernels {

void relu(const float* in, float* out, std::size_t n);

void maxpool(const float* in, const tensor::Shape& s, int kernel, int stride, float* out,
             int oh, int ow);

void global_avg_pool(const float* in, const tensor::Shape& s, float* out);

void add(const float* a, const float* b, float* out, std::size_t n);

struct ConcatInput {
    const float* data = nullptr;
    int channels = 0;
};
void concat(const std::vector<ConcatInput>& ins, const tensor::Shape& out_shape, float* out);

/// im2col into a caller-provided [kdim, cols] buffer. Positions covered by
/// padding are only written when `zero_first` is set (pad > 0); with
/// pad == 0 every slot is produced, so the pre-zeroing pass is skipped.
void im2col(const float* in, const tensor::Shape& s, int kh, int kw, int stride, int pad,
            float* columns, int oh, int ow, bool zero_first);

/// Integer im2col on quantized activation codes; padding slots hold the
/// code for real-value zero (zp = 0 for the unsigned activation scheme).
void im2col_u8(const std::uint8_t* qx, const tensor::Shape& s, int kh, int kw, int stride,
               int pad, std::uint8_t* columns, int oh, int ow, bool zero_first);

}  // namespace raq::exec::kernels
