// Minimal binary serialization for cached trained models.
//
// Format: little-endian, magic + version header, then a stream of tagged
// records written by the caller. Used by nn::ModelCache so the (slow)
// one-time training runs are shared across all benches/examples.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace raq::common {

class BinaryWriter {
public:
    explicit BinaryWriter(const std::string& path);

    void write_u32(std::uint32_t v);
    void write_u64(std::uint64_t v);
    void write_string(const std::string& s);
    void write_f32_vector(const std::vector<float>& v);

    [[nodiscard]] bool good() const { return out_.good(); }

private:
    std::ofstream out_;
};

class BinaryReader {
public:
    explicit BinaryReader(const std::string& path);

    std::uint32_t read_u32();
    std::uint64_t read_u64();
    std::string read_string();
    std::vector<float> read_f32_vector();

    [[nodiscard]] bool good() const { return in_.good(); }

private:
    std::ifstream in_;
};

inline constexpr std::uint32_t kSerializeMagic = 0x52415131;  // "RAQ1"

}  // namespace raq::common
