#include "common/serialize.hpp"

namespace raq::common {

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
    if (!out_) throw std::runtime_error("BinaryWriter: cannot open " + path);
}

void BinaryWriter::write_u32(std::uint32_t v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void BinaryWriter::write_u64(std::uint64_t v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void BinaryWriter::write_string(const std::string& s) {
    write_u64(s.size());
    out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::write_f32_vector(const std::vector<float>& v) {
    write_u64(v.size());
    out_.write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(float)));
}

BinaryReader::BinaryReader(const std::string& path) : in_(path, std::ios::binary) {
    if (!in_) throw std::runtime_error("BinaryReader: cannot open " + path);
}

std::uint32_t BinaryReader::read_u32() {
    std::uint32_t v = 0;
    in_.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!in_) throw std::runtime_error("BinaryReader: truncated stream (u32)");
    return v;
}

std::uint64_t BinaryReader::read_u64() {
    std::uint64_t v = 0;
    in_.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!in_) throw std::runtime_error("BinaryReader: truncated stream (u64)");
    return v;
}

std::string BinaryReader::read_string() {
    const auto n = read_u64();
    std::string s(n, '\0');
    in_.read(s.data(), static_cast<std::streamsize>(n));
    if (!in_) throw std::runtime_error("BinaryReader: truncated stream (string)");
    return s;
}

std::vector<float> BinaryReader::read_f32_vector() {
    const auto n = read_u64();
    std::vector<float> v(n);
    in_.read(reinterpret_cast<char*>(v.data()),
             static_cast<std::streamsize>(n * sizeof(float)));
    if (!in_) throw std::runtime_error("BinaryReader: truncated stream (f32 vector)");
    return v;
}

}  // namespace raq::common
