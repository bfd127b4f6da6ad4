#include "util/disk_format.hpp"

#include <array>
#include <cstring>

#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace crusade::diskfmt {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

std::uint32_t get_u32(const std::string& in, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::string& in, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

std::string magic_text(const char* magic) { return std::string(magic, 4); }

}  // namespace

std::uint32_t crc32(const std::string& bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (char ch : bytes)
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::string frame(const char* magic, std::uint32_t version,
                  const std::string& payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(magic, 4);
  put_u32(out, version);
  put_u32(out, crc32(payload));
  put_u64(out, static_cast<std::uint64_t>(payload.size()));
  out += payload;
  return out;
}

Unframed unframe(const std::string& bytes, const char* magic,
                 std::uint32_t max_version) {
  const std::string name = magic_text(magic);
  if (bytes.size() < kHeaderBytes)
    throw Error(name + " file truncated: " + std::to_string(bytes.size()) +
                " bytes is shorter than the header");
  if (std::memcmp(bytes.data(), magic, 4) != 0)
    throw Error("not a " + name + " file (bad magic)");
  Unframed out;
  out.version = get_u32(bytes, 4);
  if (out.version == 0 || out.version > max_version)
    throw Error(name + " file: unsupported version " +
                std::to_string(out.version) + " (this build reads up to " +
                std::to_string(max_version) + ")");
  const std::uint32_t stored_crc = get_u32(bytes, 8);
  const std::uint64_t payload_len = get_u64(bytes, 12);
  if (bytes.size() != kHeaderBytes + payload_len)
    throw Error(name + " file truncated: header declares " +
                std::to_string(payload_len) + " payload bytes, file has " +
                std::to_string(bytes.size() - kHeaderBytes));
  out.payload = bytes.substr(kHeaderBytes);
  if (crc32(out.payload) != stored_crc)
    throw Error(name + " file corrupt: payload CRC mismatch");
  return out;
}

std::string write_framed_file(const std::string& path, const char* magic,
                              std::uint32_t version,
                              const std::string& payload) {
  std::string framed = frame(magic, version, payload);
  atomic_write_file(path, framed);
  return framed;
}

Unframed read_framed_file(const std::string& path, const char* magic,
                          std::uint32_t max_version) {
  return unframe(read_file(path), magic, max_version);
}

}  // namespace crusade::diskfmt
