// One bounded byte codec for every binary message and file (DESIGN.md §6
// "Wire records"). Values are little-endian and fixed-width; a string
// carries a length prefix and a checked maximum, and an over-long one is
// rejected when it is written, never truncated. A Reader that runs out of
// bytes, or finds bytes left over, throws DecodeError naming the record,
// the field and its byte offset.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <istream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dlscale::util::wire {

static_assert(std::endian::native == std::endian::little,
              "wire records are little-endian and this build does not byte-swap");

/// A value stored in its own width: any integer but bool, or a float.
template <class T>
concept Fixed = (std::integral<T> && !std::same_as<T, bool>) || std::floating_point<T>;

/// `field` names what was being read and `offset` is the byte where it
/// starts. what() reads "<record>: <field> at byte <offset>: <detail>".
struct DecodeError : std::runtime_error {
  DecodeError(std::string_view record, std::string field_in, std::size_t offset_in,
              const std::string& detail)
      : std::runtime_error(std::string(record) + ": " + field_in + " at byte " +
                           std::to_string(offset_in) + ": " + detail),
        field(std::move(field_in)),
        offset(offset_in) {}
  std::string field;
  std::size_t offset = 0;
};

/// Appends to a caller-owned buffer, so the caller can reuse its capacity.
class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) noexcept : out_(&out) {}

  template <Fixed T>
  void put(T value) {
    put_bytes(std::as_bytes(std::span<const T, 1>(&value, 1)));
  }

  /// Raw bytes without a prefix: the reader knows their size from context.
  void put_bytes(std::span<const std::byte> bytes) {
    // resize + memcpy, not insert: g++ 12 reports a false
    // -Wstringop-overflow on an inlined insert into a fresh vector.
    if (!bytes.empty()) std::memcpy(reserve(bytes.size()).data(), bytes.data(), bytes.size());
  }

  /// Appends `n` bytes and returns them for the caller to fill in place;
  /// the span is valid until the next write.
  [[nodiscard]] std::span<std::byte> reserve(std::size_t n) {
    const std::size_t at = out_->size();
    out_->resize(at + n);
    return std::span<std::byte>(*out_).subspan(at);
  }

  /// A `Len` byte count, then the bytes. A value over `max` throws
  /// std::length_error naming `field`, its length and the limit.
  template <std::unsigned_integral Len>
  void put_string(std::string_view field, std::string_view value,
                  std::size_t max = std::numeric_limits<Len>::max()) {
    max = std::min<std::size_t>(max, std::numeric_limits<Len>::max());
    if (value.size() > max) {
      throw std::length_error("wire: " + std::string(field) + " is " +
                              std::to_string(value.size()) + " bytes, over the " +
                              std::to_string(max) + "-byte limit");
    }
    put(static_cast<Len>(value.size()));
    put_bytes(std::as_bytes(std::span<const char>(value)));
  }

 private:
  std::vector<std::byte>* out_;
};

/// Reads a record front to back. `record` names it in every DecodeError
/// and must outlive the Reader.
class Reader {
 public:
  Reader(std::span<const std::byte> in, std::string_view record) noexcept
      : in_(in), record_(record) {}
  /// Pulls bytes from `in` as they are taken, so a file is never held
  /// whole. take(n) allocates n bytes first, so check a length read from
  /// the input against a limit before taking it; each span take()
  /// returns is valid until the next read.
  Reader(std::istream& in, std::string_view record) noexcept : stream_(&in), record_(record) {}

  template <Fixed T>
  T get(std::string_view field) {
    T value{};
    std::memcpy(&value, take(sizeof(T), field).data(), sizeof(T));
    return value;
  }

  /// The next `n` bytes.
  std::span<const std::byte> take(std::size_t n, std::string_view field) {
    if (stream_ != nullptr) {
      pulled_.resize(n);
      stream_->read(reinterpret_cast<char*>(pulled_.data()), static_cast<std::streamsize>(n));
      in_ = std::span<const std::byte>(pulled_).first(static_cast<std::size_t>(stream_->gcount()));
      consumed_ += pos_;
      pos_ = 0;
    }
    const std::size_t left = in_.size() - pos_;
    if (n > left) {
      throw DecodeError(record_, std::string(field), consumed_ + pos_,
                        "truncated (needs " + std::to_string(n) + " bytes, " +
                            std::to_string(left) + " left)");
    }
    pos_ += n;
    return in_.subspan(pos_ - n, n);
  }

  /// A string written by Writer::put_string<Len>.
  template <std::unsigned_integral Len>
  std::string get_string(std::string_view field) {
    const auto bytes = take(get<Len>(field), field);
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }

  void expect_end() {
    std::size_t left = in_.size() - pos_;
    if (stream_ != nullptr) {
      stream_->ignore(std::numeric_limits<std::streamsize>::max());
      left = static_cast<std::size_t>(stream_->gcount());
    }
    if (left != 0) {
      throw DecodeError(record_, "end of record", consumed_ + pos_,
                        std::to_string(left) + " trailing bytes");
    }
  }

 private:
  std::span<const std::byte> in_;  ///< the record, or the last bytes pulled
  std::istream* stream_ = nullptr;
  std::vector<std::byte> pulled_;
  std::string_view record_;
  std::size_t consumed_ = 0;  ///< bytes before in_
  std::size_t pos_ = 0;       ///< read position within in_
};

/// One entry of a record's field list, which then drives both directions:
/// writes `value` as a `Wire`, or reads a `Wire` into it. bool and enum
/// members travel as their integer.
template <Fixed Wire, class T>
void field(Writer& writer, std::string_view /*name*/, const T& value) {
  writer.put(static_cast<Wire>(value));
}

template <Fixed Wire, class T>
void field(Reader& reader, std::string_view name, T& value) {
  value = static_cast<T>(reader.get<Wire>(name));
}

}  // namespace dlscale::util::wire
