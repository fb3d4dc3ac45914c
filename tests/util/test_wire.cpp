// util::wire, the one byte codec every binary record is built on: every
// fixed width round-trips bit for bit, an over-long string is rejected at
// write time, and a cut record, held whole or pulled from a stream, fails
// with a DecodeError that names the field being read and the byte offset
// where that field starts.
#include "dlscale/util/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wire = dlscale::util::wire;

namespace {

template <class T>
void expect_round_trip(T value) {
  std::vector<std::byte> bytes;
  wire::Writer(bytes).put(value);
  ASSERT_EQ(bytes.size(), sizeof(T));
  wire::Reader reader(bytes, "round trip");
  const T back = reader.get<T>("value");
  reader.expect_end();
  if constexpr (std::is_floating_point_v<T>) {
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    EXPECT_EQ(std::bit_cast<Bits>(back), std::bit_cast<Bits>(value));
  } else {
    EXPECT_EQ(back, value);
  }
}

template <class T>
void expect_extremes_round_trip() {
  expect_round_trip<T>(std::numeric_limits<T>::min());
  expect_round_trip<T>(std::numeric_limits<T>::max());
  expect_round_trip<T>(std::numeric_limits<T>::lowest());
  expect_round_trip<T>(T{0});
}

// {u8 flag, u32 count, u16-prefixed name, f64 time, 3 raw bytes}: one
// field of every kind the codec has.
struct Field {
  const char* name;
  std::size_t offset;
  std::size_t size;
};
constexpr std::string_view kName = "grad/conv1";
constexpr Field kLayout[] = {{"flag", 0, 1},
                             {"count", 1, 4},
                             {"name", 5, 2 + kName.size()},
                             {"time", 7 + kName.size(), 8},
                             {"payload", 15 + kName.size(), 3}};

std::vector<std::byte> mixed_record() {
  std::vector<std::byte> bytes;
  wire::Writer writer(bytes);
  writer.put(std::uint8_t{1});
  writer.put(std::uint32_t{42});
  writer.put_string<std::uint16_t>("name", kName);
  writer.put(2.5);
  const std::byte payload[] = {std::byte{7}, std::byte{8}, std::byte{9}};
  writer.put_bytes(payload);
  return bytes;
}

void read_mixed(wire::Reader& reader) {
  EXPECT_EQ(reader.get<std::uint8_t>("flag"), 1);
  EXPECT_EQ(reader.get<std::uint32_t>("count"), 42u);
  EXPECT_EQ(reader.get_string<std::uint16_t>("name"), kName);
  EXPECT_EQ(reader.get<double>("time"), 2.5);
  EXPECT_EQ(reader.take(3, "payload")[2], std::byte{9});
  reader.expect_end();
}

void read_mixed(std::span<const std::byte> bytes) {
  wire::Reader reader(bytes, "mixed");
  read_mixed(reader);
}

// The same bytes pulled from a stream, as the checkpoint loader reads.
void read_mixed_streamed(std::span<const std::byte> bytes) {
  std::istringstream in(std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  wire::Reader reader(in, "mixed");
  read_mixed(reader);
}

}  // namespace

TEST(Wire, EveryWidthRoundTrips) {
  expect_extremes_round_trip<std::uint8_t>();
  expect_extremes_round_trip<std::uint16_t>();
  expect_extremes_round_trip<std::uint32_t>();
  expect_extremes_round_trip<std::uint64_t>();
  expect_extremes_round_trip<std::int8_t>();
  expect_extremes_round_trip<std::int16_t>();
  expect_extremes_round_trip<std::int32_t>();
  expect_extremes_round_trip<std::int64_t>();
  expect_extremes_round_trip<float>();
  expect_extremes_round_trip<double>();
  expect_round_trip(-0.0f);
  expect_round_trip(std::numeric_limits<float>::quiet_NaN());
  expect_round_trip(std::numeric_limits<double>::infinity());
  expect_round_trip(std::numeric_limits<double>::denorm_min());
}

TEST(Wire, IntegersAreLittleEndian) {
  std::vector<std::byte> bytes;
  wire::Writer(bytes).put(std::uint32_t{0x44332211});
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], std::byte{0x11});
  EXPECT_EQ(bytes[3], std::byte{0x44});
}

TEST(Wire, WriterAppendsToTheCallersBuffer) {
  std::vector<std::byte> bytes = {std::byte{0xAB}};
  wire::Writer writer(bytes);
  writer.put(std::uint16_t{0x0102});
  const auto region = writer.reserve(2);
  region[0] = std::byte{3};
  region[1] = std::byte{4};
  const std::vector<std::byte> expected = {std::byte{0xAB}, std::byte{2}, std::byte{1},
                                           std::byte{3}, std::byte{4}};
  EXPECT_EQ(bytes, expected);
}

TEST(Wire, StringsRoundTripUpToTheirPrefixLimit) {
  const std::string longest(std::numeric_limits<std::uint16_t>::max(), 'x');
  std::vector<std::byte> bytes;
  wire::Writer writer(bytes);
  writer.put_string<std::uint16_t>("name", "");
  writer.put_string<std::uint16_t>("name", longest);
  wire::Reader reader(bytes, "strings");
  EXPECT_EQ(reader.get_string<std::uint16_t>("name"), "");
  EXPECT_EQ(reader.get_string<std::uint16_t>("name"), longest);
  reader.expect_end();
}

TEST(Wire, OverlongStringIsRejectedAtWriteTimeNotTruncated) {
  const std::string too_long(70'000, 'x');
  std::vector<std::byte> bytes;
  wire::Writer writer(bytes);
  try {
    writer.put_string<std::uint16_t>("tensor name", too_long);
    FAIL() << "a 70000-byte string fit a u16 prefix";
  } catch (const std::length_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("tensor name"), std::string::npos) << message;
    EXPECT_NE(message.find("70000"), std::string::npos) << message;
    EXPECT_NE(message.find("65535"), std::string::npos) << message;
  }
  EXPECT_TRUE(bytes.empty()) << "a rejected string must write nothing";
  // A tighter maximum than the prefix allows is checked the same way.
  EXPECT_THROW(writer.put_string<std::uint32_t>("name", "abcde", 4), std::length_error);
  EXPECT_NO_THROW(writer.put_string<std::uint32_t>("name", "abcd", 4));
}

TEST(Wire, DecodeErrorNamesFieldAndOffsetAtEveryCut) {
  const std::vector<std::byte> full = mixed_record();
  ASSERT_EQ(full.size(), kLayout[4].offset + kLayout[4].size);
  read_mixed(full);
  read_mixed_streamed(full);
  for (const auto read : {&read_mixed, &read_mixed_streamed}) {
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      try {
        read(std::span<const std::byte>(full.data(), cut));
        FAIL() << "cut at " << cut << " decoded";
      } catch (const wire::DecodeError& error) {
        const Field* cut_field = nullptr;
        for (const Field& f : kLayout) {
          if (cut >= f.offset && cut < f.offset + f.size) cut_field = &f;
        }
        ASSERT_NE(cut_field, nullptr);
        EXPECT_EQ(error.field, cut_field->name) << "cut " << cut;
        // The offset is where the unreadable piece starts: the field
        // itself, or the string's bytes once its prefix has been read.
        EXPECT_GE(error.offset, cut_field->offset) << "cut " << cut;
        EXPECT_LE(error.offset, cut) << "cut " << cut;
        const std::string message = error.what();
        EXPECT_NE(message.find("mixed: "), std::string::npos) << message;
        EXPECT_NE(message.find(cut_field->name), std::string::npos) << message;
        EXPECT_NE(message.find("at byte " + std::to_string(error.offset)), std::string::npos)
            << message;
      }
    }
  }
}

TEST(Wire, TrailingBytesAreDetected) {
  std::vector<std::byte> bytes = mixed_record();
  const std::size_t end = bytes.size();
  bytes.push_back(std::byte{0});
  bytes.push_back(std::byte{0});
  for (const auto read : {&read_mixed, &read_mixed_streamed}) {
    try {
      read(bytes);
      FAIL() << "trailing bytes accepted";
    } catch (const wire::DecodeError& error) {
      EXPECT_EQ(error.offset, end);
      EXPECT_NE(std::string(error.what()).find("2 trailing bytes"), std::string::npos)
          << error.what();
    }
  }
}

TEST(Wire, DecodeErrorIsARuntimeError) {
  const std::vector<std::byte> empty;
  wire::Reader reader(empty, "empty");
  EXPECT_THROW((void)reader.get<std::uint32_t>("count"), std::runtime_error);
}

TEST(Wire, FieldListWalksBothDirections) {
  enum class Mode : std::uint8_t { kA = 1, kB = 2 };
  struct Record {
    bool on = false;
    Mode mode = Mode::kA;
    std::size_t bytes = 0;
  };
  const auto fields = [](auto& codec, Record& r) {
    wire::field<std::uint8_t>(codec, "on", r.on);
    wire::field<std::uint8_t>(codec, "mode", r.mode);
    wire::field<std::uint64_t>(codec, "bytes", r.bytes);
  };
  Record sent{true, Mode::kB, std::size_t{1} << 40};
  std::vector<std::byte> bytes;
  wire::Writer writer(bytes);
  fields(writer, sent);
  EXPECT_EQ(bytes.size(), 10u);
  Record got;
  wire::Reader reader(bytes, "record");
  fields(reader, got);
  reader.expect_end();
  EXPECT_TRUE(got.on);
  EXPECT_EQ(got.mode, Mode::kB);
  EXPECT_EQ(got.bytes, sent.bytes);
}
