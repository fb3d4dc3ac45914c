// Gradient compression codecs (DESIGN.md §12): int8 affine quantization
// and top-k sparsification with error-feedback residuals. Covers codec
// round-trips and residual semantics at the GradientCompressor level,
// cross-rank averaging through the full HorovodRuntime negotiation, the
// wire-bytes reduction the issue promises (>=3x int8, >=10x top-k @ 1%),
// virtual step-time improvement in a timed world, the strict
// DLSCALE_GRAD_COMPRESSION / DLSCALE_ALLREDUCE_ALGO env validation, and
// scalar/AVX2 bitwise agreement of the encoded blobs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "dlscale/hvd/horovod.hpp"
#include "dlscale/util/rng.hpp"
#include "dlscale/util/wire.hpp"
#include "../support/simd_param.hpp"

namespace dh = dlscale::hvd;
namespace dm = dlscale::mpi;
namespace dn = dlscale::net;
using dlscale::testing::ScopedSimdLevel;

namespace {

dm::WorldOptions functional_world(int ranks) {
  dm::WorldOptions options;
  options.topology = dn::Topology::single_node(ranks);
  options.profile = dn::MpiProfile::ideal();
  options.timing = false;
  return options;
}

dm::WorldOptions timed_world(int ranks) {
  dm::WorldOptions options;
  options.topology = dn::Topology::single_node(ranks);
  options.profile = dn::MpiProfile::mvapich2_gdr_like();
  options.timing = true;
  return options;
}

std::vector<float> rank_values(int rank, std::size_t n, std::uint64_t seed) {
  dlscale::util::Rng rng(seed + static_cast<std::uint64_t>(rank));
  std::vector<float> data(n);
  for (auto& x : data) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return data;
}

std::vector<float> averaged(int world, std::size_t n, std::uint64_t seed) {
  std::vector<float> acc(n, 0.0f);
  for (int r = 0; r < world; ++r) {
    const auto v = rank_values(r, n, seed);
    for (std::size_t i = 0; i < n; ++i) acc[i] += v[i];
  }
  for (auto& x : acc) x /= static_cast<float>(world);
  return acc;
}

struct ScopedEnv {
  std::string name;
  ScopedEnv(const std::string& n, const std::string& value) : name(n) {
    ::setenv(n.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

/// Encode+decode one tensor at world=1 (the decoded value is exactly
/// what this rank's compressed contribution reconstructs to).
std::vector<float> round_trip(dh::GradientCompressor& compressor, dh::CompressionAlgo algo,
                              const std::string& name, std::vector<float> grad,
                              float topk_ratio, bool error_feedback) {
  const dh::GradientCompressor::Chunk chunk{&name, grad};
  const auto wire = compressor.encode(algo, {&chunk, 1}, topk_ratio, error_feedback);
  compressor.decode_average(algo, {&chunk, 1}, wire, /*world=*/1);
  return grad;
}

}  // namespace

// ---- codec name parsing / env validation ----

TEST(CompressParse, NamesRoundTrip) {
  EXPECT_EQ(dh::parse_compression("none"), dh::CompressionAlgo::kNone);
  EXPECT_EQ(dh::parse_compression("FP16"), dh::CompressionAlgo::kFp16);
  EXPECT_EQ(dh::parse_compression("Int8"), dh::CompressionAlgo::kInt8);
  EXPECT_EQ(dh::parse_compression("topk"), dh::CompressionAlgo::kTopK);
  EXPECT_EQ(dh::parse_compression("top-k"), dh::CompressionAlgo::kTopK);
  EXPECT_EQ(dh::parse_compression("gzip"), std::nullopt);
  EXPECT_STREQ(dh::to_string(dh::CompressionAlgo::kInt8), "int8");
  EXPECT_STREQ(dh::to_string(dh::CompressionAlgo::kTopK), "topk");
}

TEST(CompressEnv, FromEnvReadsCompressionKnobs) {
  ScopedEnv codec("DLSCALE_GRAD_COMPRESSION", "int8");
  ScopedEnv ratio("DLSCALE_TOPK_RATIO", "0.05");
  ScopedEnv ef("DLSCALE_ERROR_FEEDBACK", "0");
  const auto knobs = dh::Knobs::from_env();
  EXPECT_EQ(knobs.compression, dh::CompressionAlgo::kInt8);
  EXPECT_NEAR(knobs.topk_ratio, 0.05f, 1e-6f);
  EXPECT_FALSE(knobs.error_feedback);
}

TEST(CompressEnv, UnknownCompressionThrowsNamingValidSet) {
  ScopedEnv codec("DLSCALE_GRAD_COMPRESSION", "gzip");
  try {
    (void)dh::Knobs::from_env();
    FAIL() << "unknown codec accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("gzip"), std::string::npos) << message;
    EXPECT_NE(message.find("none|fp16|int8|topk"), std::string::npos) << message;
  }
}

TEST(CompressEnv, UnknownAllreduceAlgoThrowsNamingValidSet) {
  ScopedEnv algo("DLSCALE_ALLREDUCE_ALGO", "butterfly");
  try {
    (void)dh::Knobs::from_env();
    FAIL() << "unknown algorithm accepted";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("butterfly"), std::string::npos) << message;
    EXPECT_NE(message.find("ring|rabenseifner|recursive_doubling|auto"), std::string::npos)
        << message;
  }
}

TEST(CompressEnv, AutoAlgoStaysValidCaseInsensitively) {
  ScopedEnv algo("DLSCALE_ALLREDUCE_ALGO", "AUTO");
  const auto knobs = dh::Knobs::from_env();
  EXPECT_FALSE(knobs.algo.has_value());
}

TEST(CompressEnv, TopkRatioOutOfRangeThrows) {
  {
    ScopedEnv ratio("DLSCALE_TOPK_RATIO", "0");
    EXPECT_THROW((void)dh::Knobs::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv ratio("DLSCALE_TOPK_RATIO", "1.5");
    EXPECT_THROW((void)dh::Knobs::from_env(), std::invalid_argument);
  }
}

TEST(CompressKnobs, LegacyFp16FlagFoldsIntoEffectiveCodec) {
  // HOROVOD_FP16_ALLREDUCE is Horovod's spelling of the fp16 codec: it
  // selects kFp16 unless DLSCALE_GRAD_COMPRESSION names another codec.
  struct Case {
    const char* fp16;   // nullptr = unset
    const char* codec;  // nullptr = unset
    dh::CompressionAlgo want;
  };
  const Case cases[] = {
      {nullptr, nullptr, dh::CompressionAlgo::kNone},
      {nullptr, "none", dh::CompressionAlgo::kNone},
      {nullptr, "int8", dh::CompressionAlgo::kInt8},
      {"1", nullptr, dh::CompressionAlgo::kFp16},
      {"1", "none", dh::CompressionAlgo::kFp16},
      {"1", "int8", dh::CompressionAlgo::kInt8},
  };
  for (const Case& c : cases) {
    std::optional<ScopedEnv> fp16, codec;
    if (c.fp16) fp16.emplace("HOROVOD_FP16_ALLREDUCE", c.fp16);
    if (c.codec) codec.emplace("DLSCALE_GRAD_COMPRESSION", c.codec);
    EXPECT_EQ(dh::Knobs::from_env().compression, c.want)
        << "HOROVOD_FP16_ALLREDUCE=" << (c.fp16 ? c.fp16 : "(unset)")
        << " DLSCALE_GRAD_COMPRESSION=" << (c.codec ? c.codec : "(unset)");
  }
  // An explicit default codec is kept too: the flag only fills in kNone.
  ScopedEnv fp16("HOROVOD_FP16_ALLREDUCE", "1");
  dh::Knobs defaults;
  defaults.compression = dh::CompressionAlgo::kTopK;
  EXPECT_EQ(dh::Knobs::from_env(defaults).compression, dh::CompressionAlgo::kTopK);
}

// ---- GradientCompressor round trips ----

TEST(CompressInt8, RoundTripWithinOneQuantum) {
  dh::GradientCompressor compressor;
  const auto grad = rank_values(0, 1000, 11);
  const auto decoded =
      round_trip(compressor, dh::CompressionAlgo::kInt8, "g", grad, 0.01f, true);
  float lo = grad[0], hi = grad[0];
  for (float v : grad) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float quantum = (hi - lo) / 255.0f;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(decoded[i], grad[i], quantum) << "element " << i;
  }
  // With error feedback the residual is exactly the reconstruction error.
  const auto* residual = compressor.residual("g");
  ASSERT_NE(residual, nullptr);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_FLOAT_EQ((*residual)[i], grad[i] - decoded[i]) << "element " << i;
  }
}

TEST(CompressInt8, ConstantChunkIsExact) {
  dh::GradientCompressor compressor;
  const std::vector<float> grad(64, 3.25f);
  const auto decoded =
      round_trip(compressor, dh::CompressionAlgo::kInt8, "c", grad, 0.01f, true);
  for (float v : decoded) EXPECT_EQ(v, 3.25f);
  const auto* residual = compressor.residual("c");
  ASSERT_NE(residual, nullptr);
  for (float v : *residual) EXPECT_EQ(v, 0.0f);
}

TEST(CompressTopK, KeepsLargestMagnitudesExactly) {
  dh::GradientCompressor compressor;
  std::vector<float> grad(12, 0.01f);
  grad[2] = -5.0f;
  grad[7] = 4.0f;
  grad[9] = 3.0f;
  // ratio 0.25 (exact in binary — ceil stays honest) of 12 -> k = 3:
  // exactly the three spikes.
  const auto decoded =
      round_trip(compressor, dh::CompressionAlgo::kTopK, "t", grad, 0.25f, true);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (i == 2 || i == 7 || i == 9) {
      EXPECT_EQ(decoded[i], grad[i]) << "selected element " << i;
    } else {
      EXPECT_EQ(decoded[i], 0.0f) << "unselected element " << i;
    }
  }
  // Unselected mass moved into the residual; selected entries owe nothing.
  const auto* residual = compressor.residual("t");
  ASSERT_NE(residual, nullptr);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_EQ((*residual)[i], i == 2 || i == 7 || i == 9 ? 0.0f : grad[i]);
  }
}

TEST(CompressTopK, KIsCeilOfRatioClampedToValidRange) {
  EXPECT_EQ(dh::GradientCompressor::topk_k(1000, 0.01f), 10u);
  EXPECT_EQ(dh::GradientCompressor::topk_k(1001, 0.01f), 11u);  // ceil
  EXPECT_EQ(dh::GradientCompressor::topk_k(10, 0.001f), 1u);    // floor of 1
  EXPECT_EQ(dh::GradientCompressor::topk_k(10, 1.0f), 10u);
  EXPECT_EQ(dh::GradientCompressor::topk_k(0, 0.5f), 0u);
}

TEST(CompressResiduals, ResetDropsAllState) {
  dh::GradientCompressor compressor;
  (void)round_trip(compressor, dh::CompressionAlgo::kInt8, "a", rank_values(0, 32, 3), 0.5f,
                   true);
  (void)round_trip(compressor, dh::CompressionAlgo::kTopK, "b", rank_values(1, 32, 4), 0.5f,
                   true);
  EXPECT_EQ(compressor.residual_tensor_count(), 2u);
  compressor.reset_residuals();
  EXPECT_EQ(compressor.residual_tensor_count(), 0u);
  EXPECT_EQ(compressor.residual("a"), nullptr);
}

TEST(CompressResiduals, NoErrorFeedbackKeepsNoState) {
  dh::GradientCompressor compressor;
  (void)round_trip(compressor, dh::CompressionAlgo::kInt8, "a", rank_values(0, 32, 3), 0.5f,
                   false);
  EXPECT_EQ(compressor.residual_tensor_count(), 0u);
}

// ---- error feedback closes the compression bias over repeated steps ----

namespace {

/// Applies the same gradient T times through the codec and returns the
/// max | mean(applied) - grad | over elements. With error feedback the
/// bias telescopes away (mean error ~ residual_bound / T); without it
/// the per-element quantization/selection bias is permanent.
float mean_apply_error(dh::CompressionAlgo algo, float ratio, bool error_feedback, int steps) {
  dh::GradientCompressor compressor;
  const std::string name = "g";
  const auto grad = rank_values(0, 1000, 23);
  std::vector<double> applied(grad.size(), 0.0);
  for (int t = 0; t < steps; ++t) {
    auto step_grad = grad;  // the runtime hands the compressor a fresh gradient each step
    const auto decoded = round_trip(compressor, algo, name, step_grad, ratio, error_feedback);
    for (std::size_t i = 0; i < decoded.size(); ++i) applied[i] += decoded[i];
  }
  float max_error = 0.0f;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const auto mean = static_cast<float>(applied[i] / steps);
    max_error = std::max(max_error, std::fabs(mean - grad[i]));
  }
  return max_error;
}

}  // namespace

TEST(CompressErrorFeedback, Int8ResidualCancelsQuantizationBias) {
  const float with_ef = mean_apply_error(dh::CompressionAlgo::kInt8, 0.0f, true, 64);
  const float without_ef = mean_apply_error(dh::CompressionAlgo::kInt8, 0.0f, false, 64);
  // Without EF the worst element keeps its full quantization bias (up to
  // half a quantum ~= 0.004 on a [-1,1] chunk); with EF the residual
  // telescopes it down to ~quantum/steps.
  EXPECT_GT(without_ef, 1e-4f);
  EXPECT_LT(with_ef, 0.25f * without_ef);
}

TEST(CompressErrorFeedback, TopKResidualDeliversUnselectedMass) {
  const float with_ef = mean_apply_error(dh::CompressionAlgo::kTopK, 0.1f, true, 100);
  const float without_ef = mean_apply_error(dh::CompressionAlgo::kTopK, 0.1f, false, 100);
  // Without EF, 90% of elements are NEVER applied: their error is their
  // own magnitude. With EF every element's residual grows until selected.
  EXPECT_GT(without_ef, 0.1f);
  EXPECT_LT(with_ef, 0.2f * without_ef);
}

// ---- bitwise scalar/AVX2 agreement of encoded blobs ----

TEST(CompressSimd, EncodedBlobsBitwiseIdenticalAcrossLevels) {
  const auto levels = dlscale::testing::simd_levels_under_test();
  const auto grad = rank_values(0, 4097, 31);  // odd size: exercises SIMD tails
  const std::string name = "g";
  std::vector<std::vector<std::byte>> blobs;
  for (const auto level : levels) {
    ScopedSimdLevel scoped(level);
    dh::GradientCompressor compressor;  // fresh residuals per level
    auto step_grad = grad;
    const dh::GradientCompressor::Chunk chunk{&name, step_grad};
    const auto wire = compressor.encode(dh::CompressionAlgo::kInt8, {&chunk, 1}, 0.01f, true);
    blobs.emplace_back(wire.begin(), wire.end());
  }
  for (std::size_t i = 1; i < blobs.size(); ++i) {
    EXPECT_EQ(blobs[i], blobs[0]) << "level " << i << " diverged from scalar";
  }
}

// ---- cross-rank averaging through the full runtime ----

namespace {

dh::Knobs compressed_knobs(dh::CompressionAlgo algo, float ratio = 0.01f,
                           bool error_feedback = true) {
  dh::Knobs knobs;
  knobs.cycle_time_s = 1e-4;
  knobs.compression = algo;
  knobs.topk_ratio = ratio;
  knobs.error_feedback = error_feedback;
  return knobs;
}

}  // namespace

TEST(CompressRuntime, Int8AveragesWithinQuantumAcrossRanks) {
  constexpr std::size_t kN = 600;
  constexpr std::uint64_t kSeed = 41;
  dm::run_world(functional_world(4), [&](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, compressed_knobs(dh::CompressionAlgo::kInt8));
    auto g1 = rank_values(comm.rank(), kN, kSeed);
    auto g2 = rank_values(comm.rank(), kN / 3, kSeed + 5);
    runtime.submit({"conv1", g1});
    runtime.submit({"conv2", g2});
    runtime.synchronize();
    // Each rank's contribution is off by at most one quantum of ITS
    // chunk range (~2/255 here); the average of 4 such errors stays
    // below one quantum.
    const auto want1 = averaged(comm.size(), kN, kSeed);
    const auto want2 = averaged(comm.size(), kN / 3, kSeed + 5);
    for (std::size_t i = 0; i < want1.size(); ++i) EXPECT_NEAR(g1[i], want1[i], 2.0f / 255.0f);
    for (std::size_t i = 0; i < want2.size(); ++i) EXPECT_NEAR(g2[i], want2[i], 2.0f / 255.0f);
    // Residual state exists on every rank (error feedback on).
    EXPECT_EQ(runtime.compressor().residual_tensor_count(), 2u);
  });
}

TEST(CompressRuntime, TopKWithFullRatioMatchesExactAverage) {
  // ratio = 1.0 sends every (index, value) pair as exact fp32, and both
  // the decode and the reference average accumulate in rank order with a
  // power-of-two divisor — so the result is bitwise the fp32 average.
  constexpr std::size_t kN = 257;
  constexpr std::uint64_t kSeed = 47;
  dm::run_world(functional_world(4), [&](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, compressed_knobs(dh::CompressionAlgo::kTopK, 1.0f));
    auto grad = rank_values(comm.rank(), kN, kSeed);
    runtime.submit({"g", grad});
    runtime.synchronize();
    const auto want = averaged(comm.size(), kN, kSeed);
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_FLOAT_EQ(grad[i], want[i]);
  });
}

TEST(CompressRuntime, ReplicasStayBitwiseIdentical) {
  // The decode averages in rank order on every rank, so all replicas
  // compute the same floats — the property distributed training relies
  // on to keep parameters synchronized without re-broadcasting.
  constexpr std::size_t kN = 301;
  std::vector<std::vector<float>> per_rank(3);
  dm::run_world(functional_world(3), [&](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, compressed_knobs(dh::CompressionAlgo::kInt8));
    auto grad = rank_values(comm.rank(), kN, 53);
    runtime.submit({"g", grad});
    runtime.synchronize();
    per_rank[static_cast<std::size_t>(comm.rank())] = grad;
  });
  EXPECT_EQ(per_rank[1], per_rank[0]);
  EXPECT_EQ(per_rank[2], per_rank[0]);
}

TEST(CompressRuntime, WireBytesMeetReductionTargets) {
  // The issue's acceptance numbers: >=3x fewer bytes on the wire for
  // int8 (4x payload minus per-tensor headers), >=10x for top-k @ 1%.
  constexpr std::size_t kN = 1 << 18;  // 1 MiB fp32 per tensor
  for (const auto algo : {dh::CompressionAlgo::kInt8, dh::CompressionAlgo::kTopK}) {
    dm::run_world(functional_world(2), [&](dm::Communicator& comm) {
      dh::HorovodRuntime runtime(comm, compressed_knobs(algo));
      auto g1 = rank_values(comm.rank(), kN, 61);
      auto g2 = rank_values(comm.rank(), kN, 67);
      runtime.submit({"g1", g1});
      runtime.submit({"g2", g2});
      runtime.synchronize();
      const auto& stats = runtime.stats();
      EXPECT_EQ(stats.bytes_reduced, 2 * kN * sizeof(float));
      ASSERT_GT(stats.bytes_on_wire, 0u);
      const double reduction = static_cast<double>(stats.bytes_reduced) /
                               static_cast<double>(stats.bytes_on_wire);
      if (algo == dh::CompressionAlgo::kInt8) {
        EXPECT_GE(reduction, 3.0) << "int8 wire reduction";
      } else {
        EXPECT_GE(reduction, 10.0) << "top-k wire reduction";
      }
    });
  }
}

TEST(CompressRuntime, UncompressedPathsAccountWireBytesToo) {
  dm::run_world(functional_world(2), [&](dm::Communicator& comm) {
    dh::Knobs knobs;
    knobs.cycle_time_s = 1e-4;
    dh::HorovodRuntime runtime(comm, knobs);
    auto grad = rank_values(comm.rank(), 512, 71);
    runtime.submit({"g", grad});
    runtime.synchronize();
    EXPECT_EQ(runtime.stats().bytes_on_wire, runtime.stats().bytes_reduced);
  });
}

TEST(CompressRuntime, CompressedStepsBeatFp32InTimedWorld) {
  // Timing-only submits at a DLv3+-sized fused gradient: the virtual
  // clock should show int8 beating fp32 and top-k beating int8 at 4
  // ranks (where the allgather exchange is cheaper than the fp32 ring).
  constexpr std::size_t kBytes = 96 << 20;  // ~DLv3+ total gradient size
  auto virtual_step_time = [&](dh::Knobs knobs) {
    double elapsed = 0.0;
    dm::run_world(timed_world(4), [&](dm::Communicator& comm) {
      dh::HorovodRuntime runtime(comm, knobs);
      runtime.submit({"grads", {}, kBytes, comm.now()});
      runtime.synchronize();
      if (comm.rank() == 0) elapsed = comm.now();
    });
    return elapsed;
  };
  dh::Knobs fp32;
  fp32.cycle_time_s = 1e-4;
  const double t_fp32 = virtual_step_time(fp32);
  const double t_int8 = virtual_step_time(compressed_knobs(dh::CompressionAlgo::kInt8));
  const double t_topk = virtual_step_time(compressed_knobs(dh::CompressionAlgo::kTopK, 0.01f));
  EXPECT_LT(t_int8, t_fp32);
  EXPECT_LT(t_topk, t_int8);
}

TEST(CompressRuntime, PackUnpackWallTimeIsRecorded) {
  dm::run_world(functional_world(2), [&](dm::Communicator& comm) {
    dh::HorovodRuntime runtime(comm, compressed_knobs(dh::CompressionAlgo::kInt8));
    auto grad = rank_values(comm.rank(), 1 << 16, 73);
    runtime.submit({"g", grad});
    runtime.synchronize();
    EXPECT_GT(runtime.stats().compress_pack_s, 0.0);
    EXPECT_GT(runtime.stats().compress_unpack_s, 0.0);
  });
}

TEST(CompressCodec, EveryCutOfABlobIsRejectedByName) {
  const std::string name_a = "cut/a";
  const std::string name_b = "cut/b";
  for (const dh::CompressionAlgo algo : {dh::CompressionAlgo::kInt8,
                                         dh::CompressionAlgo::kTopK}) {
    SCOPED_TRACE(dh::to_string(algo));
    dh::GradientCompressor compressor;
    auto a = rank_values(0, 40, 7);
    auto b = rank_values(0, 9, 8);
    const dh::GradientCompressor::Chunk chunks[] = {{&name_a, a}, {&name_b, b}};
    const auto span = compressor.encode(algo, chunks, /*topk_ratio=*/0.25f,
                                        /*error_feedback=*/false);
    const std::vector<std::byte> blob(span.begin(), span.end());
    compressor.decode_average(algo, chunks, blob, /*world=*/1);
    for (std::size_t cut = 0; cut < blob.size(); ++cut) {
      try {
        compressor.decode_average(algo, chunks, std::span(blob).first(cut), /*world=*/1);
        FAIL() << "cut at " << cut << " decoded";
      } catch (const dlscale::util::wire::DecodeError& error) {
        EXPECT_LE(error.offset, cut) << "cut " << cut;
        const bool named = error.field.starts_with(
            algo == dh::CompressionAlgo::kInt8 ? "int8 " : "top-k ");
        EXPECT_TRUE(named) << "cut " << cut << ": " << error.what();
      }
    }
  }
}
