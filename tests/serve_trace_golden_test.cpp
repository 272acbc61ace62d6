// Byte gate on the serving stream. The serve tests and the load generator
// compare a server session with run_offline() over the same synthesized
// trace, so a change in trace synthesis itself would pass all of them. This
// table pins the bytes of both sides: an FNV-1a hash of the encoded
// make_measurement_trace() frames and one of the encoded run_offline()
// ESTIMATE frames, per TraceSpec, over leader x attack x estimator x fault x
// hardened x detector. Root-MUSIC cells are a diagonal subset, to keep the
// suite fast. Both leader profiles brake alike until k = 150, so the leader
// moves no bit of a 60-step stream; only the root-MUSIC cells name both.
//
// Only a change that means to move the stream's bits re-baselines the
// table; a failing cell prints the hashes it produced.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>
#include <vector>

#include "serve/trace_source.hpp"
#include "serve/wire.hpp"

namespace {

using namespace safe;
using namespace safe::serve;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void fnv1a(std::uint64_t& h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
}

struct GoldenCell {
  core::LeaderScenario leader;
  core::AttackKind attack;
  radar::BeatEstimator estimator;
  bool dropout;
  bool hardened;
  const char* detector;
  std::uint64_t trace_hash;
  std::uint64_t estimate_hash;
};

constexpr auto kDecel = core::LeaderScenario::kConstantDecel;
constexpr auto kDecelAccel = core::LeaderScenario::kDecelThenAccel;
constexpr auto kNone = core::AttackKind::kNone;
constexpr auto kDos = core::AttackKind::kDosJammer;
constexpr auto kDelay = core::AttackKind::kDelayInjection;
constexpr auto kFft = radar::BeatEstimator::kPeriodogram;
constexpr auto kMusic = radar::BeatEstimator::kRootMusic;

// 60 steps: the challenges at k = 15 and 50 both fall inside, the attack
// window [40, 60) spans the second, and the dropout burst sits between them.
TraceSpec spec_for(const GoldenCell& cell) {
  TraceSpec spec;
  spec.leader = cell.leader;
  spec.attack = cell.attack;
  spec.attack_start_s = units::Seconds{40.0};
  spec.attack_end_s = units::Seconds{60.0};
  spec.estimator = cell.estimator;
  spec.hardened = cell.hardened;
  spec.seed = 11;
  spec.horizon_steps = 60;
  spec.fault_spec = cell.dropout ? "dropout:start=25,len=6" : "";
  spec.detector_spec = cell.detector;
  return spec;
}

std::string name_of(const GoldenCell& cell) {
  std::string name = cell.leader == kDecel ? "decel" : "decel-accel";
  name += cell.attack == kNone ? "/none" : cell.attack == kDos ? "/dos" : "/delay";
  name += cell.estimator == kFft ? "/fft" : "/music";
  name += cell.dropout ? "/dropout" : "/clean";
  name += cell.hardened ? "/hardened" : "/paper";
  name += std::string("/") + (*cell.detector != '\0' ? cell.detector : "cra");
  return name;
}

// Recorded with a build that predates core::Follower, so the table does not
// depend on the chain it gates.
const GoldenCell kCells[] = {
    {kDecel, kNone, kFft, false, false, "", 0xd9f074848eab190dULL, 0x7cf8eaa578948cebULL},
    {kDecel, kNone, kFft, false, false, "chi2", 0xd9f074848eab190dULL, 0x7cf8eaa578948cebULL},
    {kDecel, kNone, kFft, false, true, "", 0xd9f074848eab190dULL, 0x7cf8eaa578948cebULL},
    {kDecel, kNone, kFft, false, true, "chi2", 0xd9f074848eab190dULL, 0x7cf8eaa578948cebULL},
    {kDecel, kNone, kFft, true, false, "", 0xbf502355bf926f29ULL, 0x9fe80b33c15646a5ULL},
    {kDecel, kNone, kFft, true, false, "chi2", 0xbf502355bf926f29ULL, 0x9fe80b33c15646a5ULL},
    {kDecel, kNone, kFft, true, true, "", 0xbf502355bf926f29ULL, 0xfae27779f98ec100ULL},
    {kDecel, kNone, kFft, true, true, "chi2", 0xbf502355bf926f29ULL, 0xfae27779f98ec100ULL},
    {kDecel, kDos, kFft, false, false, "", 0xad6358fc7aa390c3ULL, 0xcb05afbe3580b06bULL},
    {kDecel, kDos, kFft, false, false, "chi2", 0xad6358fc7aa390c3ULL, 0x8cc1d443dc1326e1ULL},
    {kDecel, kDos, kFft, false, true, "", 0xad6358fc7aa390c3ULL, 0x7a849b356fe7a644ULL},
    {kDecel, kDos, kFft, false, true, "chi2", 0xad6358fc7aa390c3ULL, 0x217b27ab0bbe3d0fULL},
    {kDecel, kDos, kFft, true, false, "", 0x8c4ed685e242f577ULL, 0x58849c4a27d9bd2eULL},
    {kDecel, kDos, kFft, true, false, "chi2", 0x8c4ed685e242f577ULL, 0xa6514efad512830ULL},
    {kDecel, kDos, kFft, true, true, "", 0x8c4ed685e242f577ULL, 0xbc289a7fa797fe29ULL},
    {kDecel, kDos, kFft, true, true, "chi2", 0x8c4ed685e242f577ULL, 0xc44557ac53a52cb3ULL},
    {kDecel, kDelay, kFft, false, false, "", 0x8a56a37b33517c4bULL, 0xd10831b5b7d1c35aULL},
    {kDecel, kDelay, kFft, false, false, "chi2", 0x8a56a37b33517c4bULL, 0x248e275a3659f613ULL},
    {kDecel, kDelay, kFft, false, true, "", 0x8a56a37b33517c4bULL, 0x1894a06242e77838ULL},
    {kDecel, kDelay, kFft, false, true, "chi2", 0x8a56a37b33517c4bULL, 0x97751a6df6f5a0f1ULL},
    {kDecel, kDelay, kFft, true, false, "", 0x74ede1ffb3cbbf1fULL, 0x3acce1f007e76cafULL},
    {kDecel, kDelay, kFft, true, false, "chi2", 0x74ede1ffb3cbbf1fULL, 0x849f1ab2b014c6a8ULL},
    {kDecel, kDelay, kFft, true, true, "", 0x74ede1ffb3cbbf1fULL, 0xccb8d50d182ec9c3ULL},
    {kDecel, kDelay, kFft, true, true, "chi2", 0x74ede1ffb3cbbf1fULL, 0x9feaeb565e15b573ULL},
    {kDecel, kNone, kMusic, true, false, "", 0x971331b225e4c243ULL, 0x52373af0f9b3b3abULL},
    {kDecel, kDos, kMusic, false, false, "", 0xbce3add01705568fULL, 0x416a4b8e58957e01ULL},
    {kDecel, kDelay, kMusic, true, true, "", 0xdb5f976b8412d667ULL, 0x4f473968967fa6afULL},
    {kDecelAccel, kNone, kMusic, false, true, "", 0xe89c0881b92cb1dfULL, 0x9d6097ac5970397dULL},
    {kDecelAccel, kDos, kMusic, true, true, "", 0x7d69635bbaf59cebULL, 0xea8355ab3065e100ULL},
    {kDecelAccel, kDelay, kMusic, false, false, "", 0x7171d3953a13807bULL, 0xe2fcb2d166c80030ULL},
};

TEST(ServeTraceGolden, EncodedTraceAndOfflineEstimatesKeepTheirBits) {
  for (const GoldenCell& cell : kCells) {
    const TraceSpec spec = spec_for(cell);
    const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(spec.horizon_steps));
    std::uint64_t trace_hash = kFnvOffset;
    for (const MeasurementFrame& frame : trace) fnv1a(trace_hash, encode(frame));
    std::uint64_t estimate_hash = kFnvOffset;
    for (const EstimateFrame& frame : run_offline(spec, trace)) {
      fnv1a(estimate_hash, encode(frame));
    }
    EXPECT_TRUE(trace_hash == cell.trace_hash &&
                estimate_hash == cell.estimate_hash)
        << name_of(cell) << " hashed 0x" << std::hex << trace_hash
        << "ULL, 0x" << estimate_hash << "ULL";
  }
}

}  // namespace
