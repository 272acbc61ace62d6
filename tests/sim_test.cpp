// Tests for the sim substrate: noise sources, LTI plant, trace recorder.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "sim/lti_system.hpp"
#include "sim/noise.hpp"
#include "sim/trace.hpp"

namespace safe::sim {
namespace {

using linalg::RMatrix;
using linalg::RVector;

LtiModel double_integrator(double dt = 1.0) {
  // Position-velocity kinematics: the exact model the car-following study
  // linearizes to.
  return LtiModel{
      .a = RMatrix{{1.0, dt}, {0.0, 1.0}},
      .b = RMatrix{{0.5 * dt * dt}, {dt}},
      .c = RMatrix{{1.0, 0.0}},
  };
}

// The noise sources must reproduce std::mt19937_64 with libstdc++'s
// generate_canonical, normal_distribution and uniform_real_distribution bit
// for bit; those stay here as the oracles.

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

constexpr std::uint64_t kSeeds[] = {0, 1, 42,
                                    std::numeric_limits<std::uint64_t>::max()};

TEST(MersenneTwister64, RawDrawsMatchStdEngineOverManyTwists) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    MersenneTwister64 engine(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 4 * 312 + 7; ++i) ASSERT_EQ(engine(), oracle()) << i;
  }
}

TEST(MersenneTwister64, GenerateMatchesStdEngineAcrossTwistBoundaries) {
  // Lengths that stop just before, on and just after a twist, mixed with
  // single draws, so each call starts at a different offset in the state.
  constexpr std::size_t kLengths[] = {1, 311, 312, 313, 1000, 0, 2, 312};
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    MersenneTwister64 engine(seed);
    std::mt19937_64 oracle(seed);
    for (const std::size_t length : kLengths) {
      std::vector<std::uint64_t> got(length);
      engine.generate(got.data(), length);
      for (std::size_t i = 0; i < length; ++i) {
        ASSERT_EQ(got[i], oracle()) << "length " << length << ", draw " << i;
      }
      ASSERT_EQ(engine(), oracle()) << "after length " << length;
    }
  }
}

TEST(MersenneTwister64, EqualityTracksStreamPosition) {
  MersenneTwister64 a(5), b(5);
  EXPECT_EQ(a, b);
  static_cast<void>(a());
  EXPECT_NE(a, b);
  static_cast<void>(b());
  EXPECT_EQ(a, b);
  EXPECT_NE(MersenneTwister64(5), MersenneTwister64(6));
}

/// A generator that returns one fixed raw draw, to run the library's
/// generate_canonical on a chosen bit pattern.
struct FixedDraw {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() const { return value; }
  result_type value;
};

double std_canonical(std::uint64_t u) {
  FixedDraw draw{u};
  return std::generate_canonical<double,
                                 std::numeric_limits<double>::digits>(draw);
}

TEST(Canonical, MatchesGenerateCanonicalOnEdgePatterns) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  const std::vector<std::uint64_t> patterns = {
      0, 1, 2, 0xffffffffULL, 0x100000000ULL, 0x100000001ULL,
      // Exact below 2^53; the first values that round from 2^53 + 1 on,
      // halfway ones to even (2^53 + 1 down, 2^53 + 3 up).
      k53 - 1, k53, k53 + 1, k53 + 2, k53 + 3,
      // Above 2^63 the ulp is 2^11: halfway cases to even (down, then up),
      // values just either side of halfway, and a carry out of the low half.
      k63 + 0x400, k63 + 0xc00, k63 + 0x3ff, k63 + 0x401, k63 - 1,
      k63 + 0xffffffffULL, k63 + 0x80000400ULL, k63 + 0xfffffc00ULL,
      // From 2^64 - 2^10 (kMax - 1023, a halfway case) up every value
      // rounds to 2^64, so the canonical value is 1 and takes the clamp;
      // values below it round down to 2^64 - 2^11, whose canonical value
      // is the clamp bound itself.
      kMax - 1023, kMax - 512, kMax - 1, kMax, kMax - 1024, kMax - 2047,
      kMax - 2048};
  for (const std::uint64_t u : patterns) {
    EXPECT_TRUE(same_bits(detail::canonical(u), std_canonical(u)))
        << std::hex << u << ": " << detail::canonical(u) << " vs "
        << std_canonical(u);
  }
  EXPECT_EQ(detail::canonical(kMax), std::nextafter(1.0, 0.0));

  // The lowest and highest 4096 low halves under a few high halves, plus a
  // random sweep.
  constexpr std::uint64_t kLowMax = 0xffffffffULL;
  for (const std::uint64_t high : {std::uint64_t{0}, std::uint64_t{0x1fffff},
                                   std::uint64_t{0x7fffffff},
                                   std::uint64_t{0x80000000}, kLowMax}) {
    for (std::uint64_t low = 0; low < 4096; ++low) {
      for (const std::uint64_t u :
           {(high << 32) | low, (high << 32) | (kLowMax - low)}) {
        ASSERT_TRUE(same_bits(detail::canonical(u), std_canonical(u)))
            << std::hex << u;
      }
    }
  }
  std::mt19937_64 rng(2024);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t u = rng();
    ASSERT_TRUE(same_bits(detail::canonical(u), std_canonical(u)))
        << std::hex << u;
  }
}

TEST(GaussianNoise, SamplesMatchStdNormalDistribution) {
  const std::pair<double, double> params[] = {{0.0, 1.0}, {2.0, 0.5},
                                              {-1.0, 3.0}};
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& [mean, stddev] : params) {
      SCOPED_TRACE(testing::Message() << seed << " " << mean << " " << stddev);
      GaussianNoise noise(mean, stddev, seed);
      std::mt19937_64 engine(seed);
      std::normal_distribution<double> oracle(mean, stddev);
      std::vector<double> got, want;
      for (int i = 0; i < 5000; ++i) {
        got.push_back(noise.sample());
        want.push_back(oracle(engine));
      }
      EXPECT_TRUE(same_bits(got, want));
    }
  }
}

TEST(GaussianNoise, FillInterleavedWithSampleMatchesStd) {
  // Odd lengths leave the second value of a pair saved, which the next
  // sample() or fill() must return first.
  constexpr std::size_t kLengths[] = {0, 1, 3, 511, 2049, 0, 2, 1, 2049, 4};
  const std::pair<double, double> params[] = {{0.0, 1.0}, {-1.0, 3.0}};
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& [mean, stddev] : params) {
      SCOPED_TRACE(testing::Message() << seed << " " << mean << " " << stddev);
      GaussianNoise noise(mean, stddev, seed);
      std::mt19937_64 engine(seed);
      std::normal_distribution<double> oracle(mean, stddev);
      for (const std::size_t length : kLengths) {
        std::vector<double> got(length + 1, -7.0);
        noise.fill(got.data(), length);
        EXPECT_EQ(got[length], -7.0) << "wrote past " << length;
        got.resize(length);
        std::vector<double> want;
        for (std::size_t i = 0; i < length; ++i) want.push_back(oracle(engine));
        EXPECT_TRUE(same_bits(got, want)) << "fill(" << length << ")";
        EXPECT_TRUE(same_bits(noise.sample(), oracle(engine)))
            << "sample() after fill(" << length << ")";
      }
      // The engines end where the library's does: the next raw draw agrees.
      MersenneTwister64 rest = noise.engine();
      EXPECT_EQ(rest(), engine());
    }
  }
}

TEST(GaussianNoise, ZeroStddevFillReturnsMeanWithoutDrawing) {
  GaussianNoise noise(3.5, 0.0, 7);
  std::vector<double> got(300, 0.0);
  noise.fill(got.data(), 299);
  for (std::size_t i = 0; i < 299; ++i) EXPECT_EQ(got[i], 3.5) << i;
  EXPECT_EQ(got[299], 0.0);
  EXPECT_EQ(noise.sample(), 3.5);
  EXPECT_EQ(noise.engine(), MersenneTwister64(7));
}

TEST(GaussianNoise, RejectsNegativeStddev) {
  EXPECT_THROW(GaussianNoise(0.0, -1.0, 1), std::invalid_argument);
}

TEST(GaussianNoise, ZeroStddevIsDeterministicMean) {
  GaussianNoise n(3.5, 0.0, 7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(n.sample(), 3.5);
}

TEST(GaussianNoise, SeededReproducibility) {
  GaussianNoise a(0.0, 1.0, 42), b(0.0, 1.0, 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.sample(), b.sample());
}

TEST(GaussianNoise, SampleMomentsMatch) {
  GaussianNoise n(2.0, 0.5, 13);
  double sum = 0.0, sum2 = 0.0;
  const int count = 20000;
  for (int i = 0; i < count; ++i) {
    const double s = n.sample();
    sum += s;
    sum2 += s * s;
  }
  const double mean = sum / count;
  const double var = sum2 / count - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(std::sqrt(var), 0.5, 0.02);
}

TEST(UniformNoise, RejectsEmptyRange) {
  EXPECT_THROW(UniformNoise(1.0, 1.0, 3), std::invalid_argument);
}

TEST(UniformNoise, RejectsReversedAndNanBounds) {
  // Validated before any draw, so this throws (rather than tripping a
  // library assertion) in every build configuration.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(UniformNoise(5.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(UniformNoise(nan, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(UniformNoise(1.0, nan, 3), std::invalid_argument);
}

TEST(UniformNoise, SamplesMatchStdUniformRealDistribution) {
  const std::pair<double, double> bounds[] = {
      {0.0, 1.0}, {-2.0, 5.0}, {1.0e-3, 1.0e3}, {-1.0e300, 1.0e300}};
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& [lo, hi] : bounds) {
      SCOPED_TRACE(testing::Message() << seed << " " << lo << " " << hi);
      UniformNoise noise(lo, hi, seed);
      std::mt19937_64 engine(seed);
      std::uniform_real_distribution<double> oracle(lo, hi);
      std::vector<double> got, want;
      for (int i = 0; i < 2000; ++i) {
        got.push_back(noise.sample());
        want.push_back(oracle(engine));
      }
      EXPECT_TRUE(same_bits(got, want));
    }
  }
}

TEST(UniformNoise, SamplesStayInRange) {
  UniformNoise n(-2.0, 5.0, 9);
  for (int i = 0; i < 1000; ++i) {
    const double s = n.sample();
    EXPECT_GE(s, -2.0);
    EXPECT_LT(s, 5.0);
  }
}

TEST(LtiModel, ValidationCatchesBadShapes) {
  LtiModel ok = double_integrator();
  EXPECT_NO_THROW(validate_model(ok));

  LtiModel bad_a = ok;
  bad_a.a = RMatrix(2, 3);
  EXPECT_THROW(validate_model(bad_a), std::invalid_argument);

  LtiModel bad_b = ok;
  bad_b.b = RMatrix(3, 1);
  EXPECT_THROW(validate_model(bad_b), std::invalid_argument);

  LtiModel bad_c = ok;
  bad_c.c = RMatrix(1, 3);
  EXPECT_THROW(validate_model(bad_c), std::invalid_argument);
}

TEST(LtiSystem, InitialStateDimensionChecked) {
  EXPECT_THROW(LtiSystem(double_integrator(), RVector{1.0}),
               std::invalid_argument);
}

TEST(LtiSystem, StepMatchesHandComputation) {
  LtiSystem sys(double_integrator(), RVector{0.0, 10.0});
  // One step with unit acceleration: x = 0 + 10*1 + 0.5, v = 10 + 1.
  const RVector& x1 = sys.step(RVector{1.0});
  EXPECT_NEAR(x1[0], 10.5, 1e-12);
  EXPECT_NEAR(x1[1], 11.0, 1e-12);
}

TEST(LtiSystem, StepInputDimensionChecked) {
  LtiSystem sys(double_integrator(), RVector{0.0, 0.0});
  EXPECT_THROW(sys.step(RVector{1.0, 2.0}), std::invalid_argument);
}

TEST(LtiSystem, NoiseFreeMeasureEqualsTrueOutput) {
  LtiSystem sys(double_integrator(), RVector{5.0, 2.0});
  EXPECT_EQ(sys.measure()[0], 5.0);
  EXPECT_EQ(sys.true_output()[0], 5.0);
}

TEST(LtiSystem, NoisyMeasureCentersOnTruth) {
  LtiSystem sys(double_integrator(), RVector{100.0, 0.0}, 0.5, 77);
  double sum = 0.0;
  const int count = 5000;
  for (int i = 0; i < count; ++i) sum += sys.measure()[0];
  EXPECT_NEAR(sum / count, 100.0, 0.05);
}

TEST(LtiSystem, ResetRestoresState) {
  LtiSystem sys(double_integrator(), RVector{0.0, 0.0});
  sys.step(RVector{1.0});
  sys.reset(RVector{3.0, 4.0});
  EXPECT_EQ(sys.state()[0], 3.0);
  EXPECT_EQ(sys.state()[1], 4.0);
  EXPECT_THROW(sys.reset(RVector{1.0}), std::invalid_argument);
}

TEST(LtiSystem, UnforcedTrajectoryFollowsPowersOfA) {
  LtiSystem sys(double_integrator(0.5), RVector{1.0, 2.0});
  for (int k = 0; k < 4; ++k) sys.step(RVector{0.0});
  // After 4 steps of dt=0.5 with no input: x = 1 + 2*4*0.5 = 5, v = 2.
  EXPECT_NEAR(sys.state()[0], 5.0, 1e-12);
  EXPECT_NEAR(sys.state()[1], 2.0, 1e-12);
}

TEST(Observability, DoubleIntegratorWithPositionOutputIsObservable) {
  EXPECT_TRUE(is_observable(double_integrator()));
}

TEST(Observability, VelocityOnlyOutputOfDriftlessPlantIsNotObservable) {
  // Measuring only velocity of [pos; vel] dynamics cannot recover position.
  LtiModel m = double_integrator();
  m.c = RMatrix{{0.0, 1.0}};
  EXPECT_FALSE(is_observable(m));
}

TEST(Observability, MatrixHasExpectedStructure) {
  const RMatrix obs = observability_matrix(double_integrator());
  ASSERT_EQ(obs.rows(), 2u);
  ASSERT_EQ(obs.cols(), 2u);
  EXPECT_EQ(obs(0, 0), 1.0);  // C
  EXPECT_EQ(obs(0, 1), 0.0);
  EXPECT_EQ(obs(1, 0), 1.0);  // CA
  EXPECT_EQ(obs(1, 1), 1.0);
}

TEST(Trace, RequiresColumns) {
  EXPECT_THROW(Trace({}), std::invalid_argument);
}

TEST(Trace, AppendAndReadBack) {
  Trace t({"time", "value"});
  t.append_row({0.0, 1.0});
  t.append_row({1.0, 2.5});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column("value")[1], 2.5);
  EXPECT_EQ(t.column(0)[1], 1.0);
}

TEST(Trace, RowArityChecked) {
  Trace t({"a", "b"});
  EXPECT_THROW(t.append_row({1.0}), std::invalid_argument);
}

TEST(Trace, UnknownColumnThrows) {
  Trace t({"a"});
  EXPECT_THROW(static_cast<void>(t.column("missing")), std::out_of_range);
  EXPECT_THROW(static_cast<void>(t.column(5)), std::out_of_range);
}

TEST(Trace, CsvOutputHasHeaderAndRows) {
  Trace t({"x", "y"});
  t.append_row({1.0, 2.0});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Trace, CsvRoundTrip) {
  Trace t({"a", "b", "c"});
  t.append_row({1.0, -2.5, 3.25});
  t.append_row({4.0, 5.5, -6.125});
  std::ostringstream os;
  t.write_csv(os);
  std::istringstream is(os.str());
  const Trace back = Trace::read_csv(is);
  EXPECT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.column_names(), t.column_names());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(back.column(c), t.column(c));
  }
}

TEST(Trace, ReadCsvRejectsMalformedInput) {
  {
    std::istringstream empty("");
    EXPECT_THROW(Trace::read_csv(empty), std::invalid_argument);
  }
  {
    std::istringstream bad_number("x,y\n1,banana\n");
    EXPECT_THROW(Trace::read_csv(bad_number), std::invalid_argument);
  }
  {
    std::istringstream junk("x\n1.5zzz\n");
    EXPECT_THROW(Trace::read_csv(junk), std::invalid_argument);
  }
  {
    std::istringstream ragged("x,y\n1\n");
    EXPECT_THROW(Trace::read_csv(ragged), std::invalid_argument);
  }
}

TEST(Trace, ReadCsvSkipsBlankLines) {
  std::istringstream is("v\n1\n\n2\n");
  const Trace t = Trace::read_csv(is);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column("v")[1], 2.0);
}

TEST(Trace, TableSubsamplingKeepsLastRow) {
  Trace t({"k"});
  for (int i = 0; i < 10; ++i) t.append_row({static_cast<double>(i)});
  std::ostringstream os;
  t.write_table(os, 4);
  // Rows 0, 4, 8 and the forced final row 9.
  EXPECT_NE(os.str().find("9.000"), std::string::npos);
  EXPECT_NE(os.str().find("4.000"), std::string::npos);
  EXPECT_EQ(os.str().find("3.000"), std::string::npos);
}

}  // namespace
}  // namespace safe::sim
