// Output digests recorded from the seed commit for the default seeds. Any
// change that moves the numerics — an FFT that rounds differently, a
// reordered reduction — changes them, and the benchmark then counts the
// affected runs as failed (the repository's byte-identity gate). A change
// that re-baselines on purpose updates these values and says so.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace perfbench {

/// fig_paper: one digest per run, in the order of the run table in
/// fig_paper.cpp (the seed the paper figures use).
inline constexpr std::uint64_t kFigReferenceSeed = 1;
inline constexpr std::array<std::string_view, 10> kFigReferenceDigests{{
    "d32860e788cf5aaf",  // decel.clean
    "25cde4ed7a46b942",  // decel.dos.undefended
    "163f91f278bdeac9",  // decel.dos.defended
    "db61d85c075c483a",  // decel.delay.undefended
    "a14faa873e47c3ba",  // decel.delay.defended
    "b9bf90a9e86c6fe2",  // accel.clean
    "063594a97c11b07d",  // accel.dos.undefended
    "3cceebf8df340031",  // accel.dos.defended
    "44a3db1ab7034318",  // accel.delay.undefended
    "71c6bb6df0de9c52",  // accel.delay.defended
}};

/// campaign_mixed: digest of the full JSONL of the default-size grid.
inline constexpr std::uint64_t kCampaignReferenceSeed = 1;
inline constexpr std::string_view kCampaignReferenceDigest = "48e17e8a4698cd45";

}  // namespace perfbench
