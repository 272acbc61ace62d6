// The `--detector <spec>` mini-language (DESIGN.md §15).
//
// Grammar: the spec kernel's `name[:k=v,...]` form (spec/spec.hpp), with
//   backend := cra | chi2 | ar | fusion
//
// Examples:
//   "cra"                                  paper Algorithm 2 (the default)
//   "cra:clear=2"                          debounced clearance
//   "chi2:threshold=9.21,window=16"        chi-square residual gate
//   "ar:order=6,consecutive=2"             AR(k) residual classifier
//   "fusion:members=cra+chi2,quorum=1"     vote across children
//
// An empty spec selects the CRA backend, reproducing the paper exactly.
// Parsing throws std::invalid_argument only; check_detector_spec() offers
// the non-throwing form and reports a well-formed spec naming an unknown
// backend as spec::Status::kUnknown (the serving layer maps that to
// ErrorCode::kUnknownDetector instead of silently running CRA).
#pragma once

#include <string>

#include "detect/backend.hpp"
#include "spec/spec.hpp"

namespace safe::detect {

/// Validates a spec without building anything (and without throwing).
[[nodiscard]] spec::Check check_detector_spec(const std::string& spec);

/// Builds the backend a spec names. The CRA backend (empty spec or "cra"
/// without a clear= override) uses `cra_defaults`, so callers that harden
/// the clearance debounce keep their behaviour. Throws std::invalid_argument
/// on any spec check_detector_spec() would reject.
[[nodiscard]] DetectorBackendPtr make_detector(
    const std::string& spec, const cra::DetectorOptions& cra_defaults = {});

/// One-line usage string for CLIs exposing `--detector`.
[[nodiscard]] std::string detector_spec_help();

}  // namespace safe::detect
