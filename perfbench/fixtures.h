// Inputs the benchmark generates from its seed: router configurations as
// config-language text (parsed by the program like an operator's file), the
// seed UPDATEs each verdict explores, and the verdict digests the gates
// compare. Kept inside the benchmark so that edits to shared test or bench
// fixtures cannot move its numbers.

#ifndef PERFBENCH_FIXTURES_H_
#define PERFBENCH_FIXTURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/bgp/message.h"
#include "src/dice/distributed.h"

namespace perfbench {

// The foreign /22 a fat-fingered customer prefix-list entry exposes (§4.2),
// and the origin of its legitimate route.
inline constexpr const char* kVictimSpace = "208.65.152.0/22";
inline constexpr uint32_t kVictimOrigin = 36561;
inline constexpr uint32_t kProviderAs = 3;
inline constexpr uint32_t kCustomerAs = 1;
inline constexpr uint32_t kFeedAs = 65000;

struct ProviderShape {
  // Customer prefix-list entries 10.1.0.0/16, 10.2.0.0/16, ...
  size_t customer_blocks = 8;
  // Import filter on the customer session, with the victim /22 as a
  // fat-fingered prefix-list entry. false is the PCCW shape: no customer
  // filtering at all.
  bool customer_filter = true;
};

// One router block for the provider (AS 3, 10.0.0.3). Its first neighbor is
// the table feed (10.0.0.9, AS 65000, relationship provider) and its last is
// the customer (10.0.0.1, AS 1, relationship customer), so both the hijack
// and the route-leak checker are armed.
std::string ProviderConfigText(const ProviderShape& shape);

// The customer router of Fig. 2 (AS 1), originating two customer /24s.
std::string CustomerConfigText();

// Remote domain `index` for federation: its own table feed (first neighbor)
// and the provider session, whose import filter rejects three seed-chosen
// guarded /8s (domain 0 also the victim /22) and accepts the rest.
std::string RemoteConfigText(size_t index, uint64_t seed);

// The seed UPDATE of each verdict, as the customer would send it: drawn from
// customer space (inside the prefix-list), victim space (inside the
// fat-fingered /22), foreign table space, and provider-transit paths (route
// leaks).
std::vector<dice::bgp::UpdateMessage> MakeSeedUpdates(
    size_t count, uint64_t seed, const std::vector<dice::bgp::Prefix>& table_prefixes,
    size_t customer_blocks);

// dice_cli's detections_digest: BodyChecksum over each detection's ToString()
// plus '\n', as 8 hex digits.
std::string DetectionsDigest(const std::vector<dice::Detection>& detections);

// One line per system-wide detection (finding, adopting domains, spread).
std::string SystemWideText(const std::vector<dice::SystemWideDetection>& system_wide);

// BodyChecksum of arbitrary text as 8 hex digits.
std::string TextDigest(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURES_H_
