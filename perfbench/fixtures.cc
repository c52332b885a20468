#include "perfbench/fixtures.h"

#include <iterator>

#include "src/util/frame.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace perfbench {

namespace bgp = dice::bgp;

std::string ProviderConfigText(const ProviderShape& shape) {
  std::string text = "router provider {\n  as 3;\n  id 10.0.0.3;\n\n";
  if (shape.customer_filter) {
    text += "  prefix-list customer-routes {\n";
    for (size_t k = 0; k < shape.customer_blocks; ++k) {
      text += dice::StrFormat("    10.%zu.0.0/16 le 24;\n", k + 1);
    }
    text += dice::StrFormat("    %s le 24;\n", kVictimSpace);
    text +=
        "  }\n\n"
        "  filter customer-in {\n"
        "    term allow {\n      match prefix in customer-routes;\n      then accept;\n    }\n"
        "    term deny-rest {\n      then reject;\n    }\n"
        "  }\n\n";
  }
  text += "  neighbor 10.0.0.9 {\n    as 65000;\n    relationship provider;\n  }\n\n";
  text += "  neighbor 10.0.0.1 {\n    as 1;\n";
  if (shape.customer_filter) {
    text += "    import filter customer-in;\n";
  }
  text += "    relationship customer;\n  }\n}\n";
  return text;
}

std::string CustomerConfigText() {
  return "router customer {\n  as 1;\n  id 10.0.0.1;\n"
         "  network 10.1.7.0/24;\n  network 10.1.8.0/24;\n"
         "  neighbor 10.0.0.3 {\n    as 3;\n  }\n}\n";
}

std::string RemoteConfigText(size_t index, uint64_t seed) {
  dice::Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  std::string text = dice::StrFormat("router domain%zu {\n  as %zu;\n  id 10.0.1.%zu;\n\n", index,
                                     7 + index, index + 1);
  text += "  prefix-list guarded-space {\n";
  // Three guarded /8s of table space; domain 0 also guards the victim /22,
  // so confirmations come back both adopted and refused.
  for (int k = 0; k < 3; ++k) {
    text += dice::StrFormat("    %u.0.0.0/8 le 32;\n",
                            static_cast<unsigned>(11 + rng.NextBelow(190)));
  }
  if (index == 0) {
    text += dice::StrFormat("    %s le 32;\n", kVictimSpace);
  }
  text +=
      "  }\n\n"
      "  filter provider-in {\n"
      "    term deny-guarded {\n      match prefix in guarded-space;\n      then reject;\n    }\n"
      "    term allow {\n      then accept;\n    }\n"
      "  }\n\n";
  text += dice::StrFormat("  neighbor 10.0.2.%zu {\n    as %u;\n  }\n\n", index + 1,
                          static_cast<unsigned>(65001 + index));
  text += "  neighbor 10.0.0.3 {\n    as 3;\n    import filter provider-in;\n  }\n}\n";
  return text;
}

std::vector<bgp::UpdateMessage> MakeSeedUpdates(size_t count, uint64_t seed,
                                                const std::vector<bgp::Prefix>& table_prefixes,
                                                size_t customer_blocks) {
  // The mix of kinds is fixed (it cycles), so that every run explores the
  // same proportions; the seed picks the prefixes and paths within a kind.
  // Verdict cost differs by kind (foreign < customer < victim < leak on a
  // filtering provider); half the verdicts are victim ones so that the
  // median verdict falls inside one kind instead of between two.
  enum Kind { kCustomer, kVictim, kForeign, kLeak };
  static constexpr Kind kCycle[] = {kVictim, kCustomer, kVictim, kLeak, kVictim,
                                    kForeign, kVictim, kCustomer, kVictim, kLeak};
  dice::Rng rng(seed ^ 0x5eedf00dULL);
  const bgp::Prefix victim = *bgp::Prefix::Parse(kVictimSpace);
  std::vector<bgp::UpdateMessage> seeds;
  seeds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    bgp::UpdateMessage u;
    u.attrs.origin = bgp::Origin::kIgp;
    u.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.1");
    const auto origin = static_cast<bgp::AsNumber>(64512 + rng.NextBelow(1000));
    uint32_t addr = 0;
    std::vector<bgp::AsNumber> path = {kCustomerAs, origin};
    switch (kCycle[i % std::size(kCycle)]) {
      case kCustomer: {
        // Inside one of the prefix-list blocks.
        const auto block = static_cast<uint32_t>(1 + rng.NextBelow(customer_blocks));
        addr = (10u << 24) | (block << 16) | (static_cast<uint32_t>(rng.NextBelow(256)) << 8);
        break;
      }
      case kVictim:
        // A /24 inside the fat-fingered /22.
        addr = victim.address().bits() | (static_cast<uint32_t>(rng.NextBelow(4)) << 8);
        break;
      case kForeign:
        // A prefix the table already routes.
        addr = table_prefixes[rng.NextBelow(table_prefixes.size())].address().bits();
        break;
      case kLeak:
        // A provider route re-exported by the customer: a valley.
        addr = table_prefixes[rng.NextBelow(table_prefixes.size())].address().bits();
        path = {kCustomerAs, kFeedAs, origin};
        break;
    }
    u.attrs.as_path = bgp::AsPath::Sequence(path);
    u.nlri.push_back(bgp::Prefix::Make(bgp::Ipv4Address(addr), 24));
    seeds.push_back(std::move(u));
  }
  return seeds;
}

std::string TextDigest(const std::string& text) {
  return dice::StrFormat(
      "%08x", dice::BodyChecksum(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
}

std::string DetectionsDigest(const std::vector<dice::Detection>& detections) {
  std::string src;
  for (const dice::Detection& d : detections) {
    src += d.ToString();
    src += '\n';
  }
  return TextDigest(src);
}

std::string SystemWideText(const std::vector<dice::SystemWideDetection>& system_wide) {
  std::string out;
  for (const dice::SystemWideDetection& sw : system_wide) {
    out += sw.local.ToString() + " adopted by";
    for (const std::string& d : sw.adopting_domains) {
      out += " " + d;
    }
    out += dice::StrFormat(" spread=%llu\n", static_cast<unsigned long long>(sw.total_spread));
  }
  return out;
}

}  // namespace perfbench
