// Reproduction of the YouTube/Pakistan Telecom incident (§4.2) as a runnable
// scenario: the provider (playing PCCW) has no working filter on its customer
// (playing Pakistan Telecom); DiCE, running at the provider, discovers that a
// customer announcement of a more-specific prefix inside YouTube's /22 would
// be accepted and would hijack the covering route — before any such
// announcement happens on the live network.
//
// Build & run:  ./build/examples/route_leak_detection [--prefixes=N]

#include <cstdio>
#include <string>

#include "bench/topology.h"
#include "src/dice/explorer.h"

int main(int argc, char** argv) {
  using namespace dice;

  size_t prefixes = 10000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--prefixes=", 0) == 0) {
      prefixes = static_cast<size_t>(std::stoul(arg.substr(11)));
    }
  }

  std::printf("=== The 2008 YouTube hijack, replayed against DiCE ===\n\n");

  bench::Fig2Options options;
  options.prefixes = prefixes;
  options.misconfig = bench::Misconfig::kNoFilter;  // PCCW: no customer filter
  bench::Fig2 fig2(options);
  std::printf("Fig. 2 topology up: customer (AS 1) -- provider (AS 3, DiCE) -- internet\n");

  size_t messages = fig2.LoadTable();
  std::printf("provider loaded %zu prefixes from the rest of the Internet (%zu UPDATEs)\n",
              fig2.provider().rib().PrefixCount(), messages);

  // YouTube's /22, as announced by AS 36561 in 2008.
  bgp::UpdateMessage youtube;
  youtube.attrs.origin = bgp::Origin::kIgp;
  youtube.attrs.as_path = bgp::AsPath::Sequence({65000, 3549, 36561});
  youtube.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
  youtube.nlri.push_back(*bgp::Prefix::Parse("208.65.152.0/22"));
  fig2.feed().SendUpdate(youtube);
  fig2.Settle();
  std::printf("YouTube's 208.65.152.0/22 (origin AS 36561) is in the table\n\n");

  // DiCE runs at the provider: checkpoint + explore the customer's input.
  // With no filter at all the accepted input space is the entire table, so
  // exploration enumerates leakable regions one by one; we step until the
  // YouTube range shows up (or the budget runs out).
  ExplorerOptions explorer_options;
  explorer_options.concolic.max_runs = 20000;
  Explorer explorer(explorer_options);
  explorer.AddChecker(std::make_unique<HijackChecker>());
  explorer.TakeCheckpoint(fig2.provider(), fig2.loop().now());

  std::printf("DiCE: checkpoint taken; exploring customer UPDATE handler...\n");
  bgp::Prefix youtube_range = *bgp::Prefix::Parse("208.65.152.0/22");
  explorer.StartExploration(fig2.CustomerSeedUpdate(), bench::Fig2::kCustomerNode);
  bool hit = false;
  do {
    for (const Detection& d : explorer.report().detections) {
      if (youtube_range.Covers(d.prefix)) {
        hit = true;
      }
    }
  } while (!hit && explorer.Step());

  const ExplorationReport& report = explorer.report();
  std::printf("exploration finished: %s\n\n", report.Summary().c_str());

  bool youtube_found = false;
  for (const Detection& d : report.detections) {
    if (bgp::Prefix::Parse("208.65.152.0/22")->Covers(d.prefix)) {
      if (!youtube_found) {
        std::printf(">>> DiCE predicted the YouTube hijack:\n");
        std::printf("    %s\n", d.ToString().c_str());
        std::printf("    a customer could announce %s and the provider would\n",
                    d.prefix.ToString().c_str());
        std::printf("    accept it, overriding origin AS %u with AS %u.\n", d.old_origin,
                    d.new_origin);
        std::printf("    The operator can now install the missing filter *before*\n");
        std::printf("    Pakistan Telecom's 'blackhole' announcement leaks upstream.\n\n");
      }
      youtube_found = true;
    }
  }
  if (!youtube_found) {
    std::printf("(no YouTube-range finding within budget; other leaks found: %zu)\n",
                report.detections.size());
  }

  std::printf("all leakable ranges DiCE identified (%zu detections):\n",
              report.detections.size());
  std::set<std::string> ranges;
  for (const Detection& d : report.detections) {
    ranges.insert(d.victim.has_value() ? d.victim->ToString() : d.prefix.ToString());
  }
  for (const std::string& r : ranges) {
    std::printf("  %s\n", r.c_str());
  }
  std::printf("\nexploration stayed isolated: %llu clone messages intercepted, 0 sent\n",
              static_cast<unsigned long long>(report.intercepted.size()));
  return youtube_found ? 0 : 2;
}
