// Continuous online testing (§1's vision): DiCE running *alongside* a live
// router for a stretch of simulated time.
//
// The provider processes a live update stream; every 60 simulated seconds
// DiCE takes a fresh checkpoint of the current state and explores the most
// recently observed customer input, using idle time between arrivals. Each
// cycle reports what its own exploration found, with the live system never
// perturbed.
//
// Build & run:  ./build/examples/online_testing [--minutes=M]

#include <cstdio>
#include <string>

#include "bench/topology.h"
#include "src/dice/explorer.h"

int main(int argc, char** argv) {
  using namespace dice;

  uint64_t minutes = 10;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--minutes=", 0) == 0) {
      minutes = std::stoul(arg.substr(10));
    }
  }

  bench::Fig2Options options;
  options.prefixes = 10000;
  options.misconfig = bench::Misconfig::kErroneousEntry;  // latent mistake
  bench::Fig2 fig2(options);
  fig2.LoadTable();

  // Plant the victim the latent misconfiguration exposes.
  bgp::UpdateMessage victim;
  victim.attrs.origin = bgp::Origin::kIgp;
  victim.attrs.as_path = bgp::AsPath::Sequence({65000, 3549, 36561});
  victim.attrs.next_hop = *bgp::Ipv4Address::Parse("10.0.0.9");
  victim.nlri.push_back(*bgp::Prefix::Parse("208.65.152.0/22"));
  fig2.feed().SendUpdate(victim);
  fig2.Settle();

  std::printf("live system: provider with %zu prefixes; update stream running\n",
              fig2.provider().rib().PrefixCount());
  std::printf("online testing for %llu simulated minutes (checkpoint every 60s)\n\n",
              static_cast<unsigned long long>(minutes));

  // Live update stream for the whole window.
  trace::Trace updates = fig2.MakeUpdateTrace();
  trace::Trace window;
  for (const auto& ev : updates.events) {
    if (ev.at <= minutes * 60 * net::kSecond) {
      window.events.push_back(ev);
    }
  }
  net::SimTime start = fig2.loop().now();
  trace::ScheduleTrace(&fig2.loop(), &fig2.feed(), window, start);

  ExplorerOptions explorer_options;
  // Per exploration; each cycle's exploration exhausts its frontier long
  // before this.
  explorer_options.concolic.max_runs = 5000;
  Explorer explorer(explorer_options);
  explorer.AddChecker(std::make_unique<HijackChecker>());

  size_t faults = 0;
  uint64_t checkpoints = 0;
  uint64_t updates_at_last_minute = 0;
  for (uint64_t cycle = 0; cycle < minutes; ++cycle) {
    // Take a fresh checkpoint of the *current* live state (the always-fresh
    // starting point that makes this online rather than offline testing).
    explorer.TakeCheckpoint(fig2.provider(), fig2.loop().now());
    ++checkpoints;
    explorer.StartExploration(fig2.CustomerSeedUpdate(), bench::Fig2::kCustomerNode);

    // One simulated minute of live traffic, with exploration interleaved in
    // idle time (a couple of exploration steps per delivered event).
    net::SimTime deadline = start + (cycle + 1) * 60 * net::kSecond;
    while (fig2.loop().now() < deadline) {
      bool had_event = fig2.loop().pending() > 0 && fig2.loop().Step();
      if (!had_event) {
        fig2.loop().RunUntil(deadline);
      }
      explorer.Step();
      explorer.Step();
    }

    // Report this cycle's findings: its exploration's report.
    const ExplorationReport& report = explorer.report();
    for (const Detection& d : report.detections) {
      std::printf("[t=%3llus] FAULT %s\n",
                  static_cast<unsigned long long>((fig2.loop().now() - start) / net::kSecond),
                  d.ToString().c_str());
    }
    faults += report.detections.size();
    uint64_t handled = fig2.provider().updates_received();
    std::printf("[t=%3llus] status: %llu live updates handled, %s\n",
                static_cast<unsigned long long>((fig2.loop().now() - start) / net::kSecond),
                static_cast<unsigned long long>(handled - updates_at_last_minute),
                report.Summary().c_str());
    updates_at_last_minute = handled;
  }

  std::printf("\nsession over: %llu checkpoints, %zu faults found, live RIB intact (%zu prefixes)\n",
              static_cast<unsigned long long>(checkpoints), faults,
              fig2.provider().rib().PrefixCount());
  return 0;
}
