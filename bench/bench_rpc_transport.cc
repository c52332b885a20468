// F1i — real-transport head-to-head: the same federated fan-out workload as
// F1e (bench/federation.h: N remote domains, the adversarial input mix,
// batched narrow-interface RPCs) executed two ways —
//
//   * in-process  — WireExplorationService: serialized bytes, no boundary;
//   * tcp socket  — ExplorationServer on a loopback listener, dialed through
//                   SocketExplorationService (the stub dice_cli uses).
//
// The boundary is only allowed to cost time, never results: both shapes
// must produce bit-identical NarrowReply streams, and the bench exits
// non-zero when they do not. The numbers locate the transport tax — how many
// replies/s each shape sustains, wire bytes per reply, and the p50/p99
// per-batch round-trip latency.
//
// Flags: --remote_domains=N, --remote_batch=N, --rpc_inputs=N, --seed=S.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/federation.h"
#include "src/dice/exploration_service.h"
#include "src/transport/address.h"
#include "src/transport/client.h"
#include "src/transport/server.h"

namespace dice::bench {
namespace {

struct TransportSide {
  double seconds = 0;
  std::vector<NarrowReply> verdicts;  // domain-major, input order within
  uint64_t batches = 0;
  uint64_t errors = 0;
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;
  std::vector<double> batch_us;  // per-ExecuteBatch round-trip latency
};

// Drives the shared workload through whatever services the shape built: one
// checkpoint per domain, then the input mix in batches, timing every call.
TransportSide DriveServices(const std::vector<ExplorationService*>& services,
                            size_t batch_size,
                            const std::vector<bgp::UpdateMessage>& inputs) {
  TransportSide side;
  std::vector<uint64_t> epochs;
  epochs.reserve(services.size());
  for (ExplorationService* service : services) {
    epochs.push_back(service->TakeCheckpoint(0));
    if (epochs.back() == 0) {
      ++side.errors;
    }
  }

  side.verdicts.reserve(services.size() * inputs.size());
  side.batch_us.reserve(services.size() * (inputs.size() / batch_size + 1));
  Stopwatch total;
  for (size_t d = 0; d < services.size(); ++d) {
    for (size_t begin = 0; begin < inputs.size(); begin += batch_size) {
      size_t end = std::min(begin + batch_size, inputs.size());
      ExploratoryBatchRequest request;
      request.checkpoint_epoch = epochs[d];
      request.updates.assign(inputs.begin() + static_cast<ptrdiff_t>(begin),
                             inputs.begin() + static_cast<ptrdiff_t>(end));
      Stopwatch call;
      StatusOr<ExploratoryBatchReply> reply = services[d]->ExecuteBatch(request);
      side.batch_us.push_back(call.Seconds() * 1e6);
      ++side.batches;
      if (!reply.ok()) {
        ++side.errors;
        continue;
      }
      side.verdicts.insert(side.verdicts.end(), reply->replies.begin(),
                           reply->replies.end());
    }
  }
  side.seconds = total.Seconds();
  return side;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[index];
}

TransportSide RunInProcess(size_t domains, size_t batch_size,
                           const std::vector<bgp::UpdateMessage>& inputs) {
  std::vector<std::unique_ptr<WireExplorationService>> services;
  std::vector<ExplorationService*> raw;
  for (size_t d = 0; d < domains; ++d) {
    services.push_back(MakeWireFederationDomain(d));
    raw.push_back(services.back().get());
  }
  TransportSide side = DriveServices(raw, batch_size, inputs);
  for (const auto& service : services) {
    side.request_bytes += service->request_bytes();
    side.reply_bytes += service->reply_bytes();
  }
  return side;
}

// The served shape: the same domains behind an ExplorationServer on a
// loopback listener, driven through ConnectRemoteDomains stubs like dice_cli's.
TransportSide RunServed(size_t domains, size_t batch_size,
                        const std::vector<bgp::UpdateMessage>& inputs) {
  transport::ExplorationServer server;
  std::vector<uint32_t> ids;
  for (size_t d = 0; d < domains; ++d) {
    ids.push_back(server.AddDomain(MakeFederationDomain(d)));
  }
  DICE_CHECK(server.AddEndpoint(*transport::Address::Parse("tcp:127.0.0.1:0")).ok());
  DICE_CHECK(server.Start().ok());
  StatusOr<transport::Address> bound = server.BoundAddress(0);
  DICE_CHECK(bound.ok());

  StatusOr<std::vector<std::unique_ptr<ExplorationService>>> stubs =
      transport::ConnectRemoteDomains(*bound);
  DICE_CHECK(stubs.ok()) << "dialing " << bound->ToString();
  DICE_CHECK_EQ(stubs->size(), domains);
  std::vector<ExplorationService*> raw;
  for (const auto& stub : *stubs) {
    raw.push_back(stub.get());
  }

  TransportSide side = DriveServices(raw, batch_size, inputs);
  for (uint32_t id : ids) {
    transport::ExplorationServer::DomainStats stats = server.domain_stats(id);
    side.request_bytes += stats.request_bytes;
    side.reply_bytes += stats.reply_bytes;
  }
  stubs->clear();
  server.Stop();
  return side;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  size_t domains = flags.GetUint("remote_domains", 4);
  size_t batch_size = std::max<uint64_t>(1, flags.GetUint("remote_batch", 16));
  uint64_t input_count = flags.GetUint("rpc_inputs", 512);
  uint64_t seed = flags.GetUint("seed", 42);

  std::printf("F1i — transport head-to-head (%zu remote domains, batch=%zu, "
              "%llu inputs)\n\n",
              domains, batch_size, static_cast<unsigned long long>(input_count));
  std::vector<bgp::UpdateMessage> inputs = MakeFederationInputs(input_count, seed);

  TransportSide in_process = RunInProcess(domains, batch_size, inputs);
  TransportSide tcp = RunServed(domains, batch_size, inputs);

  bool identical = in_process.verdicts == tcp.verdicts && in_process.errors == 0 &&
                   tcp.errors == 0 && in_process.verdicts.size() == domains * inputs.size();

  auto replies_per_sec = [](const TransportSide& s) {
    return s.seconds <= 0 ? 0.0 : static_cast<double>(s.verdicts.size()) / s.seconds;
  };
  auto bytes_per_reply = [](const TransportSide& s) {
    return s.verdicts.empty() ? 0.0
                              : static_cast<double>(s.request_bytes + s.reply_bytes) /
                                    static_cast<double>(s.verdicts.size());
  };

  Table table({"transport", "wall s", "replies", "replies/s", "wire bytes/reply",
               "p50 us/batch", "p99 us/batch"});
  auto row = [&](const char* shape, const TransportSide& s) {
    table.AddRow({shape, StrFormat("%.4f", s.seconds), StrFormat("%zu", s.verdicts.size()),
                  StrFormat("%.0f", replies_per_sec(s)),
                  StrFormat("%.1f", bytes_per_reply(s)),
                  StrFormat("%.1f", Percentile(s.batch_us, 0.50)),
                  StrFormat("%.1f", Percentile(s.batch_us, 0.99))});
  };
  row("in-process (wire codec)", in_process);
  row("tcp socket (loopback)", tcp);
  table.Print();

  double tcp_tax = replies_per_sec(in_process) / std::max(replies_per_sec(tcp), 1e-9);
  std::printf("\ntransport tax: tcp %.2fx vs in-process; verdicts %s\n", tcp_tax,
              identical ? "identical" : "DIVERGED");

  JsonLine json("rpc_transport");
  json.Add("f1i_domains", static_cast<uint64_t>(domains))
      .Add("f1i_inputs", input_count)
      .Add("batch_size", static_cast<uint64_t>(batch_size))
      .Add("f1i_identical", identical)
      .Add("replies_per_sec", replies_per_sec(tcp))
      .Add("replies_per_sec_inproc", replies_per_sec(in_process))
      .Add("bytes_per_reply", bytes_per_reply(tcp))
      .Add("p50_us", Percentile(tcp.batch_us, 0.50))
      .Add("p99_us", Percentile(tcp.batch_us, 0.99))
      .Add("p50_us_inproc", Percentile(in_process.batch_us, 0.50))
      .Add("p99_us_inproc", Percentile(in_process.batch_us, 0.99))
      .Add("f1i_tcp_tax", tcp_tax);
  json.Print();

  if (!identical) {
    std::printf("\nFAIL: a real transport changed exploration verdicts\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dice::bench

int main(int argc, char** argv) { return dice::bench::Run(argc, argv); }
