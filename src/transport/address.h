// Transport endpoint addresses: `tcp:host:port` and `unix:/path`.
//
// One textual form covers every transport the federation speaks, so flags
// like `--serve=` and the socket entries of `--remote_config=` parse through
// a single validated grammar. Parse rejects malformed addresses with a
// Status instead of guessing — a mistyped flag must exit 2, not dial noise.

#ifndef SRC_TRANSPORT_ADDRESS_H_
#define SRC_TRANSPORT_ADDRESS_H_

#include <cstdint>
#include <string>

#include "src/util/status.h"

namespace dice::transport {

using ::dice::Status;
using ::dice::StatusOr;

struct Address {
  enum class Kind : uint8_t { kTcp, kUnix };

  Kind kind = Kind::kTcp;
  std::string host;   // kTcp: hostname or dotted quad
  uint16_t port = 0;  // kTcp: 0 means "kernel-assigned" for listeners
  std::string path;   // kUnix: filesystem path

  // Accepts `tcp:HOST:PORT` and `unix:/abs/or/rel/path`.
  [[nodiscard]] static StatusOr<Address> Parse(const std::string& text);

  std::string ToString() const;

  friend bool operator==(const Address&, const Address&) = default;
};

// True when `entry` starts with a lowercase `scheme:` prefix, i.e. reads as
// a transport address rather than a file path — the discriminator
// --remote_config uses to mix config files and sockets. An unknown scheme
// (a typo like `tpc:`) still counts, so Parse rejects it as a usage error
// instead of the entry being opened as a config file.
bool LooksLikeAddress(const std::string& entry);

}  // namespace dice::transport

#endif  // SRC_TRANSPORT_ADDRESS_H_
