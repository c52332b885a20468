#include "src/transport/address.h"

#include <algorithm>

#include "src/util/strings.h"

namespace dice::transport {

StatusOr<Address> Address::Parse(const std::string& text) {
  Address address;
  if (text.rfind("tcp:", 0) == 0) {
    address.kind = Kind::kTcp;
    const std::string rest = text.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      return InvalidArgumentError("address '" + text + "': want tcp:host:port");
    }
    address.host = rest.substr(0, colon);
    const auto port = ParseUint64(rest.substr(colon + 1));
    if (!port.has_value() || *port > 65535) {
      return InvalidArgumentError("address '" + text + "': bad port");
    }
    address.port = static_cast<uint16_t>(*port);
    return address;
  }
  if (text.rfind("unix:", 0) == 0) {
    address.kind = Kind::kUnix;
    address.path = text.substr(5);
    if (address.path.empty()) {
      return InvalidArgumentError("address '" + text + "': want unix:/path");
    }
    // sockaddr_un paths are short; reject here so bind() cannot truncate.
    if (address.path.size() >= 100) {
      return InvalidArgumentError("address '" + text + "': unix path too long");
    }
    return address;
  }
  return InvalidArgumentError("address '" + text +
                              "': unknown scheme (want tcp: or unix:)");
}

std::string Address::ToString() const {
  switch (kind) {
    case Kind::kTcp:
      return StrFormat("tcp:%s:%u", host.c_str(), static_cast<unsigned>(port));
    case Kind::kUnix:
      return "unix:" + path;
  }
  return "<bad address>";
}

bool LooksLikeAddress(const std::string& entry) {
  const size_t colon = entry.find(':');
  return colon != std::string::npos && colon > 0 &&
         std::all_of(entry.begin(), entry.begin() + static_cast<ptrdiff_t>(colon),
                     [](char c) { return c >= 'a' && c <= 'z'; });
}

}  // namespace dice::transport
