#include "src/trace/trace.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "src/util/strings.h"

namespace dice::trace {

size_t Trace::TotalAnnouncedPrefixes() const {
  size_t n = 0;
  for (const TraceEvent& ev : events) {
    n += ev.update.nlri.size();
  }
  return n;
}

size_t Trace::TotalWithdrawnPrefixes() const {
  size_t n = 0;
  for (const TraceEvent& ev : events) {
    n += ev.update.withdrawn.size();
  }
  return n;
}

namespace {

void AppendPrefixList(std::string& out, const std::vector<bgp::Prefix>& prefixes) {
  for (size_t i = 0; i < prefixes.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += prefixes[i].ToString();
  }
}

char OriginChar(bgp::Origin origin) {
  switch (origin) {
    case bgp::Origin::kIgp:
      return 'i';
    case bgp::Origin::kEgp:
      return 'e';
    case bgp::Origin::kIncomplete:
      break;
  }
  return '?';
}

// The trailing options field: everything PathAttributes carries beyond the
// mandatory path/next-hop/origin triple, omitted entirely when empty so the
// common case keeps the classic 6-field announce line. Unknown (opaque)
// attributes have no text rendering; they only survive the binary format.
std::string AttrOptions(const bgp::PathAttributes& attrs) {
  std::vector<std::string> opts;
  if (attrs.med.has_value()) {
    opts.push_back("med=" + std::to_string(*attrs.med));
  }
  if (attrs.local_pref.has_value()) {
    opts.push_back("lp=" + std::to_string(*attrs.local_pref));
  }
  if (attrs.atomic_aggregate) {
    opts.push_back("atomic");
  }
  if (attrs.aggregator.has_value()) {
    opts.push_back("agg=" + std::to_string(attrs.aggregator->asn) + ":" +
                   attrs.aggregator->address.ToString());
  }
  if (!attrs.communities.empty()) {
    std::string com = "com=";
    for (size_t i = 0; i < attrs.communities.size(); ++i) {
      if (i != 0) {
        com += ',';
      }
      com += std::to_string(attrs.communities[i] >> 16) + ":" +
             std::to_string(attrs.communities[i] & 0xffff);
    }
    opts.push_back(std::move(com));
  }
  return Join(opts, " ");
}

void AppendAttrFields(std::string& out, const bgp::PathAttributes& attrs) {
  out += attrs.as_path.ToString();
  out += "|" + attrs.next_hop.ToString();
  out += '|';
  out += OriginChar(attrs.origin);
  out += '|';
}

}  // namespace

std::string SerializeTrace(const Trace& trace) {
  // One line per event, so event identity (and with it implicit-withdraw
  // ordering) survives the round trip: withdraw-only events use W, announce-
  // only events use A, and an UPDATE carrying both (or neither) uses U.
  std::string out;
  for (const TraceEvent& ev : trace.events) {
    const bool has_withdrawn = !ev.update.withdrawn.empty();
    const bool has_nlri = !ev.update.nlri.empty();
    const std::string options = AttrOptions(ev.update.attrs);
    // W lines carry no attribute fields, so they are only faithful for the
    // default (attribute-free) withdraw; anything else goes through U.
    if (has_withdrawn && !has_nlri && ev.update.attrs == bgp::PathAttributes{}) {
      out += "W|" + std::to_string(ev.at) + "|";
      AppendPrefixList(out, ev.update.withdrawn);
    } else if (has_nlri && !has_withdrawn) {
      out += "A|" + std::to_string(ev.at) + "|";
      AppendAttrFields(out, ev.update.attrs);
      AppendPrefixList(out, ev.update.nlri);
      if (!options.empty()) {
        out += '|' + options;
      }
    } else {
      out += "U|" + std::to_string(ev.at) + "|";
      AppendAttrFields(out, ev.update.attrs);
      AppendPrefixList(out, ev.update.withdrawn);
      out += '|';
      AppendPrefixList(out, ev.update.nlri);
      if (!options.empty()) {
        out += '|' + options;
      }
    }
    out += '\n';
  }
  return out;
}

namespace {

// Error factory threaded through the per-line parsers below.
using LineError = std::function<Status(const std::string&)>;

Status ParsePrefixListField(const std::string& field, bool allow_empty,
                            const LineError& bad, std::vector<bgp::Prefix>* out) {
  if (field.empty() && allow_empty) {
    return Status::Ok();
  }
  for (const std::string& p : Split(field, ',')) {
    auto prefix = bgp::Prefix::Parse(p);
    if (!prefix.has_value()) {
      return bad("bad prefix '" + p + "'");
    }
    out->push_back(*prefix);
  }
  return Status::Ok();
}

// Parses the path / next hop / origin triple at fields[first..first+2].
Status ParseAttrFields(const std::vector<std::string>& fields, size_t first,
                       const LineError& bad, bgp::PathAttributes* attrs) {
  auto path = bgp::AsPath::Parse(fields[first]);
  if (!path.has_value()) {
    return bad("bad AS path '" + fields[first] + "'");
  }
  attrs->as_path = std::move(*path);
  auto nh = bgp::Ipv4Address::Parse(fields[first + 1]);
  if (!nh.has_value()) {
    return bad("bad next hop '" + fields[first + 1] + "'");
  }
  attrs->next_hop = *nh;
  const std::string& origin = fields[first + 2];
  if (origin == "i") {
    attrs->origin = bgp::Origin::kIgp;
  } else if (origin == "e") {
    attrs->origin = bgp::Origin::kEgp;
  } else if (origin == "?") {
    attrs->origin = bgp::Origin::kIncomplete;
  } else {
    return bad("bad origin '" + origin + "'");
  }
  return Status::Ok();
}

// Parses the optional trailing options field written by AttrOptions.
Status ParseAttrOptions(const std::string& field, const LineError& bad,
                        bgp::PathAttributes* attrs) {
  for (const std::string& opt : SplitWhitespace(field)) {
    if (opt == "atomic") {
      attrs->atomic_aggregate = true;
      continue;
    }
    size_t eq = opt.find('=');
    if (eq == std::string::npos) {
      return bad("bad option '" + opt + "'");
    }
    const std::string key = opt.substr(0, eq);
    const std::string value = opt.substr(eq + 1);
    if (key == "med" || key == "lp") {
      auto parsed = ParseUint64(value);
      if (!parsed.has_value() || *parsed > 0xffffffffu) {
        return bad("bad " + key + " value '" + value + "'");
      }
      if (key == "med") {
        attrs->med = static_cast<uint32_t>(*parsed);
      } else {
        attrs->local_pref = static_cast<uint32_t>(*parsed);
      }
    } else if (key == "agg") {
      auto parts = Split(value, ':');
      auto asn = parts.size() == 2 ? ParseUint64(parts[0]) : std::nullopt;
      auto addr = parts.size() == 2 ? bgp::Ipv4Address::Parse(parts[1]) : std::nullopt;
      if (!asn.has_value() || *asn > 0xffff || !addr.has_value()) {
        return bad("bad aggregator '" + value + "'");
      }
      attrs->aggregator = bgp::Aggregator{static_cast<bgp::AsNumber>(*asn), *addr};
    } else if (key == "com") {
      for (const std::string& c : Split(value, ',')) {
        auto parts = Split(c, ':');
        auto hi = parts.size() == 2 ? ParseUint64(parts[0]) : std::nullopt;
        auto lo = parts.size() == 2 ? ParseUint64(parts[1]) : std::nullopt;
        if (!hi.has_value() || *hi > 0xffff || !lo.has_value() || *lo > 0xffff) {
          return bad("bad community '" + c + "'");
        }
        attrs->communities.push_back(static_cast<uint32_t>(*hi) << 16 |
                                     static_cast<uint32_t>(*lo));
      }
    } else {
      return bad("unknown option '" + key + "'");
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Trace> ParseTrace(const std::string& text) {
  Trace trace;
  int line_no = 0;
  for (const std::string& line : Split(text, '\n')) {
    ++line_no;
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    auto fields = Split(trimmed, '|');
    LineError bad = [&](const std::string& why) {
      return InvalidArgumentError(StrFormat("trace line %d: %s", line_no, why.c_str()));
    };
    if (fields.size() < 3) {
      return bad("too few fields");
    }
    auto time = ParseUint64(fields[1]);
    if (!time.has_value()) {
      return bad("bad timestamp '" + fields[1] + "'");
    }

    TraceEvent ev;
    ev.at = *time;
    if (fields[0] == "W") {
      if (fields.size() != 3) {
        return bad("withdraw needs 3 fields");
      }
      DICE_RETURN_IF_ERROR(
          ParsePrefixListField(fields[2], /*allow_empty=*/false, bad, &ev.update.withdrawn));
    } else if (fields[0] == "A") {
      if (fields.size() != 6 && fields.size() != 7) {
        return bad("announce needs 6 fields");
      }
      DICE_RETURN_IF_ERROR(ParseAttrFields(fields, 2, bad, &ev.update.attrs));
      DICE_RETURN_IF_ERROR(
          ParsePrefixListField(fields[5], /*allow_empty=*/false, bad, &ev.update.nlri));
      if (fields.size() == 7) {
        DICE_RETURN_IF_ERROR(ParseAttrOptions(fields[6], bad, &ev.update.attrs));
      }
    } else if (fields[0] == "U") {
      // A full UPDATE: withdrawn and announced prefixes in one event (either
      // list may be empty), so batched implicit-withdraw messages keep their
      // single-message identity through the round trip.
      if (fields.size() != 7 && fields.size() != 8) {
        return bad("update needs 7 fields");
      }
      DICE_RETURN_IF_ERROR(ParseAttrFields(fields, 2, bad, &ev.update.attrs));
      DICE_RETURN_IF_ERROR(
          ParsePrefixListField(fields[5], /*allow_empty=*/true, bad, &ev.update.withdrawn));
      DICE_RETURN_IF_ERROR(
          ParsePrefixListField(fields[6], /*allow_empty=*/true, bad, &ev.update.nlri));
      if (fields.size() == 8) {
        DICE_RETURN_IF_ERROR(ParseAttrOptions(fields[7], bad, &ev.update.attrs));
      }
    } else {
      return bad("unknown record type '" + fields[0] + "'");
    }
    trace.events.push_back(std::move(ev));
  }
  return trace;
}

TraceGenerator::TraceGenerator(TraceGeneratorOptions options)
    : options_(options), rng_(options.seed) {
  // Synthesize the table: unique prefixes, heavy-tailed origin-AS popularity.
  std::set<bgp::Prefix> seen;
  table_.reserve(options_.prefix_count);
  while (table_.size() < options_.prefix_count) {
    bgp::Prefix prefix = RandomPrefix();
    if (!seen.insert(prefix).second) {
      continue;
    }
    // Origin AS by Zipf rank; ASN space starts above well-known ranges.
    bgp::AsNumber origin =
        static_cast<bgp::AsNumber>(1000 + rng_.NextZipf(options_.as_count,
                                                        options_.as_popularity_exponent));
    TableRoute route;
    route.prefix = prefix;
    route.attrs = MakeAttrs(origin);
    table_.push_back(std::move(route));
  }
}

bgp::Prefix TraceGenerator::RandomPrefix() {
  // Realistic prefix-length mix (approximate RouteViews distribution):
  // /24 dominates, then /22-/23, /16, /19-/21, a few short prefixes.
  static const struct {
    uint8_t len;
    double weight;
  } kMix[] = {
      {24, 0.55}, {23, 0.08}, {22, 0.10}, {21, 0.05}, {20, 0.06},
      {19, 0.05}, {18, 0.03}, {17, 0.02}, {16, 0.04}, {15, 0.01}, {8, 0.01},
  };
  std::vector<double> weights;
  for (const auto& m : kMix) {
    weights.push_back(m.weight);
  }
  uint8_t len = kMix[rng_.NextWeighted(weights)].len;
  // Keep generated space inside 1.0.0.0 - 223.255.255.255 and outside the
  // reserved blocks (no martians: routers drop them on import, which would
  // silently shrink the generated table). Besides loopback that means
  // RFC 1918 private space and the link-local block; a generated prefix must
  // not lie inside any of them (a covering short prefix like 172.0.0.0/8 is
  // legitimately routable space and stays).
  static const bgp::Prefix kReserved[] = {
      bgp::Prefix::Make(bgp::Ipv4Address(0x0a000000u), 8),    // 10.0.0.0/8
      bgp::Prefix::Make(bgp::Ipv4Address(0x7f000000u), 8),    // 127.0.0.0/8
      bgp::Prefix::Make(bgp::Ipv4Address(0xa9fe0000u), 16),   // 169.254.0.0/16
      bgp::Prefix::Make(bgp::Ipv4Address(0xac100000u), 12),   // 172.16.0.0/12
      bgp::Prefix::Make(bgp::Ipv4Address(0xc0a80000u), 16),   // 192.168.0.0/16
  };
  for (;;) {
    uint32_t addr = static_cast<uint32_t>(rng_.NextInRange(0x01000000, 0xdfffffff));
    bgp::Prefix prefix = bgp::Prefix::Make(bgp::Ipv4Address(addr), len);
    bool reserved = false;
    for (const bgp::Prefix& block : kReserved) {
      if (block.Covers(prefix)) {
        reserved = true;
        break;
      }
    }
    if (!reserved) {
      return prefix;
    }
  }
}

bgp::PathAttributes TraceGenerator::MakeAttrs(bgp::AsNumber origin_as) {
  bgp::PathAttributes attrs;
  size_t len = static_cast<size_t>(
      rng_.NextInRange(static_cast<int64_t>(options_.min_path_len),
                       static_cast<int64_t>(options_.max_path_len)));
  // A loop-free path holds the feed, the origin, and at most as_count - 1
  // distinct transits (the origin is drawn from the same range); clamp the
  // target so small topologies cannot make the rejection loop unsatisfiable.
  len = std::min(len, options_.as_count + 1);
  std::vector<bgp::AsNumber> path;
  path.push_back(options_.feed_as);
  // Bound the rejection sampling: the Zipf tail can make the last distinct
  // transit arbitrarily rare, so after enough misses settle for the shorter
  // (still valid) path rather than spinning.
  size_t attempts = 16 * (len + 1);
  while (path.size() + 1 < len && attempts-- > 0) {
    bgp::AsNumber transit = static_cast<bgp::AsNumber>(
        1000 + rng_.NextZipf(options_.as_count, options_.as_popularity_exponent));
    if (std::find(path.begin(), path.end(), transit) == path.end() && transit != origin_as) {
      path.push_back(transit);
    }
  }
  if (path.back() != origin_as) {
    path.push_back(origin_as);
  }
  attrs.as_path = bgp::AsPath::Sequence(std::move(path));
  attrs.origin = rng_.NextBool(0.85) ? bgp::Origin::kIgp : bgp::Origin::kIncomplete;
  attrs.next_hop = bgp::Ipv4Address(0x0a000001);  // rewritten by the feed anyway
  if (rng_.NextBool(0.3)) {
    attrs.med = static_cast<uint32_t>(rng_.NextBelow(200));
  }
  return attrs;
}

void TraceGenerator::StreamFullDump(const std::function<void(const TraceEvent&)>& visit) const {
  // Group contiguous table entries into batched UPDATEs. Entries sharing one
  // UPDATE must share attributes; the generator's table entries each carry
  // their own path, so batch only entries with equal attributes (common for
  // popular origins) up to prefixes_per_message.
  TraceEvent ev;
  size_t i = 0;
  while (i < table_.size()) {
    ev.update.attrs = table_[i].attrs;
    ev.update.nlri.assign(1, table_[i].prefix);
    size_t j = i + 1;
    while (j < table_.size() && ev.update.nlri.size() < options_.prefixes_per_message &&
           table_[j].attrs == table_[i].attrs) {
      ev.update.nlri.push_back(table_[j].prefix);
      ++j;
    }
    visit(ev);
    i = j;
  }
}

Trace TraceGenerator::FullDump() const {
  Trace trace;
  StreamFullDump([&trace](const TraceEvent& ev) { trace.events.push_back(ev); });
  return trace;
}

Trace TraceGenerator::UpdateTrace() {
  Trace trace;
  const double rate = options_.updates_per_second;
  DICE_CHECK_GT(rate, 0.0);
  net::SimTime t = 0;
  while (t < options_.update_duration) {
    // Exponential inter-arrival times around the configured rate.
    double gap_seconds = -std::log(1.0 - rng_.NextDouble()) / rate;
    t += static_cast<net::SimTime>(gap_seconds * static_cast<double>(net::kSecond));
    if (t >= options_.update_duration) {
      break;
    }
    TraceEvent ev;
    ev.at = t;
    size_t idx = rng_.NextBelow(table_.size());
    if (rng_.NextBool(options_.withdraw_fraction)) {
      ev.update.withdrawn.push_back(table_[idx].prefix);
    } else {
      // Re-announce with a (possibly) new path: path churn.
      TableRoute& route = table_[idx];
      if (rng_.NextBool(0.5)) {
        route.attrs = MakeAttrs(route.attrs.as_path.OriginAs());
      }
      ev.update.attrs = route.attrs;
      ev.update.nlri.push_back(route.prefix);
    }
    trace.events.push_back(std::move(ev));
  }
  return trace;
}

bgp::UpdateMessage TraceGenerator::RandomUpdate() {
  bgp::UpdateMessage update;
  size_t idx = rng_.NextBelow(table_.size());
  update.attrs = table_[idx].attrs;
  update.nlri.push_back(table_[idx].prefix);
  return update;
}

}  // namespace dice::trace
