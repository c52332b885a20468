#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace dice::lint {
namespace {

// ---------------------------------------------------------------------------
// Check names and scopes.

constexpr const char* kRawRng = "raw-rng";
constexpr const char* kWallClock = "wall-clock";
constexpr const char* kUnorderedIteration = "unordered-iteration";
constexpr const char* kStatusNodiscard = "status-nodiscard";
constexpr const char* kParseReturnsStatus = "parse-returns-status";
constexpr const char* kSuppression = "suppression";

// The one check whose findings may be silenced per site with a reviewed
// reason; everything else is fixed or allowlisted here, in review.
bool Suppressible(const std::string& check) { return check == kUnorderedIteration; }

bool KnownCheck(const std::string& check) {
  return check == kRawRng || check == kWallClock || check == kUnorderedIteration ||
         check == kStatusNodiscard || check == kParseReturnsStatus;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// The only place raw std:: randomness may live: the seeded Rng everything
// else must draw from.
bool RawRngAllowed(const std::string& path) {
  return path == "src/util/rng.h" || path == "src/util/rng.cc";
}

// Wall-clock allowlist: measurement harnesses and the deliberate timing
// seams (logging timestamps; the baselines' wall-clock budget accounting;
// the persistence Env's NowMicros, which stamps quarantine file names —
// reviewed: nothing downstream branches on it, so determinism holds).
// The transport files are the process boundary itself: socket dial/read
// deadlines, reconnect backoff, and operational latency counters all need
// real time. Nothing deterministic reads any of it — the simulation clock
// stays net::SimTime — so each file is allowlisted by name, not by
// directory, to keep the seam reviewable.
bool WallClockAllowed(const std::string& path) {
  return StartsWith(path, "bench/") || StartsWith(path, "tests/") ||
         path == "src/util/logging.h" || path == "src/util/logging.cc" ||
         path == "src/dice/baselines.cc" || path == "src/persist/env.cc" ||
         path == "src/transport/stream.cc" || path == "src/transport/server.cc" ||
         path == "src/transport/client.cc";
}

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

// ---------------------------------------------------------------------------
// Preprocessing: split each line into code (comments and literal contents
// blanked, so tokens never match inside either) and comment text (where
// suppressions live).

struct FileText {
  std::string path;
  std::vector<std::string> code;
  std::vector<std::string> comment;
};

FileText Preprocess(const std::string& path, const std::string& content) {
  FileText out;
  out.path = path;
  enum class State { kCode, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string code_line;
  std::string comment_line;
  auto flush = [&]() {
    out.code.push_back(code_line);
    out.comment.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      // Strings/chars do not survive a newline in well-formed code; reset so
      // one stray quote cannot blank the rest of the file.
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;
      }
      flush();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          comment_line.append(content, i + 2, content.find('\n', i) == std::string::npos
                                                  ? content.size() - i - 2
                                                  : content.find('\n', i) - i - 2);
          i = content.find('\n', i);
          if (i == std::string::npos) {
            flush();
            return out;
          }
          flush();
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += ' ';
          ++i;
        } else if (c == '"') {
          // R"(...)" raw strings are not used in this tree; treat uniformly.
          state = State::kString;
          code_line += '"';
        } else if (c == '\'') {
          state = State::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment_line += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          code_line += '"';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code_line += '\'';
        }
        break;
    }
  }
  flush();
  return out;
}

// ---------------------------------------------------------------------------
// A minimal identifier scanner shared by all checks.

bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

struct Token {
  std::string text;
  size_t end = 0;  // index one past the token in the line
};

std::vector<Token> IdentTokens(const std::string& line) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < line.size()) {
    if (IsIdentChar(line[i]) && std::isdigit(static_cast<unsigned char>(line[i])) == 0) {
      size_t start = i;
      while (i < line.size() && IsIdentChar(line[i])) {
        ++i;
      }
      out.push_back({line.substr(start, i - start), i});
    } else {
      ++i;
    }
  }
  return out;
}

char NextNonSpace(const std::string& line, size_t from) {
  while (from < line.size() && std::isspace(static_cast<unsigned char>(line[from])) != 0) {
    ++from;
  }
  return from < line.size() ? line[from] : '\0';
}

// ---------------------------------------------------------------------------
// Phase 1: collect, across the whole scanned tree, (a) type aliases that
// resolve to unordered containers and (b) names of variables/members/
// functions declared with such a type. Name-based and therefore approximate
// — by design; see lint.h.

struct UnorderedSymbols {
  std::set<std::string> aliases;  // type names
  std::set<std::string> names;    // variable / member / function names
};

// After an alias token at token-end `pos`, skip a balanced <...> (same line
// only), then cv/ref noise, and return the declared identifier, if any.
std::string DeclaredNameAfter(const std::string& line, size_t pos) {
  size_t i = pos;
  if (NextNonSpace(line, i) == '<') {
    int depth = 0;
    while (i < line.size()) {
      if (line[i] == '<') {
        ++depth;
      } else if (line[i] == '>') {
        if (--depth == 0) {
          ++i;
          break;
        }
      }
      ++i;
    }
    if (depth != 0) {
      return "";  // template args continue on the next line: give up
    }
  }
  for (;;) {
    char c = NextNonSpace(line, i);
    if (c == '&' || c == '*') {
      while (i < line.size() && line[i] != c) {
        ++i;
      }
      ++i;
    } else {
      break;
    }
  }
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])) != 0) {
    ++i;
  }
  if (i < line.size() && StartsWith(line.substr(i), "const")) {
    i += 5;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
  }
  size_t start = i;
  while (i < line.size() && IsIdentChar(line[i])) {
    ++i;
  }
  if (i == start) {
    return "";
  }
  return line.substr(start, i - start);
}

void CollectUnorderedSymbols(const FileText& file, UnorderedSymbols& symbols) {
  for (const std::string& line : file.code) {
    for (const Token& tok : IdentTokens(line)) {
      if (symbols.aliases.count(tok.text) == 0) {
        continue;
      }
      // `using X = ...unordered...;` introduces a new alias.
      size_t using_pos = line.find("using ");
      size_t eq_pos = line.find('=');
      if (using_pos != std::string::npos && eq_pos != std::string::npos &&
          eq_pos < tok.end - tok.text.size()) {
        std::string lhs = line.substr(using_pos + 6, eq_pos - using_pos - 6);
        std::vector<Token> lhs_tokens = IdentTokens(lhs);
        if (!lhs_tokens.empty()) {
          symbols.aliases.insert(lhs_tokens.back().text);
        }
        continue;
      }
      std::string name = DeclaredNameAfter(line, tok.end);
      if (!name.empty()) {
        symbols.names.insert(name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Suppressions.

struct PendingSuppression {
  size_t line = 0;  // 1-based line the comment sits on; covers line and line+1
  std::string check;
  std::string reason;
  bool used = false;
};

void ParseSuppressions(const FileText& file, std::vector<PendingSuppression>& out,
                       std::vector<Finding>& findings) {
  constexpr const char* kMarker = "dice-lint:";
  for (size_t i = 0; i < file.comment.size(); ++i) {
    const std::string& comment = file.comment[i];
    size_t pos = comment.find(kMarker);
    if (pos == std::string::npos) {
      continue;
    }
    size_t j = pos + std::string(kMarker).size();
    while (j < comment.size() && comment[j] == ' ') {
      ++j;
    }
    size_t start = j;
    while (j < comment.size() && (IsIdentChar(comment[j]) || comment[j] == '-')) {
      ++j;
    }
    std::string tag = comment.substr(start, j - start);
    const std::string ok_suffix = "-ok";
    if (tag.size() <= ok_suffix.size() ||
        tag.compare(tag.size() - ok_suffix.size(), ok_suffix.size(), ok_suffix) != 0) {
      findings.push_back({file.path, i + 1, kSuppression,
                          "malformed dice-lint marker (expected '<check>-ok(<reason>)')"});
      continue;
    }
    std::string check = tag.substr(0, tag.size() - ok_suffix.size());
    if (!KnownCheck(check)) {
      findings.push_back(
          {file.path, i + 1, kSuppression, "unknown check '" + check + "' in suppression"});
      continue;
    }
    if (!Suppressible(check)) {
      findings.push_back({file.path, i + 1, kSuppression,
                          "check '" + check + "' is not suppressible; fix the finding"});
      continue;
    }
    std::string reason;
    if (j < comment.size() && comment[j] == '(') {
      size_t close = comment.find(')', j);
      if (close != std::string::npos) {
        reason = comment.substr(j + 1, close - j - 1);
      }
    }
    if (reason.empty()) {
      findings.push_back({file.path, i + 1, kSuppression,
                          "suppression must carry a non-empty (<reason>)"});
      continue;
    }
    out.push_back({i + 1, check, reason, false});
  }
}

bool TrySuppress(std::vector<PendingSuppression>& suppressions, size_t line,
                 const std::string& check) {
  for (PendingSuppression& s : suppressions) {
    if (s.check == check && (s.line == line || s.line + 1 == line)) {
      s.used = true;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-line checks.

const std::set<std::string>& RngIdentifiers() {
  static const std::set<std::string> kIds = {
      "mt19937",       "mt19937_64",        "minstd_rand",
      "minstd_rand0",  "random_device",     "default_random_engine",
      "ranlux24",      "ranlux48",          "knuth_b",
      "srand",         "drand48",           "random_shuffle",
  };
  return kIds;
}

// Identifiers that are findings only when called, to dodge common substrings.
const std::set<std::string>& RngCallIdentifiers() {
  static const std::set<std::string> kIds = {"rand"};
  return kIds;
}

const std::set<std::string>& ClockIdentifiers() {
  static const std::set<std::string> kIds = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "localtime", "gmtime",
  };
  return kIds;
}

const std::set<std::string>& ClockCallIdentifiers() {
  static const std::set<std::string> kIds = {"time", "clock"};
  return kIds;
}

void CheckTokens(const FileText& file, std::vector<Finding>& findings) {
  const bool rng_allowed = RawRngAllowed(file.path);
  const bool clock_allowed = WallClockAllowed(file.path);
  if (rng_allowed && clock_allowed) {
    return;
  }
  for (size_t i = 0; i < file.code.size(); ++i) {
    for (const Token& tok : IdentTokens(file.code[i])) {
      const bool called = NextNonSpace(file.code[i], tok.end) == '(';
      if (!rng_allowed &&
          (RngIdentifiers().count(tok.text) != 0 ||
           (called && RngCallIdentifiers().count(tok.text) != 0))) {
        findings.push_back({file.path, i + 1, kRawRng,
                            "raw nondeterminism '" + tok.text +
                                "' — all randomness must flow through util::Rng"});
      }
      if (!clock_allowed &&
          (ClockIdentifiers().count(tok.text) != 0 ||
           (called && ClockCallIdentifiers().count(tok.text) != 0))) {
        findings.push_back({file.path, i + 1, kWallClock,
                            "wall-clock read '" + tok.text +
                                "' in a deterministic layer — replay cannot depend on time"});
      }
    }
  }
}

// Range-for whose range expression names an unordered container (or anything
// declared with one): deterministic replay must not observe hash order.
void CheckUnorderedIteration(const FileText& file, const UnorderedSymbols& symbols,
                             std::vector<PendingSuppression>& suppressions,
                             std::vector<Finding>& findings, LintReport& report) {
  if (!StartsWith(file.path, "src/")) {
    return;
  }
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    const std::vector<Token> line_tokens = IdentTokens(line);
    const bool has_for_token =
        std::any_of(line_tokens.begin(), line_tokens.end(),
                    [](const Token& t) { return t.text == "for"; });
    for (const Token& tok : line_tokens) {
      std::string target;
      if (tok.text == "for" && NextNonSpace(line, tok.end) == '(') {
        // Find the range-for ':' — a single colon at depth 1 of the for
        // parens ('::' never qualifies). Join up to two continuation lines
        // so multi-line headers still parse.
        std::string header = line.substr(tok.end);
        for (size_t extra = 1; extra <= 2 && i + extra < file.code.size() &&
                               header.find(')') == std::string::npos;
             ++extra) {
          header += ' ' + file.code[i + extra];
        }
        int depth = 0;
        size_t colon = std::string::npos;
        size_t close = header.size();
        for (size_t k = 0; k < header.size(); ++k) {
          char c = header[k];
          if (c == '(') {
            ++depth;
          } else if (c == ')') {
            if (--depth == 0) {
              close = k;
              break;
            }
          } else if (c == ':' && depth == 1 && colon == std::string::npos) {
            bool doubled = (k + 1 < header.size() && header[k + 1] == ':') ||
                           (k > 0 && header[k - 1] == ':');
            if (!doubled) {
              colon = k;
            }
          }
        }
        if (colon == std::string::npos) {
          continue;  // classic for, or no range clause
        }
        std::string range = header.substr(colon + 1, close - colon - 1);
        std::vector<Token> range_tokens = IdentTokens(range);
        if (range.find("unordered") != std::string::npos) {
          target = "unordered container";
        } else if (!range_tokens.empty() &&
                   symbols.names.count(range_tokens.back().text) != 0) {
          target = "'" + range_tokens.back().text + "'";
        }
      } else if ((tok.text == "begin" || tok.text == "cbegin") &&
                 NextNonSpace(line, tok.end) == '(' && has_for_token) {
        // Iterator-style loop: for (auto it = X.begin(); ...).
        size_t dot = line.find_last_of(".>", tok.end - tok.text.size() - 1);
        if (dot != std::string::npos && dot > 0) {
          size_t end = dot;
          if (line[dot] == '>' && line[dot - 1] == '-') {
            --end;
          }
          size_t start = end;
          while (start > 0 && IsIdentChar(line[start - 1])) {
            --start;
          }
          std::string base = line.substr(start, end - start);
          if (symbols.names.count(base) != 0) {
            target = "'" + base + "'";
          }
        }
      }
      if (target.empty()) {
        continue;
      }
      if (TrySuppress(suppressions, i + 1, kUnorderedIteration)) {
        for (const PendingSuppression& s : suppressions) {
          if (s.used && (s.line == i + 1 || s.line + 1 == i + 1) &&
              s.check == kUnorderedIteration) {
            report.suppressed.push_back({file.path, i + 1, kUnorderedIteration, s.reason});
            break;
          }
        }
      } else {
        findings.push_back({file.path, i + 1, kUnorderedIteration,
                            "iteration over " + target +
                                " — hash order is not replay-stable; sort first, use an "
                                "ordered container, or annotate with "
                                "unordered-iteration-ok(<reason>)"});
      }
      break;  // one finding per line is enough
    }
  }
}

// Strips leading [[...]] attribute blocks; reports whether any mentioned
// nodiscard.
std::string StripAttributes(std::string s, bool& saw_nodiscard) {
  for (;;) {
    size_t start = s.find_first_not_of(" \t");
    if (start == std::string::npos || s.compare(start, 2, "[[") != 0) {
      return start == std::string::npos ? "" : s.substr(start);
    }
    size_t end = s.find("]]", start);
    if (end == std::string::npos) {
      return s.substr(start);
    }
    if (s.substr(start, end - start).find("nodiscard") != std::string::npos) {
      saw_nodiscard = true;
    }
    s = s.substr(end + 2);
  }
}

// Matches `Status Name(` / `StatusOr<...> Name(` after qualifiers; the
// Status-discipline contract requires [[nodiscard]] on every such header
// declaration (the classes are nodiscard too; the per-declaration attribute
// keeps the contract visible at the API and machine-checkable here).
void CheckStatusNodiscard(const FileText& file, std::vector<Finding>& findings) {
  if (!StartsWith(file.path, "src/") || !IsHeader(file.path)) {
    return;
  }
  for (size_t i = 0; i < file.code.size(); ++i) {
    bool has_nodiscard = false;
    std::string s = StripAttributes(file.code[i], has_nodiscard);
    if (i > 0 && file.code[i - 1].find("[[nodiscard]]") != std::string::npos) {
      has_nodiscard = true;
    }
    // Peel declaration qualifiers.
    for (bool peeled = true; peeled;) {
      peeled = false;
      for (const char* q : {"virtual ", "static ", "inline ", "constexpr ", "friend ",
                            "explicit "}) {
        if (StartsWith(s, q)) {
          s = s.substr(std::string(q).size());
          bool ignored = false;
          s = StripAttributes(s, ignored);
          peeled = true;
        }
      }
    }
    for (const char* ns : {"::", "dice::", "util::"}) {
      if (StartsWith(s, ns)) {
        s = s.substr(std::string(ns).size());
        break;
      }
    }
    size_t pos = 0;
    if (StartsWith(s, "StatusOr")) {
      pos = std::string("StatusOr").size();
      if (pos >= s.size() || NextNonSpace(s, pos) != '<') {
        continue;
      }
      int depth = 0;
      while (pos < s.size()) {
        if (s[pos] == '<') {
          ++depth;
        } else if (s[pos] == '>') {
          if (--depth == 0) {
            ++pos;
            break;
          }
        }
        ++pos;
      }
      if (depth != 0) {
        continue;  // return type spans lines; out of scope for a line linter
      }
    } else if (StartsWith(s, "Status") && pos + 6 < s.size() &&
               std::isspace(static_cast<unsigned char>(s[6])) != 0) {
      pos = 6;
    } else {
      continue;
    }
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
      ++pos;
    }
    size_t name_start = pos;
    while (pos < s.size() && IsIdentChar(s[pos])) {
      ++pos;
    }
    if (pos == name_start || NextNonSpace(s, pos) != '(') {
      continue;  // variable, member, or something else — not a declaration
    }
    if (!has_nodiscard) {
      findings.push_back({file.path, i + 1, kStatusNodiscard,
                          "declaration of '" + s.substr(name_start, pos - name_start) +
                              "' returns Status/StatusOr without [[nodiscard]] — a dropped "
                              "return is a dropped error"});
    }
  }
}

void CheckParseReturnsStatus(const FileText& file, std::vector<Finding>& findings) {
  if (!StartsWith(file.path, "src/")) {
    return;
  }
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::vector<Token> tokens = IdentTokens(file.code[i]);
    for (size_t t = 0; t + 1 < tokens.size(); ++t) {
      if (tokens[t].text != "bool" && tokens[t].text != "void") {
        continue;
      }
      const Token& name = tokens[t + 1];
      if ((StartsWith(name.text, "Parse") || StartsWith(name.text, "Deserialize")) &&
          NextNonSpace(file.code[i], name.end) == '(') {
        findings.push_back({file.path, i + 1, kParseReturnsStatus,
                            "'" + name.text + "' returns " + tokens[t].text +
                                " — parse/deserialize APIs must surface failures as "
                                "Status/StatusOr"});
      }
    }
  }
}

}  // namespace

LintReport LintFiles(const std::vector<SourceFile>& files) {
  LintReport report;
  std::vector<FileText> texts;
  texts.reserve(files.size());
  for (const SourceFile& f : files) {
    texts.push_back(Preprocess(f.path, f.content));
  }

  UnorderedSymbols symbols;
  symbols.aliases = {"unordered_map", "unordered_set", "unordered_multimap",
                     "unordered_multiset"};
  // Two rounds so aliases discovered late still bind names declared earlier
  // (e.g. `using Table = std::unordered_map<...>` below its first use site).
  for (int round = 0; round < 2; ++round) {
    for (const FileText& text : texts) {
      CollectUnorderedSymbols(text, symbols);
    }
  }

  for (const FileText& text : texts) {
    ++report.files_scanned;
    std::vector<PendingSuppression> suppressions;
    ParseSuppressions(text, suppressions, report.findings);
    CheckTokens(text, report.findings);
    CheckUnorderedIteration(text, symbols, suppressions, report.findings, report);
    CheckStatusNodiscard(text, report.findings);
    CheckParseReturnsStatus(text, report.findings);
    for (const PendingSuppression& s : suppressions) {
      if (!s.used) {
        report.findings.push_back(
            {text.path, s.line, kSuppression,
             "unused suppression for '" + s.check + "' — the annotated site no longer "
             "triggers; delete the stale annotation"});
      }
    }
  }

  auto by_site = [](const auto& a, const auto& b) {
    return std::tie(a.file, a.line, a.check) < std::tie(b.file, b.line, b.check);
  };
  std::sort(report.findings.begin(), report.findings.end(), by_site);
  std::sort(report.suppressed.begin(), report.suppressed.end(), by_site);
  return report;
}

StatusOr<LintReport> RunLint(const LintOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path root = fs::canonical(options.root, ec);
  if (ec) {
    return InvalidArgumentError("lint root '" + options.root + "': " + ec.message());
  }

  // The linter's own sources spell every banned token and the suppression
  // grammar; fixtures are violations on purpose. Neither is a subject.
  auto exempt = [](const std::string& rel) {
    return StartsWith(rel, "tools/lint/") || rel == "tools/dice_lint.cc" ||
           rel.find("testdata/") != std::string::npos ||
           rel.find("/build") != std::string::npos || StartsWith(rel, "build");
  };
  auto lintable = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp";
  };

  std::vector<std::string> paths;
  for (const std::string& entry : options.paths) {
    fs::path abs = root / entry;
    if (!fs::exists(abs)) {
      return NotFoundError("lint path '" + entry + "' not found under " + root.string());
    }
    if (fs::is_directory(abs)) {
      for (const auto& de : fs::recursive_directory_iterator(abs)) {
        if (de.is_regular_file() && lintable(de.path())) {
          paths.push_back(fs::relative(de.path(), root).generic_string());
        }
      }
    } else {
      paths.push_back(fs::relative(abs, root).generic_string());
    }
  }
  // Directory iteration order is unspecified; the lint itself must be
  // deterministic.
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<SourceFile> files;
  for (const std::string& rel : paths) {
    if (exempt(rel)) {
      continue;
    }
    std::ifstream in(root / rel, std::ios::binary);
    if (!in) {
      return InternalError("failed to read " + rel);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back({rel, buf.str()});
  }
  return LintFiles(files);
}

std::string LintReport::ToString() const {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.check << "] " << f.message << "\n";
  }
  for (const SuppressedSite& s : suppressed) {
    out << s.file << ":" << s.line << ": suppressed " << s.check << " (" << s.reason << ")\n";
  }
  out << "dice_lint: " << files_scanned << " files, " << findings.size() << " finding"
      << (findings.size() == 1 ? "" : "s") << ", " << suppressed.size() << " suppressed site"
      << (suppressed.size() == 1 ? "" : "s") << "\n";
  return out.str();
}

}  // namespace dice::lint
