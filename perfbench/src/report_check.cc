#include "report_check.h"

#include <cctype>
#include <cstdlib>
#include <optional>

#include "src/snowboard/replay.h"
#include "src/snowboard/serialize.h"

namespace perfbench {

namespace {

// A minimal JSON document model and recursive-descent parser (RFC 8259 grammar, no
// extensions). Enough to validate a report end to end and read the fields checked here.
struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Get(const std::string& key) const {
    for (const auto& [name, value] : fields) {
      if (name == key) {
        return &value;
      }
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& in) : in_(in) {}

  std::optional<Json> Document() {
    std::optional<Json> value = Value(0);
    SkipSpace();
    if (!value.has_value() || pos_ != in_.size()) {
      return std::nullopt;
    }
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\n' || in_[pos_] == '\r' || in_[pos_] == '\t')) {
      pos_++;
    }
  }

  bool Literal(const char* word) {
    size_t n = std::char_traits<char>::length(word);
    if (in_.compare(pos_, n, word) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  std::optional<Json> Value(int depth) {
    if (depth > 64) {
      return std::nullopt;
    }
    SkipSpace();
    if (pos_ >= in_.size()) {
      return std::nullopt;
    }
    Json out;
    char c = in_[pos_];
    if (c == '{') {
      out.kind = Json::kObject;
      pos_++;
      SkipSpace();
      if (pos_ < in_.size() && in_[pos_] == '}') {
        pos_++;
        return out;
      }
      while (true) {
        SkipSpace();
        std::optional<std::string> key = String();
        SkipSpace();
        if (!key.has_value() || pos_ >= in_.size() || in_[pos_] != ':') {
          return std::nullopt;
        }
        pos_++;
        std::optional<Json> value = Value(depth + 1);
        if (!value.has_value()) {
          return std::nullopt;
        }
        out.fields.emplace_back(std::move(*key), std::move(*value));
        SkipSpace();
        if (pos_ < in_.size() && in_[pos_] == ',') {
          pos_++;
          continue;
        }
        if (pos_ < in_.size() && in_[pos_] == '}') {
          pos_++;
          return out;
        }
        return std::nullopt;
      }
    }
    if (c == '[') {
      out.kind = Json::kArray;
      pos_++;
      SkipSpace();
      if (pos_ < in_.size() && in_[pos_] == ']') {
        pos_++;
        return out;
      }
      while (true) {
        std::optional<Json> value = Value(depth + 1);
        if (!value.has_value()) {
          return std::nullopt;
        }
        out.items.push_back(std::move(*value));
        SkipSpace();
        if (pos_ < in_.size() && in_[pos_] == ',') {
          pos_++;
          continue;
        }
        if (pos_ < in_.size() && in_[pos_] == ']') {
          pos_++;
          return out;
        }
        return std::nullopt;
      }
    }
    if (c == '"') {
      std::optional<std::string> text = String();
      if (!text.has_value()) {
        return std::nullopt;
      }
      out.kind = Json::kString;
      out.text = std::move(*text);
      return out;
    }
    if (Literal("true") || Literal("false")) {
      out.kind = Json::kBool;
      return out;
    }
    if (Literal("null")) {
      return out;
    }
    return Number();
  }

  std::optional<Json> Number() {
    size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') {
      pos_++;
    }
    size_t digits = pos_;
    while (pos_ < in_.size() && std::isdigit(static_cast<unsigned char>(in_[pos_]))) {
      pos_++;
    }
    if (pos_ == digits) {
      return std::nullopt;
    }
    if (pos_ < in_.size() && in_[pos_] == '.') {
      pos_++;
      size_t frac = pos_;
      while (pos_ < in_.size() && std::isdigit(static_cast<unsigned char>(in_[pos_]))) {
        pos_++;
      }
      if (pos_ == frac) {
        return std::nullopt;
      }
    }
    if (pos_ < in_.size() && (in_[pos_] == 'e' || in_[pos_] == 'E')) {
      pos_++;
      if (pos_ < in_.size() && (in_[pos_] == '+' || in_[pos_] == '-')) {
        pos_++;
      }
      size_t exp = pos_;
      while (pos_ < in_.size() && std::isdigit(static_cast<unsigned char>(in_[pos_]))) {
        pos_++;
      }
      if (pos_ == exp) {
        return std::nullopt;
      }
    }
    Json out;
    out.kind = Json::kNumber;
    out.number = std::strtod(in_.substr(start, pos_ - start).c_str(), nullptr);
    return out;
  }

  std::optional<std::string> String() {
    if (pos_ >= in_.size() || in_[pos_] != '"') {
      return std::nullopt;
    }
    pos_++;
    std::string out;
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return std::nullopt;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= in_.size()) {
        return std::nullopt;
      }
      char e = in_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > in_.size()) {
            return std::nullopt;
          }
          for (size_t i = 0; i < 4; i++) {
            if (!std::isxdigit(static_cast<unsigned char>(in_[pos_ + i]))) {
              return std::nullopt;
            }
          }
          unsigned code = std::strtoul(in_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          out += code < 0x80 ? static_cast<char>(code) : '?';  // Only ASCII is compared.
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;
  }

  const std::string& in_;
  size_t pos_ = 0;
};

}  // namespace

ReportView ParseReport(const std::string& json) {
  ReportView view;
  std::optional<Json> doc = Parser(json).Document();
  if (!doc.has_value() || doc->kind != Json::kObject) {
    view.error = "report is not a JSON object";
    return view;
  }
  const Json* schema = doc->Get("schema");
  if (schema == nullptr || schema->kind != Json::kString ||
      schema->text != "snowboard-report-v1") {
    view.error = "schema is not snowboard-report-v1";
    return view;
  }
  const Json* funnel = doc->Get("funnel");
  const Json* findings = doc->Get("findings");
  if (funnel == nullptr || funnel->kind != Json::kArray || findings == nullptr ||
      findings->kind != Json::kArray) {
    view.error = "funnel or findings missing";
    return view;
  }
  for (const Json& row : funnel->items) {
    const Json* stage = row.Get("stage");
    const Json* count = row.Get("count");
    if (stage == nullptr || stage->kind != Json::kString || count == nullptr ||
        count->kind != Json::kNumber) {
      view.error = "malformed funnel row";
      return view;
    }
    view.funnel[stage->text] = static_cast<uint64_t>(count->number);
  }
  for (const Json& row : findings->items) {
    const Json* issue = row.Get("issue_id");
    const Json* token = row.Get("replay_token");
    if (issue == nullptr || issue->kind != Json::kNumber || token == nullptr ||
        token->kind != Json::kString) {
      view.error = "malformed finding row";
      return view;
    }
    view.tokens.push_back(token->text);
  }
  if (view.funnel.count("tests_executed") == 0) {
    view.error = "funnel has no tests_executed";
    return view;
  }
  view.parsed = true;
  return view;
}

bool ReplayAll(snowboard::KernelVm& vm, const ReportView& view, ReplayTally* tally,
               SpanTrace* trace) {
  bool all_exact = true;
  for (const std::string& text : view.tokens) {
    if (text.empty()) {
      tally->missing++;
      all_exact = false;
      continue;
    }
    ScopedSpan span(trace, "replay");
    double start = NowSeconds();
    std::optional<snowboard::ReplayToken> token = snowboard::ParseReplayToken(text);
    bool exact = false;
    if (token.has_value()) {
      snowboard::ReplayVerdict verdict = snowboard::ReplayTokenTrial(vm, *token);
      exact = verdict.completed && verdict.fingerprint_match;
    }
    tally->seconds.push_back(NowSeconds() - start);
    tally->replayed++;
    tally->exact += exact ? 1 : 0;
    all_exact = all_exact && exact;
  }
  return all_exact;
}

}  // namespace perfbench
