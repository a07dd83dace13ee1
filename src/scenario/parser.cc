#include "src/scenario/parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/scenario/registry.h"

namespace sat {

namespace {

// The run-level knobs a `set` statement may touch, with the value shape
// the runner expects. Everything else is a parse error — a typo'd knob
// must not silently run a default fleet.
struct SettingSpec {
  std::string_view key;
  enum class Kind { kU64, kF64, kBool, kConfigName, kShootdown, kPtPlacement }
      kind;
};

constexpr SettingSpec kKnownSettings[] = {
    {"config", SettingSpec::Kind::kConfigName},  // named registry entry
    {"ticks", SettingSpec::Kind::kU64},      // scheduler rounds
    {"shards", SettingSpec::Kind::kU64},     // driver jobs the run splits into
    {"seed", SettingSpec::Kind::kU64},       // base seed (config default else)
    {"phys_mb", SettingSpec::Kind::kU64},    // DRAM override
    {"swap_mb", SettingSpec::Kind::kU64},    // zram override
    {"cores", SettingSpec::Kind::kU64},      // simulated cores
    {"nodes", SettingSpec::Kind::kU64},      // NUMA nodes
    {"shootdown", SettingSpec::Kind::kShootdown},       // ShootdownPolicyName
    {"pt_placement", SettingSpec::Kind::kPtPlacement},  // PtPlacementName
    {"ksm", SettingSpec::Kind::kBool},
    {"scrub", SettingSpec::Kind::kBool},
    {"huge", SettingSpec::Kind::kBool},
    {"chaos_pte", SettingSpec::Kind::kF64},    // P(bit-flip) per touch
    {"chaos_alloc", SettingSpec::Kind::kF64},  // P(alloc failure) per attempt
};

bool IsWordChar(char c, char next) {
  if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.') {
    return true;
  }
  // '-' belongs to words ("shared-ptp-tlb", "-0.5") unless it starts the
  // '->' arrow.
  return c == '-' && next != '>';
}

bool ParsesAsU64(const std::string& text) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end == text.c_str() + text.size();
}

bool ParsesAsF64(const std::string& text) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size();
}

struct Token {
  enum class Type { kWord, kString, kColonColon, kArrow, kLparen, kRparen,
                    kComma, kSemi, kEnd } type = Type::kEnd;
  std::string text;
  bool quoted = false;
  int line = 1;
  int column = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  // Scans the next token; false (with the error fields set) on a lexical
  // error (unterminated string, stray character).
  bool Next(Token* token, std::string* error) {
    SkipSpaceAndComments();
    token->line = line_;
    token->column = column_;
    token->quoted = false;
    token->text.clear();
    if (pos_ >= text_.size()) {
      token->type = Token::Type::kEnd;
      return true;
    }
    const char c = text_[pos_];
    if (c == '"') {
      token->type = Token::Type::kString;
      token->quoted = true;
      Advance();
      while (pos_ < text_.size() && text_[pos_] != '"') {
        char ch = text_[pos_];
        if (ch == '\n') {
          *error = "unterminated string";
          return false;
        }
        if (ch == '\\' && pos_ + 1 < text_.size()) {
          Advance();
          ch = text_[pos_];
        }
        token->text += ch;
        Advance();
      }
      if (pos_ >= text_.size()) {
        *error = "unterminated string";
        return false;
      }
      Advance();  // closing quote
      return true;
    }
    if (c == ':' && Peek(1) == ':') {
      token->type = Token::Type::kColonColon;
      Advance();
      Advance();
      return true;
    }
    if (c == '-' && Peek(1) == '>') {
      token->type = Token::Type::kArrow;
      Advance();
      Advance();
      return true;
    }
    if (c == '(') {
      token->type = Token::Type::kLparen;
      Advance();
      return true;
    }
    if (c == ')') {
      token->type = Token::Type::kRparen;
      Advance();
      return true;
    }
    if (c == ',') {
      token->type = Token::Type::kComma;
      Advance();
      return true;
    }
    if (c == ';') {
      token->type = Token::Type::kSemi;
      Advance();
      return true;
    }
    if (IsWordChar(c, Peek(1))) {
      token->type = Token::Type::kWord;
      while (pos_ < text_.size() && IsWordChar(text_[pos_], Peek(1))) {
        token->text += text_[pos_];
        Advance();
      }
      return true;
    }
    *error = std::string("unexpected character '") + c + "'";
    return false;
  }

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  void Advance() {
    if (text_[pos_] == '\n') {
      line_++;
      column_ = 1;
    } else {
      column_++;
    }
    pos_++;
  }
  void SkipSpaceAndComments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '#' || (c == '/' && Peek(1) == '/')) {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          Advance();
        }
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

// Recursive-descent parser over the token stream. Errors carry the
// position of the token that broke the grammar.
class Parser {
 public:
  Parser(std::string_view text, std::string name,
         const ElementRegistry* registry)
      : lexer_(text), registry_(registry) {
    result_.graph.name = std::move(name);
  }

  ScenarioParseResult Run() {
    if (!NextToken()) {
      return result_;
    }
    while (token_.type != Token::Type::kEnd) {
      if (!Statement()) {
        return result_;
      }
    }
    Validate();
    return result_;
  }

 private:
  bool Fail(Errno error, const std::string& message) {
    return FailAt(error, message, token_.line, token_.column);
  }
  bool FailAt(Errno error, const std::string& message, int line, int column) {
    if (result_.ok()) {
      result_.error = error;
      result_.message = message;
      result_.line = line;
      result_.column = column;
    }
    return false;
  }

  bool NextToken() {
    std::string error;
    if (!lexer_.Next(&token_, &error)) {
      return FailAt(Errno::kEinval, error, lexer_.line(), lexer_.column());
    }
    return true;
  }

  bool Expect(Token::Type type, const char* what) {
    if (token_.type != type) {
      return Fail(Errno::kEinval, std::string("expected ") + what);
    }
    return NextToken();
  }

  // statement := 'set' word value ';'
  //            | word '::' word '(' params ')' ';'
  //            | ref ('->' ref)+ ';'
  bool Statement() {
    if (token_.type != Token::Type::kWord &&
        token_.type != Token::Type::kString) {
      return Fail(Errno::kEinval,
                  "expected a declaration, a 'set' statement, or a chain");
    }
    if (token_.type == Token::Type::kWord && token_.text == "set") {
      return SetStatement();
    }
    const Token first = token_;
    if (!NextToken()) {
      return false;
    }
    if (token_.type == Token::Type::kColonColon) {
      return Declaration(first);
    }
    return Chain(first);
  }

  bool SetStatement() {
    const Token set_token = token_;
    if (!NextToken()) {
      return false;
    }
    if (token_.type != Token::Type::kWord) {
      return Fail(Errno::kEinval, "expected a setting name after 'set'");
    }
    if (result_.graph.FindSetting(token_.text) != nullptr) {
      return Fail(Errno::kEinval, "duplicate setting '" + token_.text + "'");
    }
    ScenarioSetting setting;
    setting.key = token_.text;
    setting.line = set_token.line;
    setting.column = token_.column;
    const Token key_token = token_;
    if (!NextToken()) {
      return false;
    }
    if (token_.type != Token::Type::kWord &&
        token_.type != Token::Type::kString) {
      return Fail(Errno::kEinval,
                  "expected a value for setting '" + setting.key + "'");
    }
    setting.value = token_.text;
    const Token value_token = token_;
    if (!NextToken()) {
      return false;
    }
    if (!Expect(Token::Type::kSemi, "';'")) {
      return false;
    }

    const SettingSpec* spec = nullptr;
    for (const SettingSpec& candidate : kKnownSettings) {
      if (candidate.key == setting.key) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      return FailAt(Errno::kEinval, "unknown setting '" + setting.key + "'",
                    key_token.line, key_token.column);
    }
    // What the setting expects, when its value does not fit.
    const char* expected = nullptr;
    switch (spec->kind) {
      case SettingSpec::Kind::kU64:
        expected = ParsesAsU64(setting.value) ? nullptr : "an unsigned integer";
        break;
      case SettingSpec::Kind::kF64:
        expected = ParsesAsF64(setting.value) ? nullptr : "a number";
        break;
      case SettingSpec::Kind::kBool:
        expected = setting.value == "true" || setting.value == "false"
                       ? nullptr
                       : "true or false";
        break;
      case SettingSpec::Kind::kConfigName:
        if (!TryConfigByName(setting.value).has_value()) {
          return FailAt(Errno::kEfault,
                        "unknown config '" + setting.value +
                            "'; known configs: " + NamedConfigKeyList(),
                        value_token.line, value_token.column);
        }
        break;
      case SettingSpec::Kind::kShootdown:
        expected = ShootdownPolicyFromName(setting.value).has_value()
                       ? nullptr
                       : "immediate or batched";
        break;
      case SettingSpec::Kind::kPtPlacement:
        expected = PtPlacementFromName(setting.value).has_value()
                       ? nullptr
                       : "local, replicate, or migrate";
        break;
    }
    if (expected != nullptr) {
      return FailAt(Errno::kEinval,
                    "setting '" + setting.key + "' expects " + expected +
                        ", got '" + setting.value + "'",
                    value_token.line, value_token.column);
    }
    result_.graph.settings.push_back(std::move(setting));
    return true;
  }

  // Already consumed `name` and sitting on '::'.
  bool Declaration(const Token& name_token) {
    if (name_token.quoted) {
      return FailAt(Errno::kEinval, "element names must be bare words",
                    name_token.line, name_token.column);
    }
    if (FindElement(name_token.text) >= 0) {
      return FailAt(Errno::kEinval,
                    "duplicate element name '" + name_token.text + "'",
                    name_token.line, name_token.column);
    }
    if (!NextToken()) {  // past '::'
      return false;
    }
    if (token_.type != Token::Type::kWord) {
      return Fail(Errno::kEinval, "expected an element kind after '::'");
    }
    ElementSpec spec;
    spec.name = name_token.text;
    spec.kind = token_.text;
    spec.line = token_.line;
    spec.column = token_.column;
    if (!NextToken()) {
      return false;
    }
    if (!Params(&spec.params)) {
      return false;
    }
    if (!Expect(Token::Type::kSemi, "';'")) {
      return false;
    }
    result_.graph.elements.push_back(std::move(spec));
    return true;
  }

  // '(' key value (',' key value)* ')' — or nothing at all.
  bool Params(ElementParams* params) {
    if (token_.type != Token::Type::kLparen) {
      return true;  // parameterless: `a :: DiurnalLoad;`
    }
    if (!NextToken()) {
      return false;
    }
    if (token_.type == Token::Type::kRparen) {
      return NextToken();
    }
    while (true) {
      if (token_.type != Token::Type::kWord) {
        return Fail(Errno::kEinval, "expected a parameter name");
      }
      for (const ElementParam& seen : params->items) {
        if (seen.key == token_.text) {
          return Fail(Errno::kEinval,
                      "duplicate parameter '" + token_.text + "'");
        }
      }
      ElementParam param;
      param.key = token_.text;
      if (!NextToken()) {
        return false;
      }
      if (token_.type != Token::Type::kWord &&
          token_.type != Token::Type::kString) {
        return Fail(Errno::kEinval,
                    "expected a value for parameter '" + param.key + "'");
      }
      param.value = token_.text;
      param.quoted = token_.quoted;
      params->items.push_back(std::move(param));
      if (!NextToken()) {
        return false;
      }
      if (token_.type == Token::Type::kComma) {
        if (!NextToken()) {
          return false;
        }
        continue;
      }
      if (token_.type == Token::Type::kRparen) {
        return NextToken();
      }
      return Fail(Errno::kEinval, "expected ',' or ')' in parameter list");
    }
  }

  // Already consumed the first ref's leading word; `first` is that token.
  bool Chain(const Token& first) {
    int32_t previous = -1;
    if (!Ref(first, &previous)) {
      return false;
    }
    if (token_.type != Token::Type::kArrow) {
      return Fail(Errno::kEinval, "expected '::' or '->'");
    }
    while (token_.type == Token::Type::kArrow) {
      if (!NextToken()) {
        return false;
      }
      if (token_.type != Token::Type::kWord) {
        return Fail(Errno::kEinval, "expected an element after '->'");
      }
      const Token next_ref = token_;
      if (!NextToken()) {
        return false;
      }
      int32_t target = -1;
      if (!Ref(next_ref, &target)) {
        return false;
      }
      EdgeSpec edge;
      edge.from = static_cast<uint32_t>(previous);
      edge.to = static_cast<uint32_t>(target);
      result_.graph.edges.push_back(edge);
      previous = target;
    }
    return Expect(Token::Type::kSemi, "';'");
  }

  // A chain ref: a declared name, or an inline `Kind(params)` anonymous
  // declaration. `word` has been consumed; the cursor sits just past it.
  bool Ref(const Token& word, int32_t* index) {
    if (token_.type == Token::Type::kLparen) {
      ElementSpec spec;
      spec.kind = word.text;
      spec.line = word.line;
      spec.column = word.column;
      spec.name = AnonymousName(word.text);
      if (!Params(&spec.params)) {
        return false;
      }
      *index = static_cast<int32_t>(result_.graph.elements.size());
      result_.graph.elements.push_back(std::move(spec));
      return true;
    }
    const int32_t found = FindElement(word.text);
    if (found < 0) {
      return FailAt(Errno::kEfault,
                    "unknown element '" + word.text +
                        "' (declare it with `name :: Kind(...);` first)",
                    word.line, word.column);
    }
    *index = found;
    return true;
  }

  int32_t FindElement(std::string_view name) const {
    for (size_t i = 0; i < result_.graph.elements.size(); ++i) {
      if (result_.graph.elements[i].name == name) {
        return static_cast<int32_t>(i);
      }
    }
    return -1;
  }

  std::string AnonymousName(const std::string& kind) {
    for (uint32_t n = static_cast<uint32_t>(result_.graph.elements.size());;
         ++n) {
      std::string candidate = "_" + kind + std::to_string(n);
      if (FindElement(candidate) < 0) {
        return candidate;
      }
    }
  }

  // Instantiate + Configure every element once against the registry, so
  // unknown kinds and bad parameters are rejected with their source line.
  void Validate() {
    if (registry_ == nullptr || !result_.ok()) {
      return;
    }
    for (const ElementSpec& spec : result_.graph.elements) {
      std::unique_ptr<WorkloadElement> element = registry_->Create(spec.kind);
      if (element == nullptr) {
        FailAt(Errno::kEfault,
               "unknown element kind '" + spec.kind +
                   "'; known kinds: " + registry_->KindList(),
               spec.line, spec.column);
        return;
      }
      const ScenarioResult configured = element->Configure(spec.params);
      if (!configured.ok()) {
        FailAt(configured.error, spec.kind + ": " + configured.message,
               spec.line, spec.column);
        return;
      }
    }
  }

  Lexer lexer_;
  Token token_;
  const ElementRegistry* registry_;
  ScenarioParseResult result_;
};

// True when `value` needs quotes to survive a reparse.
bool NeedsQuotes(const std::string& value) {
  if (value.empty()) {
    return true;
  }
  for (size_t i = 0; i < value.size(); ++i) {
    const char next = i + 1 < value.size() ? value[i + 1] : '\0';
    if (!IsWordChar(value[i], next)) {
      return true;
    }
  }
  return false;
}

std::string QuoteIfNeeded(const std::string& value, bool was_quoted) {
  if (!was_quoted && !NeedsQuotes(value)) {
    return value;
  }
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

const ScenarioSetting* ScenarioGraph::FindSetting(std::string_view key) const {
  for (const ScenarioSetting& setting : settings) {
    if (setting.key == key) {
      return &setting;
    }
  }
  return nullptr;
}

std::string ScenarioGraph::SettingStr(std::string_view key,
                                      std::string_view fallback) const {
  const ScenarioSetting* setting = FindSetting(key);
  return setting == nullptr ? std::string(fallback) : setting->value;
}

uint64_t ScenarioGraph::SettingU64(std::string_view key,
                                   uint64_t fallback) const {
  const ScenarioSetting* setting = FindSetting(key);
  if (setting == nullptr || !ParsesAsU64(setting->value)) {
    return fallback;
  }
  return std::strtoull(setting->value.c_str(), nullptr, 10);
}

double ScenarioGraph::SettingF64(std::string_view key, double fallback) const {
  const ScenarioSetting* setting = FindSetting(key);
  if (setting == nullptr || !ParsesAsF64(setting->value)) {
    return fallback;
  }
  return std::strtod(setting->value.c_str(), nullptr);
}

bool ScenarioGraph::SettingBool(std::string_view key, bool fallback) const {
  const ScenarioSetting* setting = FindSetting(key);
  if (setting == nullptr) {
    return fallback;
  }
  return setting->value == "true";
}

std::string ScenarioGraph::ToString() const {
  std::string out;
  for (const ScenarioSetting& setting : settings) {
    out += "set " + setting.key + " " + QuoteIfNeeded(setting.value, false) +
           ";\n";
  }
  if (!settings.empty() && !elements.empty()) {
    out += "\n";
  }
  for (const ElementSpec& element : elements) {
    out += element.name + " :: " + element.kind;
    if (!element.params.items.empty()) {
      out += "(";
      for (size_t i = 0; i < element.params.items.size(); ++i) {
        const ElementParam& param = element.params.items[i];
        out += param.key + " " + QuoteIfNeeded(param.value, param.quoted);
        if (i + 1 < element.params.items.size()) {
          out += ", ";
        }
      }
      out += ")";
    }
    out += ";\n";
  }
  if (!edges.empty()) {
    out += "\n";
  }
  for (const EdgeSpec& edge : edges) {
    out += elements[edge.from].name + " -> " + elements[edge.to].name + ";\n";
  }
  return out;
}

std::string ScenarioParseResult::FormatError(std::string_view origin) const {
  std::ostringstream out;
  out << origin << ":" << line << ":" << column << ": error: " << message
      << " (" << ErrnoName(error) << ")";
  return out.str();
}

ScenarioParseResult ParseScenario(std::string_view text, std::string name,
                                  const ElementRegistry* registry) {
  Parser parser(text, std::move(name), registry);
  return parser.Run();
}

ScenarioParseResult ParseScenarioFile(const std::string& path,
                                      const ElementRegistry* registry) {
  std::ifstream file(path);
  if (!file) {
    ScenarioParseResult result;
    result.error = Errno::kEfault;
    result.message = "cannot open scenario file '" + path + "'";
    return result;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseScenario(buffer.str(), ScenarioNameFromPath(path), registry);
}

std::string ScenarioNameFromPath(std::string_view path) {
  const size_t slash = path.find_last_of("/\\");
  std::string_view stem =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  const size_t dot = stem.rfind('.');
  if (dot != std::string_view::npos && dot > 0) {
    stem = stem.substr(0, dot);
  }
  return std::string(stem);
}

}  // namespace sat
