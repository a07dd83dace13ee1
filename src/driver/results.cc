#include "src/driver/results.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace sat {

namespace {

// JSON has no NaN/Inf; integral values print without an exponent so
// counter fields stay grep-able and diff-able.
std::string NumberToJson(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void AppendRecord(const JobRecord& record, std::string* out) {
  *out += "    {\n";
  *out += "      \"config\": \"" + JsonEscape(record.config) + "\"";
  if (!record.labels.empty()) {
    *out += ",\n      \"labels\": {\n";
    for (size_t i = 0; i < record.labels.size(); ++i) {
      *out += "        \"" + JsonEscape(record.labels[i].first) + "\": \"" +
              JsonEscape(record.labels[i].second) + "\"";
      *out += (i + 1 < record.labels.size()) ? ",\n" : "\n";
    }
    *out += "      }";
  }
  if (!record.metrics.empty()) {
    *out += ",\n      \"metrics\": {\n";
    for (size_t i = 0; i < record.metrics.size(); ++i) {
      *out += "        \"" + JsonEscape(record.metrics[i].first) +
              "\": " + NumberToJson(record.metrics[i].second);
      *out += (i + 1 < record.metrics.size()) ? ",\n" : "\n";
    }
    *out += "      }";
  }
  *out += "\n    }";
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToJson(const ExperimentResult& result) {
  std::string out = "{\n";
  out += "  \"bench\": \"" + JsonEscape(result.bench) + "\",\n";
  out += "  \"seed\": " + std::to_string(result.seed) + ",\n";
  out += std::string("  \"smoke\": ") + (result.smoke ? "true" : "false") +
         ",\n";
  out += "  \"configs\": [\n";
  for (size_t i = 0; i < result.records.size(); ++i) {
    AppendRecord(result.records[i], &out);
    out += (i + 1 < result.records.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool WriteJsonFile(const ExperimentResult& result, const std::string& path,
                   std::string* error) {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  file << ToJson(result);
  file.close();
  if (!file) {
    if (error != nullptr) {
      *error = "write failed: " + path;
    }
    return false;
  }
  return true;
}

}  // namespace sat
