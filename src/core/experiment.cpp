#include "core/experiment.hpp"

#include <cmath>
#include <ostream>

#include "common/error.hpp"

namespace biosense::core {

std::vector<double> log_space(double lo, double hi, std::size_t n) {
  require(lo > 0.0 && hi > lo && n >= 2, "log_space: invalid arguments");
  std::vector<double> out(n);
  const double step = std::log(hi / lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo * std::exp(step * static_cast<double>(i));
  }
  return out;
}

void ClaimReport::add(std::string quantity, std::string paper_value,
                      std::string measured_value, bool pass) {
  checks_.push_back({std::move(quantity), std::move(paper_value),
                     std::move(measured_value), pass});
}

void ClaimReport::add_range(std::string quantity, std::string paper_value,
                            double measured, double lo, double hi,
                            const std::string& unit) {
  const bool pass = measured >= lo && measured <= hi;
  add(std::move(quantity), std::move(paper_value), si_format(measured, unit),
      pass);
}

bool ClaimReport::all_pass() const {
  for (const auto& c : checks_) {
    if (!c.pass) return false;
  }
  return true;
}

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void ClaimReport::to_json(std::ostream& os) const {
  os << "{\"title\": ";
  write_json_string(os, title_);
  os << ", \"all_pass\": " << (all_pass() ? "true" : "false")
     << ", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const auto& c = checks_[i];
    if (i > 0) os << ", ";
    os << "{\"quantity\": ";
    write_json_string(os, c.quantity);
    os << ", \"paper\": ";
    write_json_string(os, c.paper_value);
    os << ", \"measured\": ";
    write_json_string(os, c.measured_value);
    os << ", \"pass\": " << (c.pass ? "true" : "false") << "}";
  }
  os << "]}";
}

void ClaimReport::print(std::ostream& os) const {
  Table t(title_);
  t.set_columns({"quantity", "paper", "measured", "status"});
  for (const auto& c : checks_) {
    t.add_row({c.quantity, c.paper_value, c.measured_value,
               std::string(c.pass ? "OK" : "DEVIATES")});
  }
  t.print(os);
}

}  // namespace biosense::core
