#include "runner/argspec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mcan::runner {
namespace {

/// Does `arg` select `spec`?  Value flags also match "--name=value";
/// boolean flags only the exact name (a stray "--progress=x" is *not* the
/// flag — it survives as unknown and gets diagnosed, never half-matched).
bool selects(std::string_view arg, const ArgSpec& spec) {
  if (arg == spec.name) return true;
  return spec.takes_value() && arg.size() > spec.name.size() &&
         arg.compare(0, spec.name.size(), spec.name) == 0 &&
         arg[spec.name.size()] == '=';
}

/// Unit-cost edit distance over short flag names (near-miss suggestions).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cur = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev = cur;
    }
  }
  return row[b.size()];
}

}  // namespace

std::uint64_t parse_u64_arg(const std::string& text, std::string_view what) {
  // std::stoull accepts leading whitespace and a sign — "-1" silently
  // wraps to 2^64-1 with a full-length pos.  An unsigned count must be
  // bare digits, nothing else.
  const bool digits_only =
      !text.empty() && text.find_first_not_of("0123456789") == std::string::npos;
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    if (digits_only) v = std::stoull(text, &pos, 10);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos == 0 || pos != text.size()) {
    throw std::invalid_argument(std::string{"malformed "} + std::string{what} +
                                ": '" + text + "'");
  }
  return v;
}

double parse_double_arg(const std::string& text, std::string_view what) {
  // from_chars ignores the locale and takes neither leading whitespace nor
  // a '+' sign, so "1.5" means the same thing everywhere and "1.5x", " 2"
  // or "" are errors instead of a silent prefix parse (atof gives 0).
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    throw std::invalid_argument(std::string{"malformed "} + std::string{what} +
                                ": '" + text + "'");
  }
  return v;
}

int parse_int_arg(const std::string& text, int lo, int hi,
                  std::string_view what) {
  std::size_t pos = 0;
  long v = 0;
  try {
    v = std::stol(text, &pos, 10);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos == 0 || pos != text.size() || v < lo || v > hi) {
    throw std::invalid_argument(std::string{what} + " out of range: '" +
                                text + "'");
  }
  return static_cast<int>(v);
}

ArgTable& ArgTable::flag(std::string name, std::string help,
                         std::function<void()> act) {
  ArgSpec spec;
  spec.name = std::move(name);
  spec.help = std::move(help);
  spec.action = std::move(act);
  specs_.push_back(std::move(spec));
  return *this;
}

ArgTable& ArgTable::flag(std::string name, std::string help, bool* target,
                         bool value) {
  return flag(std::move(name), std::move(help),
              [target, value] { *target = value; });
}

ArgTable& ArgTable::value(std::string name, std::string value_name,
                          std::string help,
                          std::function<void(const std::string&)> sink) {
  ArgSpec spec;
  spec.name = std::move(name);
  spec.value_name = std::move(value_name);
  spec.help = std::move(help);
  spec.sink = std::move(sink);
  specs_.push_back(std::move(spec));
  return *this;
}

ArgTable& ArgTable::str(std::string name, std::string value_name,
                        std::string help, std::string* out) {
  return value(std::move(name), std::move(value_name), std::move(help),
               [out](const std::string& v) { *out = v; });
}

ArgTable& ArgTable::u64(std::string name, std::string value_name,
                        std::string help, std::uint64_t* out) {
  // Copy the flag name into the sink so the error message can name it.
  std::string flag_name = name;
  return value(std::move(name), std::move(value_name), std::move(help),
               [out, flag_name](const std::string& v) {
                 *out = parse_u64_arg(v, flag_name);
               });
}

ArgTable& ArgTable::int_in(std::string name, std::string value_name,
                           std::string help, int lo, int hi, int* out) {
  std::string flag_name = name;
  return value(std::move(name), std::move(value_name), std::move(help),
               [out, lo, hi, flag_name](const std::string& v) {
                 *out = parse_int_arg(v, lo, hi, flag_name);
               });
}

std::vector<std::string> ArgTable::parse(const std::vector<std::string>& args,
                                         Unknown policy,
                                         std::string_view context) const {
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& arg = args[i];
    const ArgSpec* hit = nullptr;
    for (const auto& spec : specs_) {
      if (selects(arg, spec)) {
        hit = &spec;
        break;
      }
    }
    if (hit == nullptr) {
      if (policy == Unknown::Reject && arg.size() > 1 && arg[0] == '-') {
        std::string msg{context};
        if (!msg.empty()) msg += ": ";
        msg += "unexpected argument '" + arg + "'";
        // Suggest the closest declared flag (compare up to any "=value").
        const auto stem = arg.substr(0, arg.find('='));
        const ArgSpec* best = nullptr;
        std::size_t best_d = 3;  // suggest only within edit distance 2
        for (const auto& spec : specs_) {
          const auto d = edit_distance(stem, spec.name);
          if (d < best_d) {
            best_d = d;
            best = &spec;
          }
        }
        if (best != nullptr) msg += " (did you mean " + best->name + "?)";
        throw std::invalid_argument(msg);
      }
      rest.push_back(arg);
      continue;
    }
    if (!hit->takes_value()) {
      hit->action();
      continue;
    }
    std::string value;
    if (arg.size() > hit->name.size() && arg[hit->name.size()] == '=') {
      value = arg.substr(hit->name.size() + 1);
    } else {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(hit->name + " needs a value");
      }
      value = args[++i];
    }
    hit->sink(value);
  }
  return rest;
}

void ArgTable::extract_argv(int& argc, char** argv) const {
  std::vector<char*> kept;
  kept.reserve(static_cast<std::size_t>(argc));
  if (argc > 0) kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const ArgSpec* hit = nullptr;
    for (const auto& spec : specs_) {
      if (selects(arg, spec)) {
        hit = &spec;
        break;
      }
    }
    if (hit == nullptr) {
      kept.push_back(argv[i]);
      continue;
    }
    if (!hit->takes_value()) {
      hit->action();
      continue;
    }
    std::string value;
    if (arg.size() > hit->name.size() && arg[hit->name.size()] == '=') {
      value = std::string{arg.substr(hit->name.size() + 1)};
    } else {
      if (i + 1 >= argc) {
        throw std::invalid_argument(hit->name + " needs a value");
      }
      value = argv[++i];
    }
    hit->sink(value);
  }
  argc = static_cast<int>(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) argv[i] = kept[i];
  argv[argc] = nullptr;
}

std::string ArgTable::usage() const {
  std::string out;
  for (const auto& spec : specs_) {
    if (!out.empty()) out += " ";
    out += "[" + spec.name;
    if (spec.takes_value()) out += " " + spec.value_name;
    out += "]";
  }
  return out;
}

std::string ArgTable::help_text() const {
  // Align the help column just past the longest "--name VALUE" head.
  std::size_t head_width = 0;
  for (const auto& spec : specs_) {
    std::size_t w = spec.name.size();
    if (spec.takes_value()) w += 1 + spec.value_name.size();
    head_width = std::max(head_width, w);
  }
  std::string out;
  for (const auto& spec : specs_) {
    std::string head = spec.name;
    if (spec.takes_value()) head += " " + spec.value_name;
    head.resize(head_width + 2, ' ');
    out += "  " + head + spec.help + "\n";
  }
  return out;
}

}  // namespace mcan::runner
