#include "opto/util/cli.hpp"

#include <cstdio>

#include "opto/util/assert.hpp"
#include "opto/util/string_util.hpp"

namespace opto {

struct CliParser::Option {
  enum class Kind { Int, Double, String, Flag };

  std::string name;
  std::string help;
  std::string default_text;  ///< the usage's "(default: …)", fixed at add
  Kind kind;
  long long int_value = 0;
  double double_value = 0.0;
  std::string string_value;
  bool flag_value = false;

  bool assign(std::string_view text) {
    switch (kind) {
      case Kind::Int: {
        auto v = parse_int(text);
        if (!v) return false;
        int_value = *v;
        return true;
      }
      case Kind::Double: {
        auto v = parse_double(text);
        if (!v) return false;
        double_value = *v;
        return true;
      }
      case Kind::String:
        string_value = std::string(text);
        return true;
      case Kind::Flag:
        if (text == "true" || text == "1") {
          flag_value = true;
          return true;
        }
        if (text == "false" || text == "0") {
          flag_value = false;
          return true;
        }
        return false;
    }
    return false;
  }
};

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

CliParser::~CliParser() = default;

const long long* CliParser::add_int(const std::string& name,
                                    long long default_value,
                                    const std::string& help) {
  auto opt = std::make_unique<Option>();
  opt->name = name;
  opt->help = help;
  opt->kind = Option::Kind::Int;
  opt->int_value = default_value;
  opt->default_text = std::to_string(default_value);
  const long long* handle = &opt->int_value;
  options_.push_back(std::move(opt));
  return handle;
}

const double* CliParser::add_double(const std::string& name,
                                    double default_value,
                                    const std::string& help) {
  auto opt = std::make_unique<Option>();
  opt->name = name;
  opt->help = help;
  opt->kind = Option::Kind::Double;
  opt->double_value = default_value;
  opt->default_text = std::to_string(default_value);
  const double* handle = &opt->double_value;
  options_.push_back(std::move(opt));
  return handle;
}

const std::string* CliParser::add_string(const std::string& name,
                                         std::string default_value,
                                         const std::string& help) {
  auto opt = std::make_unique<Option>();
  opt->name = name;
  opt->help = help;
  opt->kind = Option::Kind::String;
  opt->default_text = default_value;
  opt->string_value = std::move(default_value);
  const std::string* handle = &opt->string_value;
  options_.push_back(std::move(opt));
  return handle;
}

const bool* CliParser::add_flag(const std::string& name,
                                const std::string& help) {
  auto opt = std::make_unique<Option>();
  opt->name = name;
  opt->help = help;
  opt->kind = Option::Kind::Flag;
  opt->default_text = "false";
  const bool* handle = &opt->flag_value;
  options_.push_back(std::move(opt));
  return handle;
}

CliParser::Option* CliParser::find(const std::string& name) {
  for (auto& opt : options_)
    if (opt->name == name) return opt.get();
  return nullptr;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return false;
    }
    if (!starts_with(arg, "--")) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", program_.c_str(),
                   std::string(arg).c_str());
      print_usage();
      return false;
    }
    arg.remove_prefix(2);
    std::string name;
    std::string_view value;
    bool have_value = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = arg.substr(eq + 1);
      have_value = true;
    } else {
      name = std::string(arg);
    }
    Option* opt = find(name);
    if (opt == nullptr) {
      std::fprintf(stderr, "%s: unknown flag '--%s'\n", program_.c_str(),
                   name.c_str());
      print_usage();
      return false;
    }
    if (!have_value) {
      if (opt->kind == Option::Kind::Flag) {
        opt->flag_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag '--%s' needs a value\n",
                     program_.c_str(), name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!opt->assign(value)) {
      std::fprintf(stderr, "%s: bad value '%s' for flag '--%s'\n",
                   program_.c_str(), std::string(value).c_str(), name.c_str());
      return false;
    }
  }
  return true;
}

bool CliParser::check_range(const std::string& name, long long lo,
                            long long hi) {
  const Option* opt = find(name);
  OPTO_ASSERT(opt != nullptr && opt->kind == Option::Kind::Int);
  if (opt->int_value >= lo && opt->int_value <= hi) return true;
  std::fprintf(stderr, "%s: --%s must be in %lld..%lld (got %lld)\n",
               program_.c_str(), name.c_str(), lo, hi, opt->int_value);
  print_usage();
  return false;
}

void CliParser::print_usage() const {
  std::fprintf(stderr, "%s — %s\n\nFlags:\n", program_.c_str(),
               description_.c_str());
  for (const auto& opt : options_) {
    std::fprintf(stderr, "  --%-18s %s (default: %s)\n", opt->name.c_str(),
                 opt->help.c_str(), opt->default_text.c_str());
  }
}

}  // namespace opto
