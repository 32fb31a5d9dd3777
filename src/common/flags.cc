#include "common/flags.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace specpmt
{

bool
parseFinite(std::string_view text, double &out)
{
    double value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

Flags &
Flags::flag(std::string_view name, bool &out)
{
    flags_.push_back({std::string(name), true, [&out](std::string_view) {
                          out = true;
                          return std::string();
                      }});
    return *this;
}

Flags &
Flags::option(std::string_view name, Handler handler)
{
    flags_.push_back({std::string(name), false, std::move(handler)});
    return *this;
}

Flags &
Flags::text(std::string_view name, std::string &out)
{
    return option(name, [&out](std::string_view text) {
        out = text;
        return std::string();
    });
}

Flags &
Flags::real(std::string_view name, double &out, double min, double max)
{
    return option(name, [name = std::string(name), &out, min,
                         max](std::string_view text) {
        double value = 0;
        if (!parseFinite(text, value))
            return name + "=" + std::string(text) + " is not a finite number";
        if (value < min || value > max) {
            char bound[32];
            std::snprintf(bound, sizeof(bound), "%g",
                          value < min ? min : max);
            return name + (value < min ? " must be at least "
                                       : " must be at most ") +
                   bound;
        }
        out = value;
        return std::string();
    });
}

Flags &
Flags::list(std::string_view name, std::vector<std::string> &out)
{
    return list<std::string>(name, out, [](std::string_view item) {
        return std::optional<std::string>(item);
    });
}

Flags &
Flags::positionals(std::vector<std::string> &out)
{
    positionals_ = &out;
    return *this;
}

std::string
Flags::parse(int argc, const char *const *argv, int first) const
{
    for (int i = first; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.empty() || arg.front() != '-' || arg == "-") {
            if (positionals_ == nullptr)
                return "unknown argument: " + std::string(arg);
            positionals_->emplace_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const bool has_value = eq != std::string_view::npos;
        const std::string_view name = arg.substr(0, eq);
        const auto match = std::find_if(
            flags_.begin(), flags_.end(), [&](const Flag &flag) {
                return flag.name == name && flag.isSwitch != has_value;
            });
        if (match != flags_.end()) {
            std::string error = match->handler(
                has_value ? arg.substr(eq + 1) : std::string_view());
            if (!error.empty())
                return error;
            continue;
        }
        if (std::none_of(flags_.begin(), flags_.end(),
                         [&](const Flag &flag) { return flag.name == name; }))
            return "unknown argument: " + std::string(arg);
        return std::string(name) +
               (has_value ? " takes no value" : " needs a value");
    }
    return {};
}

} // namespace specpmt
