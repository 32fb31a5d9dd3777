/**
 * @file
 * The one command-line flag parser of the tools and benches.
 *
 * A tool declares every `--name=value` option and bare `--name` switch
 * it takes, each bound to the variable it sets, then parses argv once.
 * A number must be written in full: an empty, signed (unless the
 * flag's minimum is negative), suffixed, non-finite or overflowing
 * value, or one outside the flag's bounds, is a usage error that names
 * the flag. So are an unknown argument, a value given to a switch and
 * an option given none. parse() returns the error instead of exiting,
 * so each tool keeps its own usage-error exit status.
 */

#ifndef SPECPMT_COMMON_FLAGS_HH
#define SPECPMT_COMMON_FLAGS_HH

#include <algorithm>
#include <charconv>
#include <concepts>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace specpmt
{

/**
 * Parse all of @p text as a finite real in std::from_chars form (no
 * '+', no suffix, no "inf" or "nan"); false if it is not one.
 */
bool parseFinite(std::string_view text, double &out);

class Flags
{
  public:
    /** Consume one option value; return the usage error, or "". */
    using Handler = std::function<std::string(std::string_view value)>;
    /** Map a name to its value; nullopt for an unknown name. */
    template <typename T>
    using Parser = std::optional<T> (*)(std::string_view);

    /** Bare switch @p name (e.g. "--keep"): sets @p out. */
    Flags &flag(std::string_view name, bool &out);

    /** `NAME=VALUE` consumed by @p handler, once per occurrence. */
    Flags &option(std::string_view name, Handler handler);

    /** `NAME=TEXT`; any text, the empty one included. */
    Flags &text(std::string_view name, std::string &out);

    /** `NAME=N`: a decimal integer in [@p min, @p max]. */
    template <std::integral T>
    Flags &
    count(std::string_view name, T &out, std::type_identity_t<T> min = 0,
          std::type_identity_t<T> max = std::numeric_limits<T>::max())
    {
        return option(name, [name = std::string(name), &out, min,
                             max](std::string_view text) {
            T value{};
            const char *end = text.data() + text.size();
            const auto [ptr, ec] = std::from_chars(text.data(), end, value);
            if (ec == std::errc::invalid_argument || ptr != end) {
                return name + "=" + std::string(text) + " is not " +
                       (std::is_signed_v<T> ? "an integer"
                                            : "an unsigned integer");
            }
            if (ec == std::errc() ? value < min : text.front() == '-')
                return name + " must be at least " + std::to_string(min);
            if (ec != std::errc() || value > max)
                return name + " must be at most " + std::to_string(max);
            out = value;
            return std::string();
        });
    }

    /** `NAME=X`: a finite real in [@p min, @p max]. */
    Flags &real(std::string_view name, double &out, double min = 0,
                double max = std::numeric_limits<double>::max());

    /** `NAME=WORD`, mapped by @p parse; an unknown word is an error. */
    template <typename T>
    Flags &
    choice(std::string_view name, T &out, Parser<T> parse)
    {
        return option(name, [name = std::string(name), &out,
                             parse](std::string_view text) {
            const std::optional<T> value = parse(text);
            if (value)
                out = *value;
            return value ? std::string()
                         : "unknown " + name + " value: " + std::string(text);
        });
    }

    /**
     * `NAME=A,B,...`: a comma-separated list that replaces @p out, each
     * item mapped by @p parse. Empty items are skipped; at least one
     * item must remain.
     */
    template <typename T>
    Flags &
    list(std::string_view name, std::vector<T> &out, Parser<T> parse)
    {
        return option(name, [name = std::string(name), &out,
                             parse](std::string_view text) {
            std::vector<T> values;
            for (std::size_t start = 0; start <= text.size();) {
                const std::size_t comma =
                    std::min(text.find(',', start), text.size());
                const std::string_view item =
                    text.substr(start, comma - start);
                start = comma + 1;
                if (item.empty())
                    continue;
                std::optional<T> value = parse(item);
                if (!value)
                    return "unknown " + name + " value: " + std::string(item);
                values.push_back(std::move(*value));
            }
            if (values.empty())
                return name + " needs at least one name";
            out = std::move(values);
            return std::string();
        });
    }

    /** As above, each item kept as written. */
    Flags &list(std::string_view name, std::vector<std::string> &out);

    /**
     * Collect the arguments that are not flags (those not starting
     * with '-', and "-" itself) into @p out, in order. Without this
     * call such an argument is a usage error.
     */
    Flags &positionals(std::vector<std::string> &out);

    /**
     * Apply argv[first..argc) to the declared flags, in order.
     * @return the first usage error, or "" when every argument parsed.
     */
    std::string parse(int argc, const char *const *argv,
                      int first = 1) const;

  private:
    struct Flag
    {
        std::string name;
        bool isSwitch = false;
        Handler handler;
    };

    std::vector<Flag> flags_;
    std::vector<std::string> *positionals_ = nullptr;
};

} // namespace specpmt

#endif // SPECPMT_COMMON_FLAGS_HH
