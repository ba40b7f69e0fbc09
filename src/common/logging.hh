/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * Two terminating reporters are provided, with the same semantics gem5
 * documents for them:
 *  - panic():  an internal invariant was violated (a bug in ACT itself);
 *              aborts so a core dump / debugger can take over.
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, invalid arguments); exits cleanly.
 *
 * Non-terminating reporters inform() and warn() print status messages.
 */

#ifndef ACT_COMMON_LOGGING_HH
#define ACT_COMMON_LOGGING_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace act
{

/** Verbosity levels for the global logger. */
enum class LogLevel
{
    kQuiet,  //!< Only warnings and errors.
    kNormal, //!< inform() and above (default).
    kDebug   //!< Everything, including debugLog().
};

namespace logging_detail
{

/** Emit one formatted line to stderr with the given tag. */
void emit(const char *tag, const std::string &message);

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &message);
[[noreturn]] void fatalImpl(const std::string &message);

/** Current verbosity; see setLogLevel(). */
LogLevel currentLevel();

} // namespace logging_detail

/** Set the process-wide verbosity. */
void setLogLevel(LogLevel level);

/**
 * Parse a --log-level value ("quiet", "normal", "debug").
 * @return false (leaving @p out untouched) on anything else.
 */
bool parseLogLevel(const std::string &name, LogLevel *out);

/** One key=value field of a structured log line. */
struct LogField
{
    std::string key;
    std::string value;
};

inline LogField
logField(std::string key, std::string value)
{
    return LogField{std::move(key), std::move(value)};
}

inline LogField
logField(std::string key, const char *value)
{
    return LogField{std::move(key), value};
}

inline LogField
logField(std::string key, std::uint64_t value)
{
    return LogField{std::move(key), std::to_string(value)};
}

inline LogField
logField(std::string key, std::int64_t value)
{
    return LogField{std::move(key), std::to_string(value)};
}

inline LogField
logField(std::string key, std::uint32_t value)
{
    return LogField{std::move(key), std::to_string(value)};
}

inline LogField
logField(std::string key, double value)
{
    std::ostringstream out;
    out << value;
    return LogField{std::move(key), out.str()};
}

/**
 * Render @p fields as a canonical `event k1=v1 k2=v2` line. Values
 * containing spaces, quotes, or '=' are double-quoted with backslash
 * escapes, so the line stays machine-splittable on spaces.
 */
std::string formatLogEvent(const std::string &event,
                           const std::vector<LogField> &fields);

/**
 * Structured key=value warning line (never suppressed), e.g.
 * `warn: cache.quarantine path=t.trc reason=checksum_mismatch`.
 */
void logWarnEvent(const std::string &event,
                  const std::vector<LogField> &fields);

/** Print an informational status message (suppressed when kQuiet). */
void inform(const std::string &message);

/** Print a warning about suspicious but non-fatal conditions. */
void warn(const std::string &message);

/** Print a debug message (only when kDebug). */
void debugLog(const std::string &message);

/**
 * Abort because an internal invariant does not hold.
 *
 * Use for conditions that can only arise from a bug in this codebase,
 * never from user input.
 */
#define ACT_PANIC(msg)                                                     \
    ::act::logging_detail::panicImpl(__FILE__, __LINE__,                   \
                                     (::std::ostringstream{} << msg).str())

/**
 * Terminate because the user asked for something unsupported.
 */
#define ACT_FATAL(msg)                                                     \
    ::act::logging_detail::fatalImpl(                                      \
        (::std::ostringstream{} << msg).str())

/** Panic unless @p cond holds. */
#define ACT_ASSERT(cond)                                                   \
    do {                                                                   \
        if (!(cond))                                                       \
            ACT_PANIC("assertion failed: " #cond);                         \
    } while (false)

} // namespace act

#endif // ACT_COMMON_LOGGING_HH
