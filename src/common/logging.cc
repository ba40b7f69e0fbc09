#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace act
{

namespace
{

LogLevel g_level = LogLevel::kNormal;

} // namespace

namespace logging_detail
{

void
emit(const char *tag, const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", tag, message.c_str());
}

void
panicImpl(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", message.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &message)
{
    std::fprintf(stderr, "fatal: %s\n", message.c_str());
    std::exit(1);
}

LogLevel
currentLevel()
{
    return g_level;
}

} // namespace logging_detail

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

bool
parseLogLevel(const std::string &name, LogLevel *out)
{
    if (name == "quiet")
        *out = LogLevel::kQuiet;
    else if (name == "normal")
        *out = LogLevel::kNormal;
    else if (name == "debug")
        *out = LogLevel::kDebug;
    else
        return false;
    return true;
}

namespace
{

bool
needsQuoting(const std::string &value)
{
    if (value.empty())
        return true;
    for (const char c : value) {
        if (c == ' ' || c == '=' || c == '"' || c == '\\' || c == '\n' ||
            c == '\t')
            return true;
    }
    return false;
}

void
appendValue(std::string &line, const std::string &value)
{
    if (!needsQuoting(value)) {
        line += value;
        return;
    }
    line += '"';
    for (const char c : value) {
        switch (c) {
          case '"': line += "\\\""; break;
          case '\\': line += "\\\\"; break;
          case '\n': line += "\\n"; break;
          case '\t': line += "\\t"; break;
          default: line += c;
        }
    }
    line += '"';
}

} // namespace

std::string
formatLogEvent(const std::string &event,
               const std::vector<LogField> &fields)
{
    std::string line = event;
    for (const LogField &field : fields) {
        line += ' ';
        line += field.key;
        line += '=';
        appendValue(line, field.value);
    }
    return line;
}

void
logWarnEvent(const std::string &event,
             const std::vector<LogField> &fields)
{
    logging_detail::emit("warn", formatLogEvent(event, fields));
}

void
inform(const std::string &message)
{
    if (g_level != LogLevel::kQuiet)
        logging_detail::emit("info", message);
}

void
warn(const std::string &message)
{
    logging_detail::emit("warn", message);
}

void
debugLog(const std::string &message)
{
    if (g_level == LogLevel::kDebug)
        logging_detail::emit("debug", message);
}

} // namespace act
