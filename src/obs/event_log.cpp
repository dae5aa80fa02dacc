#include "obs/event_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>

namespace parlap::obs {

void EventLog::write_line(std::string_view line) const noexcept {
  const int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                        0644);
  if (fd < 0) return;
  // Single write so concurrent appenders (worker threads) interleave at
  // line granularity under O_APPEND. Short writes on a regular file are
  // effectively ENOSPC; nothing useful to do but drop.
  (void)::write(fd, line.data(), line.size());
  ::close(fd);
}

double unix_now_seconds() noexcept {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

}  // namespace parlap::obs
