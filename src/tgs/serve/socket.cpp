#include "tgs/serve/socket.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "tgs/serve/faults.h"

namespace tgs {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

UnixConn::UnixConn(UnixConn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buf_(std::move(other.buf_)),
      head_(std::exchange(other.head_, 0)),
      scan_(std::exchange(other.scan_, 0)) {}

UnixConn& UnixConn::operator=(UnixConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
    head_ = std::exchange(other.head_, 0);
    scan_ = std::exchange(other.scan_, 0);
  }
  return *this;
}

UnixConn UnixConn::connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect " + path);
  }
  return UnixConn(fd);
}

bool UnixConn::read_line(std::string* line, std::size_t max_line) {
  for (;;) {
    // Bytes before scan_ were searched already; the line starts at head_.
    const std::size_t nl = buf_.find('\n', scan_);
    if (nl != std::string::npos) {
      if (nl - head_ > max_line) throw LineTooLong(max_line);
      line->assign(buf_, head_, nl - head_);
      head_ = scan_ = nl + 1;
      if (head_ == buf_.size()) {
        buf_.clear();
        head_ = scan_ = 0;
      }
      return true;
    }
    scan_ = buf_.size();
    if (scan_ - head_ > max_line) throw LineTooLong(max_line);
    // Drop the consumed lines before the buffer grows: this moves only the
    // unfinished line, once per read that finds the buffer not at its start.
    if (head_ > 0) {
      buf_.erase(0, head_);
      scan_ -= head_;
      head_ = 0;
    }
    char chunk[65536];
    ssize_t n;
    do {
      // Fault points: a scripted EINTR exercises this retry loop without
      // a real signal; a scripted short read caps the chunk so the
      // accumulation path sees arbitrarily fragmented input.
      std::int64_t arg = 0;
      if (FaultPlan::hit(FaultPoint::kReadEintr)) {
        n = -1;
        errno = EINTR;
        continue;
      }
      std::size_t want = sizeof chunk;
      if (FaultPlan::hit(FaultPoint::kReadShort, &arg))
        want = static_cast<std::size_t>(
            std::clamp<std::int64_t>(arg == 0 ? 1 : arg, 1,
                                     static_cast<std::int64_t>(sizeof chunk)));
      n = ::read(fd_, chunk, want);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) throw IoTimeout("read");
      throw_errno("read");
    }
    if (n == 0) {
      if (!buf_.empty())
        throw std::runtime_error("connection closed mid-line");
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void UnixConn::write_line(const std::string& line) {
  // The line and its '\n' go out as two pieces of one message: no copy of
  // the line is made to append the newline.
  static const char kNewline = '\n';
  const std::size_t total = line.size() + 1;
  std::size_t off = 0;
  while (off < total) {
    ssize_t n;
    do {
      std::int64_t arg = 0;
      if (FaultPlan::hit(FaultPoint::kWriteEintr)) {
        n = -1;
        errno = EINTR;
        continue;
      }
      std::size_t len = total - off;
      if (FaultPlan::hit(FaultPoint::kWriteShort, &arg))
        len = static_cast<std::size_t>(
            std::clamp<std::int64_t>(arg == 0 ? 1 : arg, 1,
                                     static_cast<std::int64_t>(len)));
      iovec iov[2];
      msghdr msg{};
      msg.msg_iov = iov;
      if (off < line.size()) {
        const std::size_t part = std::min(len, line.size() - off);
        iov[msg.msg_iovlen++] = {const_cast<char*>(line.data()) + off, part};
      }
      if (off + len == total)
        iov[msg.msg_iovlen++] = {const_cast<char*>(&kNewline), 1};
      // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
      n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) throw IoTimeout("write");
      throw_errno("write");
    }
    off += static_cast<std::size_t>(n);
  }
}

void UnixConn::set_timeouts(int rcv_ms, int snd_ms) {
  const auto set = [this](int opt, int ms) {
    if (ms <= 0) return;
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    if (::setsockopt(fd_, SOL_SOCKET, opt, &tv, sizeof tv) != 0)
      throw_errno("setsockopt");
  };
  set(SO_RCVTIMEO, rcv_ms);
  set(SO_SNDTIMEO, snd_ms);
}

void UnixConn::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void UnixConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixListener::UnixListener(const std::string& path) : path_(path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  ::unlink(path.c_str());  // replace a stale socket file from a dead daemon
  const sockaddr_un addr = make_addr(path);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + path);
  }
  if (::listen(fd_, 128) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("listen " + path);
  }
}

UnixListener::~UnixListener() {
  close();
  ::unlink(path_.c_str());
}

UnixConn UnixListener::accept() {
  for (;;) {
    if (FaultPlan::hit(FaultPoint::kAcceptEintr)) {
      errno = EINTR;
      continue;  // exercised exactly like a real interrupted accept(2)
    }
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return UnixConn(fd);
    if (errno == EINTR) continue;
    return UnixConn();  // closed listener (or fatal error): signal shutdown
  }
}

void UnixListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() first: reliably wakes an accept() blocked in another
    // thread, where a bare close() can leave it sleeping.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace tgs
