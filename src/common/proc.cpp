#include "common/proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <set>

#include "common/check.h"
#include "common/config.h"
#include "common/thread_pool.h"

namespace imap::proc {

namespace {

/// Frames larger than this are treated as stream corruption, not messages.
constexpr std::uint64_t kMaxFrameBytes = 1ull << 32;

/// Registry of every live parent-side channel descriptor. A freshly forked
/// child closes all of them except its own channel's, so no worker ever
/// holds an inherited duplicate of a sibling's pipe end (which would defeat
/// EOF-based shutdown of that sibling).
std::mutex g_fds_mutex;
std::set<int> g_channel_fds;

void register_fd(int fd) {
  if (fd < 0) return;
  std::lock_guard<std::mutex> lk(g_fds_mutex);
  g_channel_fds.insert(fd);
}

void unregister_fd(int fd) {
  if (fd < 0) return;
  std::lock_guard<std::mutex> lk(g_fds_mutex);
  g_channel_fds.erase(fd);
}

/// Writing to a pipe whose reader died must surface as send() == false, not
/// process death: the fabric handles worker loss by re-dispatching.
void ignore_sigpipe_once() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

/// Full write loop (EINTR-safe). Returns false on EPIPE, throws otherwise.
bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) return false;
      IMAP_CHECK_MSG(false, "channel write failed: " << std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Full read loop. Returns bytes read (< n only at end-of-stream).
std::size_t read_upto(int fd, std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, data + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      IMAP_CHECK_MSG(false, "channel read failed: " << std::strerror(errno));
    }
    if (r == 0) break;
    off += static_cast<std::size_t>(r);
  }
  return off;
}

void encode_u64le(std::uint64_t v, std::array<std::uint8_t, 8>& out) {
  for (std::size_t i = 0; i < 8; ++i)
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t decode_u64le(const std::array<std::uint8_t, 8>& in) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

int configured_procs() { return env_positive_int("IMAP_PROCS", 1); }

Channel::Channel(int read_fd, int write_fd) : rfd_(read_fd), wfd_(write_fd) {
  ignore_sigpipe_once();
  register_fd(rfd_);
  register_fd(wfd_);
}

Channel::~Channel() { close_both(); }

Channel::Channel(Channel&& other) noexcept
    : rfd_(other.rfd_), wfd_(other.wfd_) {
  other.rfd_ = other.wfd_ = -1;
}

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close_both();
    rfd_ = other.rfd_;
    wfd_ = other.wfd_;
    other.rfd_ = other.wfd_ = -1;
  }
  return *this;
}

void Channel::close_read() {
  if (rfd_ >= 0) {
    unregister_fd(rfd_);
    ::close(rfd_);
    rfd_ = -1;
  }
}

void Channel::close_write() {
  if (wfd_ >= 0) {
    unregister_fd(wfd_);
    ::close(wfd_);
    wfd_ = -1;
  }
}

void Channel::close_both() {
  close_read();
  close_write();
}

bool Channel::send(const ArchiveWriter& msg) const {
  IMAP_CHECK_MSG(wfd_ >= 0, "send on a closed channel");
  const std::vector<std::uint8_t> bytes = msg.bytes();
  std::array<std::uint8_t, 8> hdr;
  encode_u64le(bytes.size(), hdr);
  if (!write_all(wfd_, hdr.data(), hdr.size())) return false;
  return write_all(wfd_, bytes.data(), bytes.size());
}

bool Channel::recv(ArchiveReader& out) const {
  IMAP_CHECK_MSG(rfd_ >= 0, "recv on a closed channel");
  std::array<std::uint8_t, 8> hdr;
  const std::size_t got = read_upto(rfd_, hdr.data(), hdr.size());
  if (got == 0) return false;  // clean end-of-stream between frames
  IMAP_CHECK_MSG(got == hdr.size(),
                 "channel frame header truncated (" << got << "/8 bytes)");
  const std::uint64_t len = decode_u64le(hdr);
  IMAP_CHECK_MSG(len <= kMaxFrameBytes,
                 "channel frame length " << len << " exceeds sanity bound");
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(len));
  const std::size_t body = read_upto(rfd_, payload.data(), payload.size());
  IMAP_CHECK_MSG(body == payload.size(), "channel frame payload truncated ("
                                             << body << "/" << len
                                             << " bytes)");
  out = ArchiveReader::parse(std::move(payload), "channel frame");
  return true;
}

WorkerProcess::~WorkerProcess() {
  if (valid() && !reaped_) {
    ch_.close_both();
    reap_blocking();
  }
}

WorkerProcess::WorkerProcess(WorkerProcess&& other) noexcept
    : pid_(other.pid_),
      status_(other.status_),
      reaped_(other.reaped_),
      ch_(std::move(other.ch_)) {
  other.pid_ = -1;
  other.reaped_ = false;
}

WorkerProcess& WorkerProcess::operator=(WorkerProcess&& other) noexcept {
  if (this != &other) {
    if (valid() && !reaped_) {
      ch_.close_both();
      reap_blocking();
    }
    pid_ = other.pid_;
    status_ = other.status_;
    reaped_ = other.reaped_;
    ch_ = std::move(other.ch_);
    other.pid_ = -1;
    other.reaped_ = false;
  }
  return *this;
}

WorkerProcess WorkerProcess::spawn(const Body& body) {
  ignore_sigpipe_once();
  int to_child[2];   // parent writes, child reads
  int to_parent[2];  // child writes, parent reads
  IMAP_CHECK_MSG(::pipe(to_child) == 0 && ::pipe(to_parent) == 0,
                 "pipe() failed: " << std::strerror(errno));

  const pid_t pid = ::fork();
  IMAP_CHECK_MSG(pid >= 0, "fork() failed: " << std::strerror(errno));

  if (pid == 0) {
    // Child. Close the parent halves, then every inherited sibling-channel
    // descriptor; the parent's pool threads did not survive the fork, so
    // all parallel helpers run inline for the life of this process.
    ::close(to_child[1]);
    ::close(to_parent[0]);
    {
      std::lock_guard<std::mutex> lk(g_fds_mutex);
      for (const int fd : g_channel_fds) ::close(fd);
      g_channel_fds.clear();
    }
    int rc = 0;
    {
      Channel ch(to_child[0], to_parent[1]);
      ScopedSerial serial;
      try {
        body(ch);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "imap worker %d: %s\n",
                     static_cast<int>(::getpid()), e.what());
        rc = 1;
      } catch (...) {
        std::fprintf(stderr, "imap worker %d: unknown exception\n",
                     static_cast<int>(::getpid()));
        rc = 1;
      }
    }
    std::fflush(nullptr);
    ::_exit(rc);
  }

  // Parent.
  ::close(to_child[0]);
  ::close(to_parent[1]);
  WorkerProcess w;
  w.pid_ = pid;
  w.ch_ = Channel(to_parent[0], to_child[1]);
  return w;
}

bool WorkerProcess::running() {
  if (!valid() || reaped_) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    status_ = status;
    reaped_ = true;
    return false;
  }
  return true;
}

void WorkerProcess::reap_blocking() {
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  status_ = status;
  reaped_ = true;
}

int WorkerProcess::join() {
  IMAP_CHECK_MSG(valid(), "join on an empty WorkerProcess");
  ch_.close_write();  // child's next recv() returns false -> clean exit
  if (!reaped_) reap_blocking();
  ch_.close_both();
  if (WIFEXITED(status_)) return WEXITSTATUS(status_);
  if (WIFSIGNALED(status_)) return -WTERMSIG(status_);
  return -1;
}

void WorkerProcess::terminate() {
  if (!valid() || reaped_) return;
  ::kill(pid_, SIGKILL);
  reap_blocking();
  ch_.close_both();
}

std::optional<FileSig> file_sig(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT || errno == ENOTDIR) return std::nullopt;
    IMAP_CHECK_MSG(false,
                   "stat(" << path << ") failed: " << std::strerror(errno));
  }
  FileSig sig;
  sig.mtime_ns = static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1'000'000'000ull +
                 static_cast<std::uint64_t>(st.st_mtim.tv_nsec);
  sig.size = static_cast<std::uint64_t>(st.st_size);
  sig.inode = static_cast<std::uint64_t>(st.st_ino);
  return sig;
}

std::vector<std::size_t> poll_readable(const std::vector<int>& fds,
                                       int timeout_ms) {
  std::vector<pollfd> pfds;
  std::vector<std::size_t> index_of;
  pfds.reserve(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i] < 0) continue;
    pfds.push_back(pollfd{fds[i], POLLIN, 0});
    index_of.push_back(i);
  }
  std::vector<std::size_t> ready;
  if (pfds.empty()) return ready;
  int r;
  do {
    r = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (r < 0 && errno == EINTR);
  IMAP_CHECK_MSG(r >= 0, "poll() failed: " << std::strerror(errno));
  for (std::size_t i = 0; i < pfds.size(); ++i)
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
      ready.push_back(index_of[i]);
  return ready;
}

FileLock::FileLock(std::string path) : path_(std::move(path)) {
  ignore_sigpipe_once();
  timespec backoff{0, 2'000'000};  // 2 ms, doubled up to ~128 ms
  while (true) {
    const int fd = ::open(path_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      char buf[32];
      const int n =
          std::snprintf(buf, sizeof buf, "%d\n", static_cast<int>(::getpid()));
      if (n > 0)
        write_all(fd, reinterpret_cast<const std::uint8_t*>(buf),
                  static_cast<std::size_t>(n));
      ::close(fd);
      held_ = true;
      return;
    }
    IMAP_CHECK_MSG(errno == EEXIST,
                   "lockfile " << path_ << ": " << std::strerror(errno));
    // Steal the lock if its owner is gone (crashed mid-critical-section;
    // the guarded writes are tmp+rename atomic, so stealing is safe).
    std::FILE* f = std::fopen(path_.c_str(), "r");
    if (f) {
      int owner = 0;
      const bool parsed = std::fscanf(f, "%d", &owner) == 1;
      std::fclose(f);
      if (parsed && owner > 0 && ::kill(owner, 0) != 0 && errno == ESRCH) {
        std::remove(path_.c_str());
        continue;  // retry the O_EXCL create immediately
      }
    }
    ::nanosleep(&backoff, nullptr);
    if (backoff.tv_nsec < 128'000'000) backoff.tv_nsec *= 2;
  }
}

FileLock::~FileLock() {
  if (held_) std::remove(path_.c_str());
}

}  // namespace imap::proc
