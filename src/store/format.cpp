#include "store/format.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

namespace gems::store {

namespace {

std::string errno_detail(const char* op, const std::string& path) {
  return std::string(op) + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

Result<std::pmr::vector<std::uint8_t>> read_file_bytes(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return not_found("no such file: '" + path + "'");
    return io_error(errno_detail("open", path));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status s = io_error(errno_detail("stat", path));
    ::close(fd);
    return s;
  }
  std::pmr::vector<std::uint8_t> out(static_cast<std::size_t>(st.st_size),
                                     large_array_resource());
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = io_error(errno_detail("read", path));
      ::close(fd);
      return s;
    }
    if (n == 0) break;  // shrank underneath us; return what we have
    done += static_cast<std::size_t>(n);
  }
  out.resize(done);
  ::close(fd);
  return out;
}

FileWriter::FileWriter(int fd, std::string path)
    : StreamWriter(kWriterBufferBytes,
                   [this](std::span<const std::uint8_t> b) {
                     return write_out(b);
                   }),
      fd_(fd),
      path_(std::move(path)) {}

Status FileWriter::write_out(std::span<const std::uint8_t> b) {
  GEMS_RETURN_IF_ERROR(write_all(fd_, b, path_));
  crc_ = crc32_update(crc_, b);
  return Status::ok();
}

Status write_all(int fd, std::span<const std::uint8_t> bytes,
                 const std::string& path) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error(errno_detail("write", path));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status pwrite_all(int fd, std::span<const std::uint8_t> bytes,
                  std::uint64_t offset, const std::string& path) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pwrite(fd, bytes.data() + done, bytes.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error(errno_detail("pwrite", path));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status write_file_durable(const std::string& path,
                          std::span<const std::uint8_t> bytes) {
  return replace_file_durable(path, [bytes](int fd, const std::string& tmp) {
    return write_all(fd, bytes, tmp);
  });
}

Status replace_file_durable(
    const std::string& path,
    const std::function<Status(int fd, const std::string& tmp_path)>& fill) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return io_error(errno_detail("open", tmp));
  Status status = fill(fd, tmp);
  if (status.is_ok() && ::fsync(fd) != 0) {
    status = io_error(errno_detail("fsync", tmp));
  }
  if (::close(fd) != 0 && status.is_ok()) {
    status = io_error(errno_detail("close", tmp));
  }
  if (!status.is_ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = io_error(errno_detail("rename", tmp));
    ::unlink(tmp.c_str());
    return s;
  }
  const auto slash = path.find_last_of('/');
  return fsync_dir(slash == std::string::npos ? "." : path.substr(0, slash));
}

Status fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return io_error(errno_detail("open dir", dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return io_error(errno_detail("fsync dir", dir));
  return Status::ok();
}

Status ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return io_error("create directory '" + dir + "': " + ec.message());
  }
  return Status::ok();
}

}  // namespace gems::store
