#include "util/atomic_file.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/fault.hpp"

namespace syseco {

namespace {

Status errnoStatus(const std::string& what, const std::string& path) {
  return Status::internal(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

std::string readFileOrEmpty(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string parentDirectory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status syncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return errnoStatus("cannot open directory", dir);
  // Some filesystems reject fsync on directories (EINVAL); the rename is
  // still atomic there, just not durable against power loss.
  if (::fsync(fd) != 0 && errno != EINVAL && errno != EROFS) {
    const Status s = errnoStatus("cannot fsync directory", dir);
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::ok();
}

Status writeFileAtomic(const std::string& path, std::string_view content,
                       std::string_view site) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const std::string writeSite = std::string(site) + ".write";
  const std::string fsyncSite = std::string(site) + ".fsync";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return errnoStatus("cannot create", tmp);

  std::size_t written = 0;
  while (written < content.size()) {
    const ::ssize_t n = fault::fallibleWrite(
        fd, content.data() + written, content.size() - written, writeSite);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = errnoStatus("cannot write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    written += static_cast<std::size_t>(n);
  }
  if (fault::fallibleFsync(fd, fsyncSite) != 0) {
    const Status s = errnoStatus("cannot fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::close(fd) != 0) {
    const Status s = errnoStatus("cannot close", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = errnoStatus("cannot rename to", path);
    ::unlink(tmp.c_str());
    return s;
  }
  return syncDirectory(parentDirectory(path));
}

std::size_t removeStaleStaging(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::size_t removed = 0;
  while (const dirent* entry = ::readdir(d)) {
    const std::string_view name(entry->d_name);
    if (name.find(".tmp.") == std::string_view::npos) continue;
    const std::string path = dir + "/" + std::string(name);
    if (::unlink(path.c_str()) == 0) ++removed;
  }
  ::closedir(d);
  return removed;
}

}  // namespace syseco
