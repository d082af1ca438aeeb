/**
 * @file
 * Run code in a forked child and ship raw bytes back over a pipe.
 *
 * Simulated results hash host heap addresses, so a run is a pure
 * function of its inputs only from a fixed process image. Forking each
 * run from the same parent gives every child that image, whatever ran
 * before. The helpers allocate nothing in the parent between fork()
 * and waitpid(), so a second child launched before the first is
 * collected still inherits the same image.
 */

#ifndef HTMSIM_BENCH_FORKED_HH
#define HTMSIM_BENCH_FORKED_HH

#include <cstddef>
#include <type_traits>

#include <sys/wait.h>
#include <unistd.h>

namespace htmsim::bench
{

/** A forked child and the read end of its result pipe. */
class ForkedChild
{
  public:
    /**
     * Fork; the child runs @p body(*this), which ships its results
     * with send(), and exits 0 (3 if @p body throws).
     */
    template <typename Body>
    explicit ForkedChild(Body body)
    {
        int fds[2];
        if (::pipe(fds) != 0)
            return;
        pid_ = ::fork();
        if (pid_ < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            return;
        }
        if (pid_ == 0) {
            ::close(fds[0]);
            fd_ = fds[1];
            try {
                body(*this);
            } catch (...) {
                ::_exit(3);
            }
            ::_exit(0);
        }
        ::close(fds[1]);
        fd_ = fds[0];
    }

    ForkedChild(const ForkedChild&) = delete;
    ForkedChild& operator=(const ForkedChild&) = delete;

    ~ForkedChild() { wait(); }

    /** Child side: write @p bytes to the parent; exit 2 on failure. */
    void
    send(const void* data, std::size_t bytes) const
    {
        const char* cursor = static_cast<const char*>(data);
        while (bytes > 0) {
            const ssize_t written = ::write(fd_, cursor, bytes);
            if (written <= 0)
                ::_exit(2);
            cursor += written;
            bytes -= std::size_t(written);
        }
    }

    /** Parent side: read exactly @p bytes; false on a short read. */
    bool
    receive(void* data, std::size_t bytes)
    {
        char* cursor = static_cast<char*>(data);
        while (ok_ && bytes > 0) {
            const ssize_t got = ::read(fd_, cursor, bytes);
            ok_ = got > 0;
            if (ok_) {
                cursor += got;
                bytes -= std::size_t(got);
            }
        }
        return ok_;
    }

    /**
     * Parent side: close the pipe and reap the child. True iff it was
     * started, every receive() succeeded and it exited 0.
     */
    bool
    wait()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        if (pid_ > 0) {
            int status = 0;
            ::waitpid(pid_, &status, 0);
            exitedOk_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
            pid_ = 0;
        }
        return ok_ && exitedOk_;
    }

  private:
    int fd_ = -1;
    pid_t pid_ = -1;
    bool ok_ = true;
    bool exitedOk_ = false;
};

/**
 * Run @p fill in a forked child, which writes @p count objects at
 * @p data; copy them into the same place in the parent. True iff the
 * child ran to completion.
 */
template <typename T, typename Fill>
bool
runForked(T* data, std::size_t count, Fill&& fill)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "results cross the pipe as raw bytes");
    ForkedChild child([&](const ForkedChild& self) {
        fill();
        self.send(data, count * sizeof(T));
    });
    child.receive(data, count * sizeof(T));
    return child.wait();
}

} // namespace htmsim::bench

#endif // HTMSIM_BENCH_FORKED_HH
